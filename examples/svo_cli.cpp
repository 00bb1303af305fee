/// \file svo_cli.cpp
/// Command-line driver for the library — the adoption-ready entry point:
///
///   svo_cli trace-gen <out.swf> [jobs] [seed]   generate a synthetic
///                                               Atlas-like SWF trace
///   svo_cli trace-stats <in.swf>                characterize a trace
///   svo_cli form <in.swf> <tasks> [options]     form a VO for a program
///       --mechanism tvof|rvof     (default tvof)
///       --gsps N                  (default 16)
///       --trust-p P               (default 0.1)
///       --seed S                  (default 42)
///   svo_cli sweep [--reps N] [--seed S]         run the paper's sweep
///                 [--sizes a,b,c]               and print Figs. 1-3, 9
///   svo_cli closed-loop [--rounds N] [--seed S] hidden-reliability closed
///                                               loop, TVOF vs RVOF
///   svo_cli multi [--programs N] [--seed S]     multi-program contention
///   svo_cli faults [options]                    one trusted-party formation
///                                               under injected faults,
///                                               printing protocol metrics
///       --gsps N     (default 10)   --tasks N   (default 48)
///       --drop P     (default 0.1)  --crash P   (default 0.1)
///       --mechanism tvof|rvof       --seed S    (default 42)
///   svo_cli attacks [options]                   adversarial closed loop:
///                                               TVOF with defenses off vs
///                                               on under a trust attack
///       --attack  none|badmouthing|ballot-stuffing|collusion|on-off|
///                 whitewashing|sybil            (default collusion)
///       --fraction P (default 0.3)  --intensity I (default 0.9)
///       --gsps N     (default 12)   --tasks N     (default 36)
///       --rounds N   (default 10)   --seed S      (default 42)
///   svo_cli stream [options]                    streaming grid economy:
///                                               continuous arrivals, GSP
///                                               churn, repair + backoff
///       --requests N  (default 24)  --interval S  (default 60)
///       --gsps N      (default 8)   --deadline S  (default inf)
///       --leave-rate R (default 0)  --crash-rate R (default 0)
///       --absence S   (default 600) --floor N     (default 1)
///       --mechanism tvof|rvof       --seed S      (default 42)
///       --ingest sweep|atlas        --timeline    (print event log)
///       --stats-every S  (virtual-time telemetry windows every S
///                         virtual seconds: per-window table + SLO
///                         burn-rate verdicts after the run)
///   svo_cli serve [options]                     formation-as-a-service: a
///                                               burst of requests through
///                                               the sharded async engine
///       --requests N  (default 64)  --shards N    (default 4)
///       --threads N   (default 0 = one per shard)
///       --capacity N  (default 0 = fit the burst) --batch N (default 8)
///       --gsps N      (default 8)   --tasks N     (default 24)
///       --defer       (defer instead of shed when a queue fills)
///       --chaos       (seeded fault plan: transient solver failures,
///                      queue poison, shard kills, straggler ticks)
///       --deadline S  (per-request deadline, seconds; default inf)
///       --priority P  (drain priority; higher drains first)
///       --retries N   (retry budget per request; default 0, or 3
///                      under --chaos; max 32)
///       --seed S      (default 42)
///       --stats-every S    (live telemetry: close a metrics window
///                           every S wall seconds and print a windowed
///                           health table while the burst drains)
///       --stats-jsonl F    (append every closed window to F as JSONL)
///   svo_cli trace-report <trace> [options]        analyze a recorded trace
///                                               (Chrome JSON or JSONL):
///                                               hot spans, message counts,
///                                               per-round critical paths
///       --top N               hot spans listed (default 12)
///       --collapsed <file>    also write collapsed stacks for
///                             flamegraph.pl / speedscope
///
/// Global options (any subcommand):
///   --trace <file>   record a Chrome trace of the run (open in
///                    chrome://tracing or https://ui.perfetto.dev);
///                    equivalent to SVO_TRACE=<file>. SVO_METRICS=<file>
///                    additionally dumps the metric registry JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/rvof.hpp"
#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "obs/analysis.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "sim/adversary.hpp"
#include "sim/learning.hpp"
#include "sim/multi_program.hpp"
#include "sim/protocol.hpp"
#include "sim/runner.hpp"
#include "sim/stream_engine.hpp"
#include "svc/fault_plan.hpp"
#include "svc/service.hpp"
#include "trace/atlas_synth.hpp"
#include "trace/programs.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "workload/instance_gen.hpp"

namespace {

using namespace svo;

int usage() {
  std::fprintf(stderr,
               "usage: svo_cli "
               "<trace-gen|trace-stats|form|sweep|closed-loop|multi|faults|"
               "attacks|stream|serve|trace-report> [--trace <file>] ...\n"
               "see the header of examples/svo_cli.cpp for details\n");
  return 2;
}

/// Option lookup: value of `--name` in argv, or fallback.
const char* opt(int argc, char** argv, const char* name,
                const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

int cmd_trace_gen(int argc, char** argv) {
  if (argc < 1) return usage();
  trace::AtlasSynthOptions opts;
  if (argc >= 2) opts.num_jobs = std::strtoul(argv[1], nullptr, 10);
  const std::uint64_t seed =
      argc >= 3 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const trace::Trace t = trace::generate_atlas_like(opts, seed);
  trace::write_swf_file(argv[0], t);
  std::printf("wrote %zu jobs to %s\n", t.jobs.size(), argv[0]);
  return 0;
}

int cmd_trace_stats(int argc, char** argv) {
  if (argc < 1) return usage();
  const trace::Trace t = trace::parse_swf_file(argv[0]);
  const trace::TraceStats s = trace::compute_stats(t.jobs);
  std::printf("jobs:            %zu (%zu malformed lines skipped)\n",
              s.total_jobs, t.malformed_lines);
  std::printf("completed:       %zu (%.1f%%)\n", s.completed_jobs,
              100.0 * static_cast<double>(s.completed_jobs) /
                  static_cast<double>(std::max<std::size_t>(1, s.total_jobs)));
  std::printf("long (>2h):      %zu (%.1f%% of completed)\n",
              s.long_completed_jobs, 100.0 * s.long_fraction());
  std::printf("processors:      [%lld, %lld]\n",
              static_cast<long long>(s.min_processors),
              static_cast<long long>(s.max_processors));
  std::printf("runtime (s):     [%.0f, %.0f]\n", s.min_runtime, s.max_runtime);
  if (s.max_runtime > s.min_runtime && s.min_runtime >= 0.0) {
    util::Histogram runtimes = util::Histogram::logarithmic(
        std::max(1.0, s.min_runtime), s.max_runtime + 1.0, 10);
    for (const auto& j : t.jobs) {
      if (j.run_time > 0.0) runtimes.add(j.run_time);
    }
    std::printf("\nruntime distribution:\n%s", runtimes.render(40).c_str());
  }
  return 0;
}

int cmd_closed_loop(int argc, char** argv) {
  sim::ClosedLoopConfig cfg;
  cfg.rounds = std::strtoul(opt(argc, argv, "--rounds", "20"), nullptr, 10);
  cfg.num_tasks = 96;
  cfg.gen.params.num_gsps = 16;
  const std::uint64_t seed =
      std::strtoull(opt(argc, argv, "--seed", "42"), nullptr, 10);
  util::Xoshiro256 rng(seed);
  const sim::ReliabilityModel model =
      sim::ReliabilityModel::bimodal(16, 0.625, 0.9, 0.3, rng);
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const core::RvofMechanism rvof(solver);
  const sim::ClosedLoopResult rt = sim::run_closed_loop(tvof, model, cfg, seed);
  const sim::ClosedLoopResult rr = sim::run_closed_loop(rvof, model, cfg, seed);
  std::printf("%-6s %-20s %-20s\n", "", "TVOF", "RVOF");
  std::printf("%-6s %-20.3f %-20.3f\n", "compl", rt.completion_rate,
              rr.completion_rate);
  std::printf("%-6s %-20.2f %-20.2f\n", "share", rt.mean_realized_share,
              rr.mean_realized_share);
  std::printf("\nper-round unreliable-member fraction (TVOF / RVOF):\n");
  for (std::size_t i = 0; i < rt.rounds.size(); i += 2) {
    std::printf("  round %2zu: %.2f / %.2f\n", i,
                rt.rounds[i].unreliable_member_fraction,
                rr.rounds[i].unreliable_member_fraction);
  }
  return 0;
}

int cmd_multi(int argc, char** argv) {
  sim::MultiProgramConfig cfg;
  cfg.programs =
      std::strtoul(opt(argc, argv, "--programs", "25"), nullptr, 10);
  cfg.gen.params.num_gsps = 16;
  const std::uint64_t seed =
      std::strtoull(opt(argc, argv, "--seed", "42"), nullptr, 10);
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const sim::MultiProgramResult r = sim::run_multi_program(tvof, cfg, seed);
  std::printf("admission rate:   %.3f\n", r.admission_rate);
  std::printf("mean utilization: %.3f\n", r.mean_utilization);
  std::printf("total value:      %.1f\n", r.total_value);
  for (const auto& o : r.outcomes) {
    std::printf("  #%-3zu t=%-10.0f free=%-2zu %s", o.index, o.arrival_time,
                o.available_gsps, o.admitted ? "VO {" : "refused\n");
    if (o.admitted) {
      for (const std::size_t g : o.vo.members()) std::printf(" G%zu", g);
      std::printf(" }\n");
    }
  }
  return 0;
}

int cmd_form(int argc, char** argv) {
  if (argc < 2) return usage();
  const trace::Trace t = trace::parse_swf_file(argv[0]);
  const std::size_t tasks = std::strtoul(argv[1], nullptr, 10);
  const std::string mechanism = opt(argc, argv, "--mechanism", "tvof");
  const std::size_t gsps =
      std::strtoul(opt(argc, argv, "--gsps", "16"), nullptr, 10);
  const double trust_p = std::strtod(opt(argc, argv, "--trust-p", "0.1"), nullptr);
  const std::uint64_t seed =
      std::strtoull(opt(argc, argv, "--seed", "42"), nullptr, 10);

  util::Xoshiro256 rng(seed);
  const auto programs = trace::sample_programs(t.jobs, tasks, 1, rng);
  if (programs.empty()) {
    std::fprintf(stderr, "no completed job with %zu processors and >= 2h "
                         "runtime in the trace\n", tasks);
    return 1;
  }
  workload::InstanceGenOptions gopts;
  gopts.params.num_gsps = gsps;
  const workload::GridInstance grid =
      workload::generate_instance(programs.front(), gopts, rng);
  const trust::TrustGraph trust =
      trust::random_trust_graph(gsps, trust_p, rng);

  const ip::BnbAssignmentSolver solver;
  core::MechanismResult r;
  if (mechanism == "rvof") {
    r = core::RvofMechanism(solver).run(core::FormationRequest{grid.assignment, trust, rng});
  } else if (mechanism == "tvof") {
    r = core::TvofMechanism(solver).run(core::FormationRequest{grid.assignment, trust, rng});
  } else {
    std::fprintf(stderr, "unknown --mechanism %s\n", mechanism.c_str());
    return 2;
  }
  if (!r.success) {
    std::printf("no feasible VO\n");
    return 1;
  }
  std::printf("mechanism:       %s\n", mechanism.c_str());
  std::printf("selected VO:    ");
  for (const std::size_t g : r.selected.members()) std::printf(" G%zu", g);
  std::printf("  (%zu of %zu GSPs)\n", r.selected.size(), gsps);
  std::printf("cost / value:    %.2f / %.2f\n", r.cost, r.value);
  std::printf("payoff/member:   %.2f\n", r.payoff_share);
  std::printf("avg reputation:  %.4f\n", r.avg_global_reputation);
  std::printf("iterations:      %zu (%.3f s, %zu B&B nodes)\n",
              r.journal.size(), r.elapsed_seconds, r.stats.nodes);
  return 0;
}

int cmd_faults(int argc, char** argv) {
  const std::size_t gsps =
      std::strtoul(opt(argc, argv, "--gsps", "10"), nullptr, 10);
  const std::size_t tasks =
      std::strtoul(opt(argc, argv, "--tasks", "48"), nullptr, 10);
  const double drop = std::strtod(opt(argc, argv, "--drop", "0.1"), nullptr);
  const double crash = std::strtod(opt(argc, argv, "--crash", "0.1"), nullptr);
  const std::string mechanism = opt(argc, argv, "--mechanism", "tvof");
  const std::uint64_t seed =
      std::strtoull(opt(argc, argv, "--seed", "42"), nullptr, 10);

  // Synthetic Table-I instance: no trace needed for a protocol demo.
  util::Xoshiro256 rng(seed);
  trace::ProgramSpec program;
  program.num_tasks = tasks;
  program.mean_task_runtime = 9000.0;
  workload::InstanceGenOptions gopts;
  gopts.params.num_gsps = gsps;
  const workload::GridInstance grid =
      workload::generate_instance(program, gopts, rng);
  const trust::TrustGraph trust = trust::random_trust_graph(gsps, 0.4, rng);

  sim::ProtocolOptions proto;
  proto.latency.base_seconds = 0.025;
  proto.latency.bytes_per_second = 1.25e7;
  proto.latency.jitter = 0.2;
  proto.report_timeout_seconds = 0.25;
  proto.award_timeout_seconds = 0.15;
  proto.faults.drop_probability = drop;
  proto.faults.straggler_probability = 0.05;
  proto.faults.straggler_multiplier = 4.0;
  proto.faults.seed = seed ^ 0xFA117;
  proto.faults.crashes = sim::gsp_crash_schedule(
      des::random_crash_windows(gsps, crash, 0.2, 0.0, seed ^ 0xC4A5));

  const ip::BnbAssignmentSolver solver;
  sim::DistributedRunResult r;
  if (mechanism == "rvof") {
    r = sim::run_distributed(core::RvofMechanism(solver), grid.assignment,
                             trust, rng, proto);
  } else if (mechanism == "tvof") {
    r = sim::run_distributed(core::TvofMechanism(solver), grid.assignment,
                             trust, rng, proto);
  } else {
    std::fprintf(stderr, "unknown --mechanism %s\n", mechanism.c_str());
    return 2;
  }

  std::printf("mechanism:        %s  (m=%zu, n=%zu, drop=%.2f, crash=%.2f)\n",
              mechanism.c_str(), gsps, tasks, drop, crash);
  if (r.mechanism.success) {
    std::printf("selected VO:     ");
    for (const std::size_t g : r.mechanism.selected.members())
      std::printf(" G%zu", g);
    std::printf("  (%zu of %zu GSPs)\n", r.mechanism.selected.size(), gsps);
    std::printf("cost / value:     %.2f / %.2f\n", r.mechanism.cost,
                r.mechanism.value);
  } else {
    std::printf("formation FAILED (explicitly reported, never silent)\n");
  }
  std::printf("messages:         %zu (%.1f KiB on the wire)\n",
              r.protocol.messages,
              static_cast<double>(r.protocol.bytes) / 1024.0);
  std::printf("report phase:     %.4f s\n", r.protocol.report_phase_seconds);
  std::printf("end-to-end:       %.4f s\n", r.protocol.completion_seconds);
  std::printf("retries:          %zu\n", r.protocol.retries);
  std::printf("timeouts fired:   %zu\n", r.protocol.timeouts_fired);
  std::printf("drops observed:   %zu\n", r.protocol.drops_observed);
  std::printf("repair rounds:    %zu\n", r.protocol.repair_rounds);
  std::printf("degraded quorum:  %s\n",
              r.protocol.degraded_quorum ? "yes" : "no");
  std::printf("formation failed: %s\n",
              r.protocol.formation_failed ? "yes" : "no");
  return r.mechanism.success ? 0 : 1;
}

int cmd_attacks(int argc, char** argv) {
  const std::size_t gsps =
      std::strtoul(opt(argc, argv, "--gsps", "12"), nullptr, 10);
  const std::size_t tasks =
      std::strtoul(opt(argc, argv, "--tasks", "36"), nullptr, 10);
  const std::uint64_t seed =
      std::strtoull(opt(argc, argv, "--seed", "42"), nullptr, 10);

  trust::AttackScenario attack;
  attack.type =
      trust::attack_type_from_string(opt(argc, argv, "--attack", "collusion"));
  attack.attacker_fraction =
      std::strtod(opt(argc, argv, "--fraction", "0.3"), nullptr);
  attack.intensity =
      std::strtod(opt(argc, argv, "--intensity", "0.9"), nullptr);
  attack.seed = seed ^ 0xA77AC;

  sim::AdversarialLoopConfig cfg;
  cfg.loop.rounds =
      std::strtoul(opt(argc, argv, "--rounds", "10"), nullptr, 10);
  cfg.loop.num_tasks = tasks;
  cfg.loop.gen.params.num_gsps = gsps;
  cfg.loop.gen.params.payment_factor_lo = 0.8;
  cfg.loop.gen.params.payment_factor_hi = 1.2;
  cfg.attack = attack;

  // Honest GSPs reliable, attackers poor; honest raters start informed.
  util::Xoshiro256 pop(seed ^ 0x9090);
  const sim::ReliabilityModel model =
      sim::ReliabilityModel::bimodal(gsps, 1.0, 0.9, 0.3, pop);
  std::vector<double> effective = model.thetas();
  const trust::AttackInjector preview(attack, gsps);
  for (const std::size_t a : preview.attackers()) {
    effective[a] = cfg.attacker_theta;
  }
  trust::TrustGraph initial(gsps);
  for (std::size_t i = 0; i < gsps; ++i) {
    for (std::size_t j = 0; j < gsps; ++j) {
      if (i == j || pop.uniform() > 0.85) continue;
      const double noisy = 0.1 + 0.75 * effective[j] + 0.15 * pop.uniform();
      initial.set_trust(i, j, std::min(1.0, std::max(0.05, noisy)));
    }
  }
  cfg.initial_trust_graph = initial;

  ip::BnbOptions bnb;
  bnb.max_nodes = 4000;
  const ip::BnbAssignmentSolver solver(bnb);
  const core::MechanismConfig mech_cfg;

  cfg.defenses.enabled = false;
  const sim::AdversarialLoopResult literal = sim::run_adversarial_loop(
      sim::MechanismKind::Tvof, solver, mech_cfg, model, cfg, seed);
  cfg.defenses.enabled = true;
  const sim::AdversarialLoopResult robust = sim::run_adversarial_loop(
      sim::MechanismKind::Tvof, solver, mech_cfg, model, cfg, seed);

  std::printf("attack:            %s (fraction %.2f, intensity %.2f)\n",
              trust::to_string(attack.type), attack.attacker_fraction,
              attack.intensity);
  std::printf("attackers:        ");
  for (const std::size_t a : literal.attackers) std::printf(" G%zu", a);
  std::printf("\n\n%-22s %-14s %-14s\n", "", "TVOF-literal", "TVOF-robust");
  std::printf("%-22s %-14.3f %-14.3f\n", "completion rate",
              literal.completion_rate, robust.completion_rate);
  std::printf("%-22s %-14.2f %-14.2f\n", "mean realized share",
              literal.mean_realized_share, robust.mean_realized_share);
  std::printf("%-22s %-14.3f %-14.3f\n", "mean rank corruption",
              literal.mean_rank_corruption, robust.mean_rank_corruption);
  std::printf("\nper-round attacker share of the selected VO "
              "(literal / robust):\n");
  for (std::size_t i = 0; i < literal.rounds.size(); ++i) {
    std::printf("  round %2zu: %.2f / %.2f%s\n", i,
                literal.rounds[i].attacker_selected_fraction,
                robust.rounds[i].attacker_selected_fraction,
                literal.rounds[i].attack_active ? "" : "  (attack dormant)");
  }
  return 0;
}

int cmd_stream(int argc, char** argv) {
  sim::StreamOptions opts;
  opts.base.gen.params.num_gsps =
      std::strtoul(opt(argc, argv, "--gsps", "8"), nullptr, 10);
  opts.base.seed = std::strtoull(opt(argc, argv, "--seed", "42"), nullptr, 10);
  opts.base.task_sizes = {24, 48, 96};
  opts.base.trace.num_jobs = 6000;
  opts.base.trace.canonical_sizes = {24, 48, 96};
  opts.base.trace.min_jobs_per_canonical_size = 8;
  opts.base.solver.max_nodes = 4000;
  opts.num_requests =
      std::strtoul(opt(argc, argv, "--requests", "24"), nullptr, 10);
  opts.arrival_interval_seconds =
      std::strtod(opt(argc, argv, "--interval", "60"), nullptr);
  if (const char* deadline = opt(argc, argv, "--deadline", nullptr)) {
    opts.formation_deadline_seconds = std::strtod(deadline, nullptr);
  }
  opts.admission_floor =
      std::strtoul(opt(argc, argv, "--floor", "1"), nullptr, 10);
  opts.execution_time_scale = 0.01;
  opts.churn.leave_rate =
      std::strtod(opt(argc, argv, "--leave-rate", "0"), nullptr);
  opts.churn.crash_rate =
      std::strtod(opt(argc, argv, "--crash-rate", "0"), nullptr);
  opts.churn.mean_absence_seconds =
      std::strtod(opt(argc, argv, "--absence", "600"), nullptr);
  opts.churn.seed = opts.base.seed ^ 0xC1124;
  const char* mechanism = opt(argc, argv, "--mechanism", "tvof");
  if (std::strcmp(mechanism, "rvof") == 0) {
    opts.mechanism = sim::MechanismKind::Rvof;
  } else if (std::strcmp(mechanism, "tvof") != 0) {
    std::fprintf(stderr, "unknown --mechanism %s\n", mechanism);
    return 2;
  }
  const char* ingest = opt(argc, argv, "--ingest", "sweep");
  if (std::strcmp(ingest, "atlas") == 0) {
    opts.ingest = sim::StreamOptions::Ingest::StreamingAtlas;
  } else if (std::strcmp(ingest, "sweep") != 0) {
    std::fprintf(stderr, "unknown --ingest %s\n", ingest);
    return 2;
  }
  const double stats_every =
      std::strtod(opt(argc, argv, "--stats-every", "0"), nullptr);
  if (stats_every > 0.0) {
    opts.stats_window_seconds = stats_every;
    // Default objectives over the stream.* window metrics: commit
    // latency p99 inside ten arrival intervals, and at most a quarter
    // of arriving requests shed or timed out per window.
    obs::SloObjective latency;
    latency.name = "commit_latency_p99";
    latency.kind = obs::SloKind::QuantileBelow;
    latency.metric = "stream.formation_latency_s";
    latency.quantile = 0.99;
    latency.threshold = 10.0 * opts.arrival_interval_seconds;
    obs::SloObjective rejects;
    rejects.name = "reject_rate";
    rejects.kind = obs::SloKind::RatioBelow;
    rejects.metric = "stream.request_shed";
    rejects.denominator = "stream.request_arrival";
    rejects.threshold = 0.25;
    opts.slos = {latency, rejects};
  }

  const sim::StreamEngine engine(opts);
  const sim::StreamResult result = engine.run();

  std::printf("requests admitted:   %zu\n", result.admitted);
  std::printf("completed/repaired:  %zu / %zu\n", result.completed,
              result.repaired);
  std::printf("shed/timed-out:      %zu / %zu\n", result.shed,
              result.timed_out);
  std::printf("completion rate:     %.3f\n", result.completion_rate);
  std::printf("deadline-miss rate:  %.3f\n", result.deadline_miss_rate);
  std::printf("realized value:      %.2f\n", result.total_realized_value);
  std::printf("formation latency:   mean %.2f s, p99 %.2f s (virtual)\n",
              result.mean_formation_latency, result.p99_formation_latency);
  std::printf("churn events:        %zu, quarantined rejoins: %zu\n",
              result.churn_schedule.size(),
              result.quarantine_activations.size());
  std::printf("virtual horizon:     %.1f s\n", result.horizon);
  if (result.lost > 0) {
    std::printf("LOST REQUESTS:       %zu (invariant violation!)\n",
                result.lost);
  }
  if (!result.windows.empty()) {
    std::printf("\n%-6s %-18s %8s %8s %8s %6s %6s %12s\n", "window",
                "span (virtual s)", "arrivals", "commits", "timeout",
                "crash", "live", "p99 lat (s)");
    for (const obs::Window& w : result.windows) {
      const obs::Histogram::Snapshot lat =
          w.histogram("stream.formation_latency_s");
      std::printf("%-6llu [%7.1f,%7.1f) %8llu %8llu %8llu %6llu %6.0f %12.2f\n",
                  static_cast<unsigned long long>(w.index), w.start_time,
                  w.end_time,
                  static_cast<unsigned long long>(
                      w.counter("stream.request_arrival")),
                  static_cast<unsigned long long>(
                      w.counter("stream.formation_commit")),
                  static_cast<unsigned long long>(
                      w.counter("stream.request_timed_out")),
                  static_cast<unsigned long long>(
                      w.counter("stream.gsp_crashed")),
                  w.gauge("stream.live"),
                  lat.count > 0 ? lat.quantile(0.99) : 0.0);
    }
    for (const obs::SloStatus& s : result.slo_status) {
      std::printf("slo %-20s %llu/%llu windows violated, budget %.2f, "
                  "burn fast %.2f / slow %.2f -> %s\n",
                  s.name.c_str(),
                  static_cast<unsigned long long>(s.violations),
                  static_cast<unsigned long long>(s.windows),
                  s.budget_consumed, s.fast_burn, s.slow_burn,
                  s.breached ? "BREACHED" : "ok");
    }
  }
  bool timeline = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--timeline") == 0) timeline = true;
  }
  if (timeline) {
    std::printf("\n%-12s %-22s %-8s %s\n", "time", "event", "request", "gsp");
    for (const sim::StreamLogEntry& e : result.timeline) {
      std::printf("%-12.2f %-22s %-8s %s\n", e.time, to_string(e.kind),
                  e.request == SIZE_MAX ? "-" : std::to_string(e.request).c_str(),
                  e.gsp == SIZE_MAX ? "-" : std::to_string(e.gsp).c_str());
    }
  }
  return result.lost == 0 ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  const std::size_t gsps =
      std::strtoul(opt(argc, argv, "--gsps", "8"), nullptr, 10);
  const std::size_t tasks =
      std::strtoul(opt(argc, argv, "--tasks", "24"), nullptr, 10);
  const std::size_t requests =
      std::strtoul(opt(argc, argv, "--requests", "64"), nullptr, 10);
  const std::uint64_t seed =
      std::strtoull(opt(argc, argv, "--seed", "42"), nullptr, 10);

  svc::ServiceOptions sopt;
  sopt.shards = std::strtoul(opt(argc, argv, "--shards", "4"), nullptr, 10);
  sopt.threads = std::strtoul(opt(argc, argv, "--threads", "0"), nullptr, 10);
  sopt.batch_size = std::strtoul(opt(argc, argv, "--batch", "8"), nullptr, 10);
  sopt.queue_capacity =
      std::strtoul(opt(argc, argv, "--capacity", "0"), nullptr, 10);
  if (sopt.queue_capacity == 0) {
    sopt.queue_capacity = std::max<std::size_t>(requests, sopt.batch_size);
  }
  bool chaos = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--defer") == 0) {
      sopt.overload = svc::OverloadPolicy::Defer;
    }
    if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
  }
  if (chaos) {
    // The soak bench's mix: mostly-transient solver failures plus a
    // sprinkle of poison, shard kills and stragglers, seeded so the run
    // replays identically (fault_plan.hpp).
    svc::ChaosProfile profile;
    profile.solver_fault_rate = 0.15;
    profile.poison_rate = 0.05;
    profile.abort_rate = 0.05;
    profile.stall_rate = 0.05;
    profile.stall_seconds = 0.0002;
    sopt.faults = svc::random_fault_plan(seed ^ 0xC4A05ULL, requests, profile);
    sopt.retry_backoff_base_seconds = 0.0001;
    sopt.retry_backoff_cap_seconds = 0.001;
  }
  // Scheduling fields ride on every request of the burst; submit()'s
  // typed InvalidArgument (bad deadline / oversized retry budget)
  // surfaces through main()'s catch as a CLI error.
  const double deadline = std::strtod(
      opt(argc, argv, "--deadline", "inf"), nullptr);
  const long priority = std::strtol(
      opt(argc, argv, "--priority", "0"), nullptr, 10);
  const unsigned long retries = std::strtoul(
      opt(argc, argv, "--retries", chaos ? "3" : "0"), nullptr, 10);

  const double stats_every =
      std::strtod(opt(argc, argv, "--stats-every", "0"), nullptr);
  if (stats_every > 0.0) {
    sopt.stats_window_seconds = stats_every;
    if (const char* jsonl = opt(argc, argv, "--stats-jsonl", nullptr)) {
      sopt.stats_jsonl_path = jsonl;
    }
    // Default objectives: queue p99 under half a second, at most a
    // fifth of attempts failing, and nothing expiring in queue.
    obs::SloObjective queue_p99;
    queue_p99.name = "queue_p99_us";
    queue_p99.kind = obs::SloKind::QuantileBelow;
    queue_p99.metric = "svc.queue_us";
    queue_p99.quantile = 0.99;
    queue_p99.threshold = 500000.0;
    obs::SloObjective failure_rate;
    failure_rate.name = "failure_rate";
    failure_rate.kind = obs::SloKind::RatioBelow;
    failure_rate.metric = "svc.failed";
    failure_rate.denominator = "svc.solver_runs";
    failure_rate.threshold = 0.2;
    obs::SloObjective expired;
    expired.name = "expired";
    expired.kind = obs::SloKind::CounterZero;
    expired.metric = "svc.expired";
    sopt.slos = {queue_p99, failure_rate, expired};
  }

  // Small pool of synthetic Table-I instances (no trace needed): a burst
  // of requests over a few distinct markets, like the throughput bench.
  constexpr std::size_t kPool = 4;
  util::Xoshiro256 pool_rng(seed);
  std::vector<workload::GridInstance> grids;
  std::vector<trust::TrustGraph> trusts;
  for (std::size_t p = 0; p < kPool; ++p) {
    trace::ProgramSpec program;
    program.num_tasks = tasks;
    program.mean_task_runtime = 9000.0;
    workload::InstanceGenOptions gopts;
    gopts.params.num_gsps = gsps;
    grids.push_back(workload::generate_instance(program, gopts, pool_rng));
    trusts.push_back(trust::random_trust_graph(gsps, 0.4, pool_rng));
  }

  ip::BnbOptions bnb;
  bnb.max_nodes = 4000;
  const ip::BnbAssignmentSolver solver(bnb);
  const core::TvofMechanism tvof(solver);
  svc::FormationService service(tvof, sopt);

  std::vector<svc::RequestHandle> handles;
  handles.reserve(requests);
  svc::SubmitOptions submit;
  submit.deadline_seconds = deadline;
  submit.priority = static_cast<std::int32_t>(priority);
  submit.max_retries = static_cast<std::uint32_t>(
      std::min<unsigned long>(retries, 0xFFFFFFFFul));
  const util::WallTimer timer;
  for (std::size_t i = 0; i < requests; ++i) {
    util::Xoshiro256 rng(seed ^ (0x9E3779B97F4A7C15ULL * (i + 1)));
    handles.push_back(service.submit(
        core::FormationRequest{grids[i % kPool].assignment, trusts[i % kPool],
                               rng},
        submit));
  }
  if (stats_every > 0.0) {
    // Live windowed health table while the burst drains: poll health()
    // once per window instead of blocking in drain().
    std::printf("%-8s %-8s %-6s %-6s %10s %10s %-6s %s\n", "wall s",
                "windows", "outst", "depth", "q p99 us", "s p99 us", "over",
                "slo");
    const auto print_row = [&service](double now) {
      svc::ServiceHealth h = service.health();
      std::size_t depth = 0;
      for (const svc::ShardHealth& sh : h.shards) depth += sh.queue_depth;
      std::size_t breached = 0;
      for (const obs::SloStatus& s : h.slos) breached += s.breached ? 1 : 0;
      std::printf("%-8.2f %-8llu %-6llu %-6zu %10.0f %10.0f %-6s "
                  "%zu/%zu breached\n",
                  now, static_cast<unsigned long long>(h.windows_closed),
                  static_cast<unsigned long long>(h.outstanding), depth,
                  h.queue_p99_us, h.solve_p99_us,
                  h.overloaded ? "YES" : "no", breached, h.slos.size());
    };
    while (true) {
      print_row(timer.seconds());
      bool all_done = true;
      for (const svc::RequestHandle& h : handles) {
        if (!h.done()) {
          all_done = false;
          break;
        }
      }
      if (all_done) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(stats_every));
    }
  }
  service.drain();
  const double elapsed = timer.seconds();
  const svc::ServiceStats stats = service.stats();
  std::size_t lost = 0;
  for (const svc::RequestHandle& h : handles) {
    if (!h.done()) ++lost;  // the no-lost-request invariant: always 0
  }

  std::printf("service:          %zu shard(s), %zu thread(s), batch %zu, "
              "capacity %zu/shard, %s on overload\n",
              sopt.shards, sopt.threads == 0 ? sopt.shards : sopt.threads,
              sopt.batch_size, sopt.queue_capacity,
              sopt.overload == svc::OverloadPolicy::Shed ? "shed" : "defer");
  std::printf("requests:         %zu over %zu instances (m=%zu, n=%zu)\n",
              requests, kPool, gsps, tasks);
  std::printf("admitted:         %llu\n",
              static_cast<unsigned long long>(stats.submitted));
  std::printf("completed:        %llu (%llu solver runs, %llu ticks)\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.solver_runs),
              static_cast<unsigned long long>(stats.ticks));
  std::printf("shed / deferred:  %llu / %llu\n",
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.deferred));
  if (chaos || stats.retries + stats.expired + stats.failed + stats.restarts >
                   0) {
    std::printf("chaos:            %llu retries, %llu failed, %llu expired, "
                "%llu shard restarts (%llu aborts, %llu stalls)\n",
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.expired),
                static_cast<unsigned long long>(stats.restarts),
                static_cast<unsigned long long>(stats.tick_aborts),
                static_cast<unsigned long long>(stats.stalls));
  }
  if (lost > 0) {
    std::printf("LOST REQUESTS:    %zu (invariant violation!)\n", lost);
  }
  std::printf("throughput:       %.1f requests/s (%.3f s wall)\n",
              elapsed > 0.0 ? static_cast<double>(requests) / elapsed : 0.0,
              elapsed);
  std::printf("queue latency:    p50 %.0f us, p99 %.0f us\n",
              stats.queue_p50_us, stats.queue_p99_us);
  std::printf("solve latency:    p50 %.0f us, p99 %.0f us\n",
              stats.solve_p50_us, stats.solve_p99_us);
  if (stats_every > 0.0) {
    const svc::ServiceHealth h = service.health();
    std::printf("telemetry:        %llu windows closed (%.2fs each)\n",
                static_cast<unsigned long long>(h.windows_closed),
                stats_every);
    for (const obs::SloStatus& s : h.slos) {
      std::printf("slo %-16s %llu/%llu windows violated, budget %.2f -> %s\n",
                  s.name.c_str(),
                  static_cast<unsigned long long>(s.violations),
                  static_cast<unsigned long long>(s.windows),
                  s.budget_consumed, s.breached ? "BREACHED" : "ok");
    }
  }
  for (const svc::RequestHandle& h : handles) {
    if (h.poll() != svc::TicketState::Done) continue;
    const svc::RequestOutcome& out = h.outcome();
    if (!out.result.success) continue;
    std::printf("sample (ticket %llu, shard %zu): VO {",
                static_cast<unsigned long long>(out.ticket), out.shard);
    for (const std::size_t g : out.result.selected.members())
      std::printf(" G%zu", g);
    std::printf(" }  payoff/member %.2f\n", out.result.payoff_share);
    break;
  }
  return (stats.completed > 0 && lost == 0) ? 0 : 1;
}

int cmd_trace_report(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::vector<obs::TraceEvent> events =
      obs::analysis::load_trace_file(argv[0]);
  obs::analysis::ReportOptions opts;
  opts.top_k = std::strtoul(opt(argc, argv, "--top", "12"), nullptr, 10);
  obs::analysis::write_text_report(std::cout, events, opts);
  if (const char* collapsed = opt(argc, argv, "--collapsed", nullptr)) {
    std::ofstream out(collapsed);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", collapsed);
      return 1;
    }
    for (const auto& [stack, self_us] :
         obs::analysis::collapsed_stacks(events)) {
      out << stack << ' ' << self_us << '\n';
    }
    std::printf("\ncollapsed stacks written to %s "
                "(flamegraph.pl / speedscope input)\n",
                collapsed);
  }
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  sim::ExperimentConfig cfg;
  cfg.repetitions =
      std::strtoul(opt(argc, argv, "--reps", "10"), nullptr, 10);
  cfg.seed = std::strtoull(opt(argc, argv, "--seed", "20120910"), nullptr, 10);
  if (const char* sizes = opt(argc, argv, "--sizes", nullptr)) {
    // Strict shared parser (util/env.hpp) — same as the bench harnesses'
    // SVO_SIZES; a CLI typo should fail loudly, not silently fall back.
    const auto parsed = util::parse_size_list(sizes);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "invalid --sizes \"%s\" (want e.g. 256,1024)\n",
                   sizes);
      return 2;
    }
    cfg.task_sizes = *parsed;
  }
  cfg.solver.max_nodes = 20'000;
  const sim::ExperimentRunner runner(cfg);
  const sim::SweepResult sweep = runner.run_sweep();

  util::Table table({"tasks", "TVOF payoff", "RVOF payoff", "TVOF |C|",
                     "RVOF |C|", "TVOF rep", "RVOF rep", "TVOF s", "RVOF s"});
  table.set_precision(4);
  for (const auto& p : sweep.points) {
    table.add_row({static_cast<long long>(p.num_tasks),
                   p.tvof.payoff.mean(), p.rvof.payoff.mean(),
                   p.tvof.vo_size.mean(), p.rvof.vo_size.mean(),
                   p.tvof.avg_reputation.mean(), p.rvof.avg_reputation.mean(),
                   p.tvof.exec_seconds.mean(), p.rvof.exec_seconds.mean()});
  }
  table.write_pretty(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Hoist the global --trace option out of argv *before* subcommand
  // dispatch so positional arguments stay aligned for every command.
  std::string trace_path;
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    if (std::strcmp(*it, "--trace") == 0 && it + 1 != args.end()) {
      trace_path = *(it + 1);
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  std::optional<svo::obs::TraceSession> trace_session;
  if (trace_path.empty()) {
    trace_session.emplace();  // env-driven: SVO_TRACE / SVO_METRICS
  } else {
    trace_session.emplace(trace_path);
  }

  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "trace-gen") return cmd_trace_gen(argc - 2, argv + 2);
    if (cmd == "trace-stats") return cmd_trace_stats(argc - 2, argv + 2);
    if (cmd == "form") return cmd_form(argc - 2, argv + 2);
    if (cmd == "sweep") return cmd_sweep(argc - 2, argv + 2);
    if (cmd == "closed-loop") return cmd_closed_loop(argc - 2, argv + 2);
    if (cmd == "multi") return cmd_multi(argc - 2, argv + 2);
    if (cmd == "faults") return cmd_faults(argc - 2, argv + 2);
    if (cmd == "attacks") return cmd_attacks(argc - 2, argv + 2);
    if (cmd == "stream") return cmd_stream(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
    if (cmd == "trace-report") return cmd_trace_report(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
