/// \file stream_churn.cpp
/// stream_churn — closed loop, one thread: sim::StreamEngine runs in
/// virtual time under leave/crash/rejoin churn, with robust reputation
/// and re-entry quarantine on and repair over survivors. Set-up builds
/// kEngines engines, each from its own seed-derived 4000-job trace and
/// stream of 12 requests over 8 GSPs (n in {24, 48}, 4k-node budget);
/// operation i replays engine i % kEngines, and a pass stops only after
/// whole rounds over the engines. The first round is the work unit.
///
/// The engine builds its solver and mechanism itself, so the traced pass
/// can time only StreamEngine::run; the sim.* counts come from its
/// result (timeline, churn schedule, attempts and repairs).
#include <memory>

#include "harness.hpp"
#include "sim/stream_engine.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kEngines = 256;
constexpr std::size_t kWarmupRuns = 16;
constexpr std::size_t kRequests = 12;
constexpr std::size_t kGsps = 8;

svo::sim::StreamOptions stream_options(std::uint64_t seed) {
  svo::sim::StreamOptions opts;
  opts.base.seed = seed;
  opts.base.gen.params.num_gsps = kGsps;
  opts.base.task_sizes = {24, 48};
  opts.base.trace.num_jobs = 4000;
  opts.base.trace.canonical_sizes = {24, 48};
  opts.base.trace.min_jobs_per_canonical_size = 8;
  opts.base.solver.max_nodes = 4000;
  opts.base.mechanism.reputation.robust.enabled = true;
  opts.num_requests = kRequests;
  opts.arrival_interval_seconds = 60.0;
  opts.formation_deadline_seconds = 300.0;
  opts.formation_seconds = 2.0;
  opts.retry_backoff_seconds = 20.0;
  opts.max_attempts = 5;
  opts.admission_floor = 2;
  opts.execution_time_scale = 0.02;
  // Per GSP, one departure per 600 virtual seconds and one crash per
  // 900, most providers coming back (bench_extension_churn's "light"
  // level; at its "moderate" one 4 in 5 requests miss their deadline).
  opts.churn.leave_rate = 1.0 / 600.0;
  opts.churn.crash_rate = 1.0 / 900.0;
  opts.churn.mean_absence_seconds = 150.0;
  opts.churn.rejoin_probability = 0.9;
  opts.churn.seed = seed ^ 0xC1124;
  return opts;
}

struct Setup {
  std::vector<std::unique_ptr<svo::sim::StreamEngine>> engines;
  double synth_ms = 0.0;  ///< engine construction (trace synthesis), all engines
};

void build(const Args& args, Setup& s) {
  for (std::size_t e = 0; e < kEngines; ++e) {
    const Clock::time_point t0 = Clock::now();
    s.engines.push_back(std::make_unique<svo::sim::StreamEngine>(
        stream_options(sub_seed(args.seed, 0x57E0 + e))));
    s.synth_ms += seconds_between(t0, Clock::now()) * 1e3;
  }
  for (std::size_t e = 0; e < kWarmupRuns; ++e) (void)s.engines[e]->run();  // untimed warm-up
}

struct OpRecord {
  double ms = 0.0;
  std::size_t requests = 0;
  std::size_t events = 0;
  std::size_t formations = 0;
  std::size_t churn_events = 0;
};

struct Pass {
  std::vector<OpRecord> ops;
  std::vector<svo::sim::StreamResult> unit;  ///< first round over the engines
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

OpRecord record_of(const svo::sim::StreamResult& r, double ms) {
  OpRecord op;
  op.ms = ms;
  op.requests = r.requests.size();
  op.events = r.timeline.size();
  for (const svo::sim::StreamRequestResult& q : r.requests) {
    op.formations += q.attempts + q.repair_rounds;
  }
  op.churn_events = r.churn_schedule.size();
  return op;
}

Pass run_pass(const Setup& s, double seconds, Report& report) {
  Pass pass;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i % kEngines == 0 && i >= kEngines && seconds_between(t0, Clock::now()) >= seconds) {
      break;
    }
    const Clock::time_point a = Clock::now();
    svo::sim::StreamResult r = s.engines[i % kEngines]->run();
    pass.ops.push_back(record_of(r, seconds_between(a, Clock::now()) * 1e3));
    if (r.lost != 0) {
      report.fail("stream_churn run " + std::to_string(i) + " lost " +
                  std::to_string(r.lost) + " requests");
    }
    if (i < kEngines) {
      pass.unit.push_back(std::move(r));
    } else if (r.timeline != pass.unit[i % kEngines].timeline) {
      report.fail("stream_churn run " + std::to_string(i) + " does not replay its first run");
    }
  }
  pass.wall_s = seconds_between(t0, Clock::now());
  pass.cpu_s = cpu_seconds() - cpu0;
  return pass;
}

WorkCounts work_of(const Pass& pass) {
  WorkCounts w{{"sim.events", 0.0}, {"sim.formations", 0.0}, {"sim.churn_events", 0.0}};
  for (std::size_t i = 0; i < pass.unit.size(); ++i) {
    const OpRecord op = record_of(pass.unit[i], 0.0);
    w["sim.events"] += static_cast<double>(op.events);
    w["sim.formations"] += static_cast<double>(op.formations);
    w["sim.churn_events"] += static_cast<double>(op.churn_events);
  }
  return w;
}

}  // namespace

void run_stream_churn(const Args& args, Report& report) {
  Setup s;
  std::vector<double> synth_ms;
  const double setup_s = timed_setups(kSetupRepeats, s, [&](Setup& out) {
    build(args, out);
    synth_ms.push_back(out.synth_ms);
  });

  const Pass plain = run_pass(s, args.seconds, report);
  const WorkCounts work = work_of(plain);
  print_work("untraced", work);

  double requests = 0.0;
  double delivered = 0.0;
  std::vector<double> latency;
  std::vector<double> payoff;
  for (const OpRecord& op : plain.ops) {
    requests += static_cast<double>(op.requests);
    latency.push_back(op.ms);
  }
  double unit_requests = 0.0;
  std::size_t outcomes[4] = {0, 0, 0, 0};  // completed, repaired, shed, timed out
  for (const svo::sim::StreamResult& r : plain.unit) {
    outcomes[0] += r.completed;
    outcomes[1] += r.repaired;
    outcomes[2] += r.shed;
    outcomes[3] += r.timed_out;
    unit_requests += static_cast<double>(r.requests.size());
    delivered += static_cast<double>(r.completed + r.repaired);
    for (const svo::sim::StreamRequestResult& q : r.requests) {
      if (q.outcome != svo::sim::RequestOutcome::Completed &&
          q.outcome != svo::sim::RequestOutcome::Repaired) {
        continue;
      }
      const svo::core::MechanismResult& f = q.formation;
      const double payment = f.value + f.cost;  // v(C) = P - C(T, C)
      payoff.push_back(q.realized_value / static_cast<double>(f.selected.size()) / payment);
    }
  }
  std::fprintf(stderr,
               "perfbench: stream outcomes completed=%zu repaired=%zu shed=%zu "
               "timed_out=%zu\n",
               outcomes[0], outcomes[1], outcomes[2], outcomes[3]);
  const double ops = static_cast<double>(plain.ops.size());
  report.attempted = plain.ops.size();
  report.set("setup_s", setup_s);
  report.set("throughput_per_s", requests / plain.wall_s);
  report.set("latency_ms_p50", percentile(latency, 0.50));
  report.set("latency_ms_p95", percentile(latency, 0.95));
  report.set("cpu_ms_per_op", plain.cpu_s * 1e3 / ops);
  report.set("success_ratio", delivered / unit_requests);
  report.set("vo_payoff_ratio", trimmed_mean(payoff, kPayoffTrim));
  report.set("trace.synth_ms", median(synth_ms));
  if (!args.trace) {
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Traced pass: StreamEngine::run is the only entry point this layer
  // offers from outside, and the plain pass already times it; the
  // traced pass repeats it so the overhead and counts are comparable.
  const Pass tp = run_pass(s, args.seconds, report);
  const WorkCounts traced_work = work_of(tp);
  print_work("traced", traced_work);
  compare_work(work, traced_work, report);
  report.attempted += tp.ops.size();

  double run_ms = 0.0;
  double events = 0.0;
  double formations = 0.0;
  for (const OpRecord& op : tp.ops) {
    run_ms += op.ms;
    events += static_cast<double>(op.events);
    formations += static_cast<double>(op.formations);
  }
  for (const auto& [name, value] : traced_work) report.set(name, value);
  report.set("sim.ms_per_formation", formations > 0.0 ? run_ms / formations : 0.0);
  report.set("sim.us_per_event", events > 0.0 ? run_ms * 1e3 / events : 0.0);
  const double plain_rate = ops / plain.cpu_s;
  const double traced_rate = static_cast<double>(tp.ops.size()) / tp.cpu_s;
  report.set("bench.tracing_overhead", traced_rate / plain_rate);
}

}  // namespace perfbench
