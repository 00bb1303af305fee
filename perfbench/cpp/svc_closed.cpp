/// \file svc_closed.cpp
/// svc_closed — closed loop: one generator thread keeps kInFlight
/// requests outstanding in an svc::FormationService with 3 shards on 3
/// worker threads (4 threads in all), submitting the next request as
/// soon as the oldest one is Done. Requests are small (m = 8 GSPs,
/// n in {24, 48} tasks, 2k-node B&B budget) over a fixed pool of 256
/// scenarios built from a full-size synthetic Atlas trace; request i is
/// a pure function of (seed, i). The service runs saturated, so
/// throughput is its capacity and latency (submit to Done) is queue wait
/// plus solve: admission, tick dispatch and shared-metric contention
/// show in both.
///
/// Why not an open loop: on a shared VM an idle worker's CPU halts and
/// is woken through a busy hypervisor. At a fixed Poisson rate every
/// request paid that wake-up, and p50 moved 2x and p95 5x between runs
/// of one seed. Saturated workers never go idle.
///
/// With 4 CPUs or more the shard workers share the first 3 allowed CPUs
/// and the generator has the next one to itself, where it spins on the
/// oldest ticket instead of sleeping; its CPU time is left out of
/// cpu_ms_per_op. The first kUnitRequests requests are the work unit.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#else
#include <thread>
#endif

#include "core/tvof.hpp"
#include "harness.hpp"
#include "ip/bnb.hpp"
#include "sim/scenario.hpp"
#include "svc/service.hpp"

namespace perfbench {

namespace {

using svo::svc::RequestOutcome;

constexpr std::size_t kGsps = 8;
constexpr std::size_t kSizes[] = {24, 48};
constexpr std::size_t kPoolPerSize = 128;
constexpr std::size_t kNodeBudget = 2'000;
constexpr std::size_t kShards = 3;
/// Requests outstanding: 16 per shard, about 3 ms of queued work per
/// worker, so a generator descheduled for a few ms leaves no worker idle.
constexpr std::size_t kInFlight = 48;
/// A request Done later than this after its submission is a miss.
constexpr double kLatencyLimitMs = 25.0;
constexpr std::size_t kUnitRequests = 16'384;
/// Every this-many-th ticket of the work unit is re-run directly.
constexpr std::size_t kSampleEvery = 97;
constexpr std::size_t kWarmupRequests = 1024;
/// Throughput and latency percentiles are medians over windows of this
/// many seconds of run time.
constexpr double kWindowS = 1.0;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

struct Request {
  std::size_t scenario = 0;
  std::uint64_t rng_seed = 0;
};

struct Setup {
  std::unique_ptr<svo::sim::ScenarioFactory> factory;
  std::vector<svo::sim::Scenario> pool;
  std::unique_ptr<svo::ip::BnbAssignmentSolver> solver;
  std::unique_ptr<svo::core::TvofMechanism> mechanism;
  std::unique_ptr<svo::svc::FormationService> service;
  std::uint64_t request_seed = 0;
  double synth_ms = 0.0;
  std::vector<double> scenario_ms;
};

/// Request i of the stream seeded by `seed`.
Request request_at(std::uint64_t seed, std::size_t i, std::size_t pool) {
  svo::util::Xoshiro256 rng(sub_seed(seed, i));
  const std::size_t scenario = rng.index(pool);
  return {scenario, rng()};
}

svo::svc::ServiceOptions service_options() {
  svo::svc::ServiceOptions opt;
  opt.shards = kShards;
  opt.threads = kShards;
  opt.queue_capacity = 1024;  // far above kInFlight: never sheds
  return opt;
}

svo::svc::RequestHandle submit(svo::svc::FormationService& service,
                               const std::vector<svo::sim::Scenario>& pool,
                               const Request& r) {
  const svo::sim::Scenario& s = pool[r.scenario];
  svo::util::Xoshiro256 rng(r.rng_seed);
  return service.submit(svo::core::FormationRequest{s.instance.assignment, s.trust, rng});
}

void warm_up(svo::svc::FormationService& service,
             const std::vector<svo::sim::Scenario>& pool, std::uint64_t seed) {
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    (void)submit(service, pool, request_at(seed ^ 0x5EED, i, pool.size()));
  }
  service.drain();
}

void build(const Args& args, Setup& s) {
  svo::sim::ExperimentConfig cfg;
  cfg.seed = sub_seed(args.seed, 0x5C);
  cfg.gen.params.num_gsps = kGsps;
  cfg.task_sizes.assign(std::begin(kSizes), std::end(kSizes));
  cfg.trace.canonical_sizes.assign(std::begin(kSizes), std::end(kSizes));
  cfg.trace.min_jobs_per_canonical_size = kPoolPerSize;
  cfg.solver.max_nodes = kNodeBudget;
  const Clock::time_point t0 = Clock::now();
  s.factory = std::make_unique<svo::sim::ScenarioFactory>(cfg);
  s.synth_ms = seconds_between(t0, Clock::now()) * 1e3;
  for (std::size_t rep = 0; rep < kPoolPerSize; ++rep) {
    for (const std::size_t n : kSizes) {
      const Clock::time_point a = Clock::now();
      s.pool.push_back(s.factory->make(n, rep));
      s.scenario_ms.push_back(seconds_between(a, Clock::now()) * 1e3);
    }
  }
  s.request_seed = sub_seed(args.seed, 0xA77);
  s.solver = std::make_unique<svo::ip::BnbAssignmentSolver>(cfg.solver);
  s.mechanism = std::make_unique<svo::core::TvofMechanism>(*s.solver);
  s.service = std::make_unique<svo::svc::FormationService>(*s.mechanism, service_options());
  warm_up(*s.service, s.pool, args.seed);
}

struct Sampled {
  std::size_t index = 0;
  RequestOutcome outcome;
};

/// Whole pass in histograms, whose memory does not grow with its length;
/// the work unit also per request.
struct Pass {
  explicit Pass(double seconds) : windows(seconds, kWindowS) {}

  std::size_t submitted = 0;
  std::size_t done = 0;
  std::size_t within_limit = 0;
  LogHistogram latency_ms;
  WindowedLatency windows;
  /// How late the generator saw a ticket it was waiting for turn Done.
  LogHistogram lag_ms;
  // Work unit only.
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::vector<double> solve_ms;
  std::vector<double> payoff;
  /// In submission order (0 when not Done).
  std::vector<std::uint64_t> nodes;
  std::vector<std::uint64_t> iterations;
  std::vector<Sampled> sample;
  double cpu_s = 0.0;  ///< process CPU time minus the generator's
  double batch_mean = 0.0;
};

Pass run_pass(svo::svc::FormationService& service, const Setup& s, double seconds,
              Report& report) {
  struct InFlight {
    std::size_t index;
    svo::svc::RequestHandle handle;
    Clock::time_point call;
    double submit_us;
  };
  Pass pass(seconds);
  Clock::time_point t0;
  pass.nodes.assign(kUnitRequests, 0);
  pass.iterations.assign(kUnitRequests, 0);
  pass.submit_us.reserve(kUnitRequests);
  pass.queue_ms.reserve(kUnitRequests);
  pass.solve_ms.reserve(kUnitRequests);
  pass.payoff.reserve(kUnitRequests);
  const auto harvest = [&](const InFlight& f, Clock::time_point seen, bool waited) {
    const RequestOutcome& out = f.handle.outcome();
    if (out.state != svo::svc::TicketState::Done) {
      report.fail("svc_closed request " + std::to_string(f.index) + " ended " +
                  svo::svc::to_string(out.state));
      return;
    }
    ++pass.done;
    const double service_ms = (out.queue_seconds + out.solve_seconds) * 1e3;
    const double latency = f.submit_us * 1e-3 + service_ms;
    if (latency <= kLatencyLimitMs) ++pass.within_limit;
    pass.latency_ms.add(latency);
    pass.windows.add(seconds_between(t0, seen), latency);
    if (waited) pass.lag_ms.add(std::max(0.0, seconds_between(f.call, seen) * 1e3 - latency));
    if (f.index >= kUnitRequests) return;
    pass.submit_us.push_back(f.submit_us);
    pass.queue_ms.push_back(out.queue_seconds * 1e3);
    pass.solve_ms.push_back(out.solve_seconds * 1e3);
    pass.nodes[f.index] = out.result.stats.nodes;
    pass.iterations[f.index] = out.result.journal.size();
    if (out.result.success) {
      const Request r = request_at(s.request_seed, f.index, s.pool.size());
      pass.payoff.push_back(out.result.payoff_share / s.pool[r.scenario].instance.assignment.payment);
    }
    if (f.index % kSampleEvery == 0) pass.sample.push_back({f.index, out});
  };

  const svo::svc::ServiceStats before = service.stats();
  std::deque<InFlight> inflight;
  const double cpu0 = cpu_seconds();
  const double generator0 = thread_cpu_seconds();
  t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i >= kUnitRequests && seconds_between(t0, Clock::now()) >= seconds) break;
    if (inflight.size() == kInFlight) {
      bool waited = false;
      while (!inflight.front().handle.done()) {
        waited = true;
        cpu_relax();
      }
      harvest(inflight.front(), Clock::now(), waited);
      inflight.pop_front();
    }
    const Request r = request_at(s.request_seed, i, s.pool.size());
    const Clock::time_point call = Clock::now();
    svo::svc::RequestHandle handle = submit(service, s.pool, r);
    const Clock::time_point ret = Clock::now();
    inflight.push_back({i, std::move(handle), call, seconds_between(call, ret) * 1e6});
    ++pass.submitted;
  }
  for (const InFlight& f : inflight) {
    (void)f.handle.wait();
    harvest(f, Clock::now(), false);
  }
  pass.cpu_s = (cpu_seconds() - cpu0) - (thread_cpu_seconds() - generator0);
  const svo::svc::ServiceStats after = service.stats();
  const double ticks = static_cast<double>(after.ticks - before.ticks);
  pass.batch_mean =
      ticks > 0.0 ? static_cast<double>(after.solver_runs - before.solver_runs) / ticks : 0.0;
  return pass;
}

/// Sampled tickets must equal a direct run from the same RNG state,
/// including one draw from the generator afterwards.
void check(const Setup& s, const Pass& pass, Report& report) {
  for (const Sampled& smp : pass.sample) {
    const Request r = request_at(s.request_seed, smp.index, s.pool.size());
    const svo::sim::Scenario& sc = s.pool[r.scenario];
    svo::util::Xoshiro256 rng(r.rng_seed);
    const svo::core::MechanismResult direct = s.mechanism->run(
        svo::core::FormationRequest{sc.instance.assignment, sc.trust, rng});
    const svo::core::MechanismResult& got = smp.outcome.result;
    bool same = smp.outcome.rng_probe == rng() &&
                direct.selected.bits() == got.selected.bits() &&
                direct.mapping == got.mapping && direct.cost == got.cost &&
                direct.value == got.value && direct.journal.size() == got.journal.size();
    for (std::size_t k = 0; same && k < direct.journal.size(); ++k) {
      same = direct.journal[k].removed_gsp == got.journal[k].removed_gsp;
    }
    if (!same) {
      report.fail("svc_closed ticket " + std::to_string(smp.index) +
                  " differs from a direct run");
    }
  }
}

WorkCounts work_of(const Pass& pass) {
  double nodes = 0.0;
  double iterations = 0.0;
  for (const std::uint64_t n : pass.nodes) nodes += static_cast<double>(n);
  for (const std::uint64_t k : pass.iterations) iterations += static_cast<double>(k);
  return {{"ip.nodes", nodes}, {"ip.solve_calls", iterations}, {"core.iterations", iterations}};
}

/// CPU placement of the shard workers (inherited from the thread that
/// builds a service) and of the generator; empty when too few CPUs.
struct Placement {
  cpu_set_t workers;
  cpu_set_t generator;
  bool pinned = false;
};

Placement placement() {
  Placement p;
  CPU_ZERO(&p.workers);
  CPU_ZERO(&p.generator);
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return p;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < kShards + 1) return p;
  for (std::size_t i = 0; i < kShards; ++i) CPU_SET(cpus[i], &p.workers);
  CPU_SET(cpus[kShards], &p.generator);
  p.pinned = true;
  std::fprintf(stderr, "perfbench: svc workers on CPUs %d-%d, generator on CPU %d\n",
               cpus[0], cpus[kShards - 1], cpus[kShards]);
  return p;
}

void pin(const Placement& p, const cpu_set_t& set) {
  if (p.pinned && sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

/// The generator, not the service, set the pace when it was often late
/// to see a ticket finish by more than half a typical request's wait:
/// the queued work behind the oldest ticket may then have run out.
bool generator_behind(const Pass& pass) {
  const double lag = pass.lag_ms.percentile(0.99);
  const double typical = pass.latency_ms.percentile(0.50);
  const bool behind = lag > 0.5 * typical;
  if (behind) {
    std::fprintf(stderr,
                 "perfbench: WARNING svc_closed generator fell behind: lag p99 "
                 "%.3f ms of latency p50 %.3f ms\n",
                 lag, typical);
  }
  return behind;
}

}  // namespace

void run_svc_closed(const Args& args, Report& report) {
  const Placement cpus = placement();
  pin(cpus, cpus.workers);
  Setup s;
  std::vector<double> synth_ms;
  std::vector<double> scenario_ms;
  const double setup_s = timed_setups(kSetupRepeats, s, [&](Setup& out) {
    build(args, out);
    synth_ms.push_back(out.synth_ms);
    scenario_ms.push_back(mean(out.scenario_ms));
  });

  pin(cpus, cpus.generator);
  const Pass plain = run_pass(*s.service, s, args.seconds, report);
  check(s, plain, report);
  const WorkCounts work = work_of(plain);
  print_work("untraced", work);
  const bool behind = generator_behind(plain);

  const double done = static_cast<double>(std::max<std::size_t>(plain.done, 1));
  report.attempted = plain.submitted;
  report.set("setup_s", setup_s);
  report.set("throughput_per_s", plain.windows.median_rate());
  report.set("latency_ms_p50", plain.windows.median_percentile(0.50));
  report.set("latency_ms_p95", plain.windows.median_percentile(0.95));
  report.set("cpu_ms_per_op", plain.cpu_s * 1e3 / done);
  report.set("success_ratio",
             static_cast<double>(plain.within_limit) / static_cast<double>(plain.submitted));
  report.set("vo_payoff_ratio", trimmed_mean(plain.payoff, kPayoffTrim));
  report.set("trace.synth_ms", median(synth_ms));
  report.set("workload.scenario_ms_mean", median(scenario_ms));
  if (!args.trace) {
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  const TracedSolver traced(*s.solver);
  const svo::core::TvofMechanism traced_mechanism(traced);
  pin(cpus, cpus.workers);
  svo::svc::FormationService traced_service(traced_mechanism, service_options());
  warm_up(traced_service, s.pool, args.seed);
  pin(cpus, cpus.generator);
  traced.reset();
  // The traced pass submits exactly the work unit, so the solver's log
  // covers the same requests on every run.
  const Pass tp = run_pass(traced_service, s, 0.0, report);
  check(s, tp, report);
  const SolveLog log = traced.merged();
  WorkCounts traced_work = work_of(tp);
  traced_work["ip.solve_calls"] = static_cast<double>(log.calls);
  traced_work["ip.nodes"] = static_cast<double>(log.nodes);
  print_work("traced", traced_work);
  compare_work(work, traced_work, report);
  if (plain.nodes != tp.nodes) report.fail("svc_closed per-request node counts differ when traced");
  report.attempted += tp.submitted;

  double queue_s = 0.0;
  double solve_s = 0.0;
  for (const double ms : tp.queue_ms) queue_s += ms * 1e-3;
  for (const double ms : tp.solve_ms) solve_s += ms * 1e-3;
  report_ip(log, log, solve_s, report);
  const double tp_done = static_cast<double>(std::max<std::size_t>(tp.done, 1));
  report.set("core.iterations", traced_work["core.iterations"]);
  report.set("core.run_ms_p50", percentile(tp.solve_ms, 0.50));
  report.set("core.self_ms_mean", (solve_s - log.busy_s) * 1e3 / tp_done);
  report.set("core.self_share", solve_s > 0.0 ? (solve_s - log.busy_s) / solve_s : 0.0);
  report.set("svc.submit_us_p99", percentile(tp.submit_us, 0.99));
  report.set("svc.queue_ms_p50", percentile(tp.queue_ms, 0.50));
  report.set("svc.queue_ms_p99", percentile(tp.queue_ms, 0.99));
  report.set("svc.solve_ms_p50", percentile(tp.solve_ms, 0.50));
  report.set("svc.solve_ms_p99", percentile(tp.solve_ms, 0.99));
  report.set("svc.queue_share", queue_s + solve_s > 0.0 ? queue_s / (queue_s + solve_s) : 0.0);
  report.set("svc.batch_mean", tp.batch_mean);
  report.set("load.lag_ms_p99", tp.lag_ms.percentile(0.99));
  report.set("load.behind", (behind || generator_behind(tp)) ? 1.0 : 0.0);
  const double plain_rate = done / plain.cpu_s;
  const double traced_rate = tp_done / tp.cpu_s;
  report.set("bench.tracing_overhead", traced_rate / plain_rate);
}

}  // namespace perfbench
