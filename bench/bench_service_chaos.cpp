/// \file bench_service_chaos.cpp
/// Extension: overload soak of the chaos-hardened svc::FormationService —
/// a sustained burst of formation requests (scaled by
/// SVO_SERVICE_REQUESTS) pushed through a multi-shard service with a
/// seeded FaultPlan injecting transient solver failures, queue poison,
/// shard kills and straggler ticks, plus deterministically expiring
/// deadlines on a fixed slice of the burst.
///
/// Emits BENCH_service_chaos.json:
///  - requests_lost: admitted handles that failed to reach a terminal
///    state. The service invariant is zero, always — gated exactly by
///    tools/bench_diff (`*lost*`);
///  - replay_identical: the same seed replayed through the same chaos
///    gives per-ticket identical outcomes (state, attempts, RNG probe,
///    error) despite different thread interleavings (exact gate);
///  - faults_off_identical: the chaos-capable service with an empty plan
///    reproduces direct core::VoFormationMechanism::run bit for bit, RNG
///    probe included — the PR 7 equivalence point (exact gate);
///  - retry_success_rate and the retry / expiry / restart counts: driven
///    entirely by the seeded plan, hence deterministic — exact gates
///    (`*retry*`, `*expired*`, `*restart*`);
///  - queue p99 under chaos and under a shed-mode overload run
///    (capacity a quarter of the burst): machine-bound wall clock,
///    informational.
///
/// Exits non-zero, naming the counts, when the soak or the replay fired
/// a number of stalls plus tick aborts other than the plan's tick
/// faults, or restarted a number of shards other than its aborts.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "sim/scenario.hpp"
#include "svc/fault_plan.hpp"
#include "svc/service.hpp"
#include "util/timer.hpp"

namespace {

using namespace svo;

constexpr std::size_t kGsps = 8;
constexpr std::size_t kTasks = 24;
constexpr std::size_t kPool = 6;
constexpr std::size_t kShards = 4;
constexpr std::uint32_t kRetryBudget = 3;
/// Every kDeadlineStride-th request is submitted with deadline_seconds
/// = 0 and deterministically expires at first dispatch.
constexpr std::size_t kDeadlineStride = 8;

std::uint64_t request_seed(std::uint64_t root, std::size_t i) {
  return root ^ (0x9E3779B97F4A7C15ULL * (i + 1));
}

svc::ChaosProfile soak_profile() {
  svc::ChaosProfile profile;
  profile.solver_fault_rate = 0.15;  // transient: clears within budget
  profile.fault_attempts = 1;
  profile.poison_rate = 0.05;        // burns the budget to Failed
  profile.abort_rate = 0.05;         // kills + restarts the shard
  profile.stall_rate = 0.05;         // straggler ticks
  profile.stall_seconds = 0.0002;
  return profile;
}

struct ChaosRun {
  double elapsed_s = 0.0;
  double requests_per_sec = 0.0;
  std::uint64_t requests_lost = 0;
  svc::ServiceStats stats;
  std::vector<svc::RequestOutcome> outcomes;
};

/// Push `requests` through a faulted service and drain. Deadline-0
/// requests expire; poisoned requests fail; everything else completes.
ChaosRun run_chaos(const core::VoFormationMechanism& mechanism,
                   const std::vector<sim::Scenario>& pool,
                   std::size_t requests, std::uint64_t seed,
                   const svc::FaultPlan& plan, std::size_t queue_capacity,
                   svc::OverloadPolicy overload) {
  svc::ServiceOptions opt;
  opt.shards = kShards;
  opt.threads = kShards;
  opt.queue_capacity = queue_capacity;
  opt.batch_size = 8;
  opt.overload = overload;
  opt.retry_backoff_base_seconds = 0.0001;
  opt.retry_backoff_cap_seconds = 0.001;
  opt.faults = plan;

  ChaosRun run;
  svc::FormationService service(mechanism, opt);
  std::vector<svc::RequestHandle> handles;
  handles.reserve(requests);
  const util::WallTimer timer;
  for (std::size_t i = 0; i < requests; ++i) {
    const sim::Scenario& s = pool[i % pool.size()];
    util::Xoshiro256 rng(request_seed(seed, i));
    svc::SubmitOptions submit;
    submit.max_retries = kRetryBudget;
    if (i % kDeadlineStride == kDeadlineStride - 1) {
      submit.deadline_seconds = 0.0;
    }
    handles.push_back(service.submit(
        core::FormationRequest{s.instance.assignment, s.trust, rng}, submit));
  }
  service.drain();
  run.elapsed_s = timer.seconds();
  run.requests_per_sec =
      run.elapsed_s > 0.0 ? static_cast<double>(requests) / run.elapsed_s : 0.0;
  run.stats = service.stats();
  run.outcomes.reserve(requests);
  for (const svc::RequestHandle& h : handles) {
    if (!h.done()) ++run.requests_lost;  // the invariant is zero, always
    h.wait();
    run.outcomes.push_back(h.outcome());
  }
  // Conservation: every admitted ticket must land in exactly one bucket.
  const std::uint64_t resolved = run.stats.completed + run.stats.failed +
                                 run.stats.expired + run.stats.cancelled;
  if (run.stats.submitted != resolved) {
    run.requests_lost += run.stats.submitted - resolved;
  }
  return run;
}

bool outcomes_identical(const svc::RequestOutcome& a,
                        const svc::RequestOutcome& b) {
  return a.ticket == b.ticket && a.shard == b.shard && a.state == b.state &&
         a.attempts == b.attempts && a.rng_probe == b.rng_probe &&
         a.error == b.error &&
         a.result.selected.bits() == b.result.selected.bits() &&
         a.result.cost == b.result.cost && a.result.value == b.result.value;
}

/// Empty plan, default submit options, single shard: the chaos-capable
/// service must still reproduce direct runs bit for bit (the PR 7
/// equivalence point, RNG probe included).
bool faults_off_matches_direct(const core::VoFormationMechanism& mechanism,
                               const std::vector<sim::Scenario>& pool,
                               std::size_t requests, std::uint64_t seed) {
  svc::ServiceOptions opt;
  opt.queue_capacity = requests;
  svc::FormationService service(mechanism, opt);
  std::vector<svc::RequestHandle> handles;
  handles.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const sim::Scenario& s = pool[i % pool.size()];
    util::Xoshiro256 rng(request_seed(seed, i));
    handles.push_back(service.submit(
        core::FormationRequest{s.instance.assignment, s.trust, rng}));
  }
  service.drain();
  for (std::size_t i = 0; i < requests; ++i) {
    const sim::Scenario& s = pool[i % pool.size()];
    util::Xoshiro256 rng(request_seed(seed, i));
    const core::MechanismResult direct = mechanism.run(
        core::FormationRequest{s.instance.assignment, s.trust, rng});
    handles[i].wait();
    const svc::RequestOutcome& out = handles[i].outcome();
    if (out.state != svc::TicketState::Done) return false;
    if (out.attempts != 1) return false;
    if (out.rng_probe != rng()) return false;
    if (direct.selected.bits() != out.result.selected.bits()) return false;
    if (direct.mapping != out.result.mapping) return false;
    if (direct.cost != out.result.cost) return false;
    if (direct.journal.size() != out.result.journal.size()) return false;
  }
  return true;
}

}  // namespace

int main() {
  const bench::Session session(
      "Extension",
      "chaos-hardened formation service: seeded fault injection, "
      "deadline-aware retries, and overload soak");

  const std::uint64_t seed = util::env_u64_or("SVO_SEED", 20120910);
  const std::size_t requests =
      util::env_positive_size_or("SVO_SERVICE_REQUESTS", 96);

  sim::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.gen.params.num_gsps = kGsps;
  cfg.task_sizes = {kTasks};
  cfg.trace.num_jobs = 4000;
  cfg.trace.canonical_sizes = {kTasks};
  cfg.trace.min_jobs_per_canonical_size = kPool;
  const sim::ScenarioFactory factory(cfg);
  std::vector<sim::Scenario> pool;
  pool.reserve(kPool);
  for (std::size_t rep = 0; rep < kPool; ++rep) {
    pool.push_back(factory.make(kTasks, rep));
  }

  ip::BnbOptions solver_opts;
  solver_opts.max_nodes = 2000;
  const ip::BnbAssignmentSolver solver(solver_opts);
  const core::TvofMechanism tvof(solver);

  const svc::FaultPlan plan =
      svc::random_fault_plan(seed ^ 0xC4A05ULL, requests, soak_profile());

  // Soak: the full burst against a capacity-matched queue (admission
  // never sheds; the chaos is all in-flight), run twice for the replay
  // gate.
  const ChaosRun soak = run_chaos(tvof, pool, requests, seed, plan, requests,
                                  svc::OverloadPolicy::Shed);
  std::fprintf(stderr,
               "  soak: %5.1f req/s  queue p99 %9.0f us  retries %llu  "
               "expired %llu  failed %llu  restarts %llu  (%.3fs)\n",
               soak.requests_per_sec, soak.stats.queue_p99_us,
               static_cast<unsigned long long>(soak.stats.retries),
               static_cast<unsigned long long>(soak.stats.expired),
               static_cast<unsigned long long>(soak.stats.failed),
               static_cast<unsigned long long>(soak.stats.restarts),
               soak.elapsed_s);
  const ChaosRun replay = run_chaos(tvof, pool, requests, seed, plan, requests,
                                    svc::OverloadPolicy::Shed);
  bool replay_identical = soak.outcomes.size() == replay.outcomes.size();
  for (std::size_t i = 0; replay_identical && i < soak.outcomes.size(); ++i) {
    replay_identical = outcomes_identical(soak.outcomes[i], replay.outcomes[i]);
  }
  // Both runs admit every request and cancel none, so each planned tick
  // fault fires exactly once, whatever the batching, and every abort is
  // restarted.
  bool faults_fired_as_planned = true;
  for (const ChaosRun* run : {&soak, &replay}) {
    const svc::ServiceStats& st = run->stats;
    if (st.tick_aborts + st.stalls != plan.tick_faults.size() ||
        st.restarts != st.tick_aborts) {
      faults_fired_as_planned = false;
      std::fprintf(stderr,
                   "  %s: %llu tick aborts + %llu stalls fired for %zu "
                   "planned tick faults, %llu restarts\n",
                   run == &soak ? "soak" : "replay",
                   static_cast<unsigned long long>(st.tick_aborts),
                   static_cast<unsigned long long>(st.stalls),
                   plan.tick_faults.size(),
                   static_cast<unsigned long long>(st.restarts));
    }
  }

  // Overload: the same chaos against a queue a quarter of the burst,
  // shedding beyond capacity — p99 under shed pressure (informational;
  // shed counts depend on drain speed and are machine-bound).
  const ChaosRun overload =
      run_chaos(tvof, pool, requests, seed, plan,
                std::max<std::size_t>(8, requests / 4),
                svc::OverloadPolicy::Shed);

  const bool faults_off_identical =
      faults_off_matches_direct(tvof, pool, requests, seed);

  // Retry outcomes: every ticket that needed >1 attempt was struck by
  // the plan; the transient ones recover, the poisoned ones exhaust the
  // budget. Both sets are plan-determined.
  std::uint64_t retried = 0;
  std::uint64_t retried_ok = 0;
  for (const svc::RequestOutcome& out : soak.outcomes) {
    if (out.attempts <= 1) continue;
    ++retried;
    if (out.state == svc::TicketState::Done) ++retried_ok;
  }
  const double retry_success_rate =
      retried > 0 ? static_cast<double>(retried_ok) / retried : 1.0;

  // Run 0 = capacity-matched soak, run 1 = quarter-capacity overload.
  util::Table table({"run", "req/s", "queue p99 us", "retries", "expired",
                     "failed", "restarts", "lost"});
  table.set_precision(1);
  const auto row = [&](double index, const ChaosRun& run) {
    table.add_row({index, run.requests_per_sec, run.stats.queue_p99_us,
                   static_cast<double>(run.stats.retries),
                   static_cast<double>(run.stats.expired),
                   static_cast<double>(run.stats.failed),
                   static_cast<double>(run.stats.restarts),
                   static_cast<double>(run.requests_lost)});
  };
  row(0, soak);
  row(1, overload);
  bench::emit(table, "service_chaos.csv");

  bench::Report report("service_chaos");
  obs::JsonWriter& j = report.json();
  j.kv("experiment", "service_chaos_soak");
  j.kv("gsps", kGsps);
  j.kv("tasks", kTasks);
  j.kv("instance_pool", static_cast<double>(kPool));
  j.kv("requests", static_cast<double>(requests));
  j.kv("seed", static_cast<double>(seed));
  j.kv("shards", static_cast<double>(kShards));
  j.kv("retry_budget", static_cast<double>(kRetryBudget));
  j.kv("solver_faults_planned", static_cast<double>(plan.solver_faults.size()));
  j.kv("tick_faults_planned", static_cast<double>(plan.tick_faults.size()));
  j.key("soak").begin_object();
  j.kv("requests_per_sec", soak.requests_per_sec);
  j.kv("queue_p99_us", soak.stats.queue_p99_us);
  j.kv("solve_p99_us", soak.stats.solve_p99_us);
  j.kv("elapsed_seconds", soak.elapsed_s);
  j.kv("completed", static_cast<double>(soak.stats.completed));
  j.kv("failed", static_cast<double>(soak.stats.failed));
  j.kv("ticks", static_cast<double>(soak.stats.ticks));
  j.kv("tick_aborts", static_cast<double>(soak.stats.tick_aborts));
  j.kv("stalls", static_cast<double>(soak.stats.stalls));
  j.kv("redelivery_max", soak.stats.redelivery_max);
  j.end_object();
  j.key("overload").begin_object();
  j.kv("queue_capacity", static_cast<double>(std::max<std::size_t>(
                             8, requests / 4)));
  j.kv("queue_p99_us", overload.stats.queue_p99_us);
  j.kv("shed", static_cast<double>(overload.stats.shed));
  j.kv("completed", static_cast<double>(overload.stats.completed));
  j.end_object();
  j.key("aggregate").begin_object();
  j.kv("requests_lost", static_cast<double>(soak.requests_lost +
                                            overload.requests_lost));
  j.kv("replay_identical", replay_identical);
  j.kv("faults_off_identical", faults_off_identical);
  j.kv("retry_success_rate", retry_success_rate);
  j.kv("retries", static_cast<double>(soak.stats.retries));
  j.kv("expired_requests", static_cast<double>(soak.stats.expired));
  j.kv("restarts", static_cast<double>(soak.stats.restarts));
  j.end_object();
  report.write();

  const bool ok = soak.requests_lost == 0 && overload.requests_lost == 0 &&
                  replay_identical && faults_off_identical &&
                  faults_fired_as_planned;
  std::printf(
      "\nacceptance: zero lost requests: %s; same-seed chaotic replay "
      "identical: %s; faults-off bit-identical to direct runs: %s; retry "
      "success rate %.3f (%llu retried tickets); %llu expired on deadline, "
      "%llu shard restarts\n"
      "\ninterpretation: %zu requests soak a %zu-shard service under a "
      "seeded fault plan (transient solver failures, queue poison, shard "
      "kills, stragglers) plus deterministic deadline expiry on every %zuth "
      "request. Faults are keyed by ticket id, so the retry / expiry / "
      "restart counts and retry_success_rate are plan-determined and gate "
      "exactly in tools/bench_diff; queue p99s under chaos and under "
      "quarter-capacity shed are wall clock and informational.\n",
      soak.requests_lost + overload.requests_lost == 0 ? "yes" : "NO",
      replay_identical ? "yes" : "NO", faults_off_identical ? "yes" : "NO",
      retry_success_rate, static_cast<unsigned long long>(retried),
      static_cast<unsigned long long>(soak.stats.expired),
      static_cast<unsigned long long>(soak.stats.restarts), requests, kShards,
      kDeadlineStride);
  return ok ? 0 : 1;
}
