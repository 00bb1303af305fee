/// The chaos contract (fault_plan.hpp, DESIGN.md §4h), pinned:
///   - injected solver failures retry with backoff and converge to the
///     bit-identical direct-run result once the fault clears;
///   - queue poison burns its budget to a terminal Failed (typed state,
///     never a hung handle) without harming queue neighbours;
///   - a killed shard is detected and restarted with its queue intact —
///     no admitted request is ever lost;
///   - a deliberately stalled tick cannot wedge a bounded wait();
///   - deadlines expire *before* wasting a solve, and shards drain by
///     (priority, deadline, admission order);
///   - a cancel landing between a failed attempt and its scheduled
///     retry wins, with exactly one terminal state;
///   - same-seed chaotic replays are per-ticket identical.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "svc/fault_plan.hpp"
#include "svc/service.hpp"
#include "tests/ip/test_instances.hpp"
#include "trust/trust_graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace svo::svc {
namespace {

struct Fixture {
  ip::AssignmentInstance instance;
  trust::TrustGraph trust{0};
};

Fixture make_fixture(std::size_t m, std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Fixture f;
  f.instance = ip::testing::random_instance(m, n, rng);
  f.trust = trust::random_trust_graph(m, /*p=*/0.4, rng);
  return f;
}

// ---------------------------------------------------------------- plans

TEST(FaultPlanTest, EnabledAndNamesAreStable) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.solver_faults.push_back({0, 1});
  EXPECT_TRUE(plan.enabled());
  EXPECT_STREQ(to_string(TickFaultKind::Abort), "abort");
  EXPECT_STREQ(to_string(TickFaultKind::Stall), "stall");
}

TEST(FaultPlanTest, ValidateRejectsMalformedPlans) {
  {
    FaultPlan plan;
    plan.solver_faults.push_back({0, 0});  // zero attempts
    EXPECT_THROW(plan.validate(), InvalidArgument);
  }
  {
    FaultPlan plan;
    plan.solver_faults.push_back({3, 1});
    plan.solver_faults.push_back({3, 2});  // duplicate ticket
    EXPECT_THROW(plan.validate(), InvalidArgument);
  }
  {
    FaultPlan plan;
    plan.tick_faults.push_back({1, TickFaultKind::Stall, -0.001});
    EXPECT_THROW(plan.validate(), InvalidArgument);
  }
  {
    FaultPlan plan;
    plan.tick_faults.push_back(
        {1, TickFaultKind::Stall, std::numeric_limits<double>::quiet_NaN()});
    EXPECT_THROW(plan.validate(), InvalidArgument);
  }
  {
    FaultPlan plan;
    plan.tick_faults.push_back({2, TickFaultKind::Abort, 0.0});
    plan.tick_faults.push_back({2, TickFaultKind::Stall, 0.0});  // duplicate
    EXPECT_THROW(plan.validate(), InvalidArgument);
  }
  {
    // One solver fault and one tick fault on the same ticket is legal.
    FaultPlan plan;
    plan.solver_faults.push_back({2, SolverFault::kPoison});
    plan.tick_faults.push_back({2, TickFaultKind::Abort, 0.0});
    EXPECT_NO_THROW(plan.validate());
  }
}

TEST(FaultPlanTest, ChaosProfileValidateRejectsBadRates) {
  ChaosProfile p;
  EXPECT_NO_THROW(p.validate());
  p.solver_fault_rate = 1.5;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p.solver_fault_rate = 0.6;
  p.poison_rate = 0.6;  // sum > 1
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = ChaosProfile{};
  p.abort_rate = 0.7;
  p.stall_rate = 0.7;  // sum > 1
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = ChaosProfile{};
  p.fault_attempts = 0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = ChaosProfile{};
  p.stall_seconds = -1.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
}

TEST(FaultPlanTest, RandomPlanIsDeterministicAndValid) {
  ChaosProfile profile;
  profile.solver_fault_rate = 0.3;
  profile.fault_attempts = 2;
  profile.poison_rate = 0.1;
  profile.abort_rate = 0.2;
  profile.stall_rate = 0.2;
  profile.stall_seconds = 0.001;

  const FaultPlan a = random_fault_plan(0xC4A05, 200, profile);
  const FaultPlan b = random_fault_plan(0xC4A05, 200, profile);
  ASSERT_EQ(a.solver_faults.size(), b.solver_faults.size());
  ASSERT_EQ(a.tick_faults.size(), b.tick_faults.size());
  for (std::size_t i = 0; i < a.solver_faults.size(); ++i) {
    EXPECT_EQ(a.solver_faults[i].ticket, b.solver_faults[i].ticket);
    EXPECT_EQ(a.solver_faults[i].attempts, b.solver_faults[i].attempts);
  }
  for (std::size_t i = 0; i < a.tick_faults.size(); ++i) {
    EXPECT_EQ(a.tick_faults[i].ticket, b.tick_faults[i].ticket);
    EXPECT_EQ(a.tick_faults[i].kind, b.tick_faults[i].kind);
  }
  EXPECT_NO_THROW(a.validate());
  EXPECT_TRUE(a.enabled());
  // Rates this high over 200 tickets strike with near certainty.
  EXPECT_GT(a.solver_faults.size(), 0u);
  EXPECT_GT(a.tick_faults.size(), 0u);
  for (const SolverFault& f : a.solver_faults) {
    EXPECT_LT(f.ticket, 200u);
    EXPECT_TRUE(f.attempts == 2 || f.attempts == SolverFault::kPoison);
  }

  // All-zero rates derive the empty (bit-identical-to-PR 7) plan.
  const FaultPlan none = random_fault_plan(0xC4A05, 200, ChaosProfile{});
  EXPECT_FALSE(none.enabled());
}

// ----------------------------------------------------- typed validation

TEST(ChaosServiceTest, SubmitValidatesSchedulingFields) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 41);
  ServiceOptions opt;
  opt.start_paused = true;
  FormationService service(tvof, opt);
  util::Xoshiro256 rng(1);

  const core::FormationRequest req{f.instance, f.trust, rng};
  SubmitOptions bad_deadline;
  bad_deadline.deadline_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(service.submit(req, bad_deadline), InvalidArgument);
  bad_deadline.deadline_seconds = -0.5;
  EXPECT_THROW(service.submit(req, bad_deadline), InvalidArgument);

  SubmitOptions bad_budget;
  bad_budget.max_retries = ServiceOptions::kMaxRetryBudget + 1;
  EXPECT_THROW(service.submit(req, bad_budget), InvalidArgument);

  SubmitOptions good;
  good.deadline_seconds = 3600.0;
  good.priority = -3;
  good.max_retries = ServiceOptions::kMaxRetryBudget;
  RequestHandle h = service.submit(req, good);
  EXPECT_EQ(h.poll(), TicketState::Queued);
  // Rejected submissions were never admitted.
  EXPECT_EQ(service.stats().submitted, 1u);
  service.resume();
  service.drain();
}

TEST(ChaosServiceTest, OptionsValidateBackoffAndPlan) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  {
    ServiceOptions opt;
    opt.retry_backoff_base_seconds = -0.001;
    EXPECT_THROW(FormationService(tvof, opt), InvalidArgument);
  }
  {
    ServiceOptions opt;
    opt.retry_backoff_cap_seconds = opt.retry_backoff_base_seconds / 2.0;
    EXPECT_THROW(FormationService(tvof, opt), InvalidArgument);
  }
  {
    ServiceOptions opt;
    opt.faults.solver_faults.push_back({0, 0});  // invalid plan
    EXPECT_THROW(FormationService(tvof, opt), InvalidArgument);
  }
}

TEST(ChaosServiceTest, WaitValidatesTimeoutAndOutcomeRequiresTerminal) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 42);
  ServiceOptions opt;
  opt.start_paused = true;
  FormationService service(tvof, opt);
  util::Xoshiro256 rng(1);
  RequestHandle h =
      service.submit(core::FormationRequest{f.instance, f.trust, rng});
  EXPECT_THROW(h.wait(-1.0), InvalidArgument);
  EXPECT_THROW(h.wait(std::numeric_limits<double>::quiet_NaN()),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(h.outcome()),
               InvalidArgument);  // not terminal yet
  // A zero timeout is a poll.
  EXPECT_EQ(h.wait(0.0), TicketState::Queued);
  service.resume();
  service.drain();
  EXPECT_EQ(h.wait(0.0), TicketState::Done);
  EXPECT_NO_THROW(static_cast<void>(h.outcome()));
}

// ------------------------------------------------------- solver faults

/// An injected failure retries with backoff and then succeeds — and the
/// retry is an exact re-execution: the final result is bit-identical to
/// a direct run (RNG probe included) because every attempt starts from
/// the pristine admission-time RNG snapshot.
TEST(ChaosServiceTest, InjectedFailureRetriesToBitIdenticalSuccess) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(6, 14, 0xFA11);

  util::Xoshiro256 rng_direct(7);
  const core::MechanismResult direct =
      tvof.run(core::FormationRequest{f.instance, f.trust, rng_direct});
  const std::uint64_t probe_direct = rng_direct();

  ServiceOptions opt;
  opt.faults.solver_faults.push_back({0, 2});  // attempts 1 and 2 throw
  opt.retry_backoff_base_seconds = 0.0001;
  opt.retry_backoff_cap_seconds = 0.001;
  FormationService service(tvof, opt);
  util::Xoshiro256 rng(7);
  SubmitOptions submit;
  submit.max_retries = 3;
  RequestHandle h =
      service.submit(core::FormationRequest{f.instance, f.trust, rng}, submit);

  ASSERT_EQ(h.wait(), TicketState::Done);
  const RequestOutcome& out = h.outcome();
  EXPECT_EQ(out.attempts, 3u);  // two injected failures + the success
  EXPECT_EQ(out.rng_probe, probe_direct);
  EXPECT_EQ(out.result.selected.bits(), direct.selected.bits());
  EXPECT_EQ(out.result.cost, direct.cost);
  EXPECT_EQ(out.result.value, direct.value);
  ASSERT_EQ(out.result.journal.size(), direct.journal.size());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.solver_runs, 3u);  // attempts, including failed ones
  EXPECT_GE(stats.redelivery_max, 2.0);
  EXPECT_EQ(service.metrics().counter_value("svc.retries"), 2u);
}

/// Queue poison: every attempt throws, the budget burns down to a
/// typed Failed with the error preserved — never a hung handle — and a
/// neighbouring ticket on the same shard is untouched.
TEST(ChaosServiceTest, PoisonFailsAfterBudgetWithoutHarmingNeighbours) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(6, 14, 0xBAD);

  ServiceOptions opt;
  opt.faults.solver_faults.push_back({0, SolverFault::kPoison});
  opt.retry_backoff_base_seconds = 0.0001;
  opt.retry_backoff_cap_seconds = 0.001;
  FormationService service(tvof, opt);

  util::Xoshiro256 rng_poison(11);
  SubmitOptions poisoned;
  poisoned.max_retries = 2;
  RequestHandle hp = service.submit(
      core::FormationRequest{f.instance, f.trust, rng_poison}, poisoned);

  util::Xoshiro256 rng_ok(12);
  RequestHandle ok =
      service.submit(core::FormationRequest{f.instance, f.trust, rng_ok});

  ASSERT_EQ(hp.wait(), TicketState::Failed);
  const RequestOutcome& poisoned_out = hp.outcome();
  EXPECT_EQ(poisoned_out.attempts, 3u);  // 1 + max_retries
  EXPECT_FALSE(poisoned_out.error.empty());
  EXPECT_EQ(poisoned_out.rng_probe, 0u);
  EXPECT_TRUE(poisoned_out.result.journal.empty());

  ASSERT_EQ(ok.wait(), TicketState::Done);
  util::Xoshiro256 rng_check(12);
  const core::MechanismResult direct =
      tvof.run(core::FormationRequest{f.instance, f.trust, rng_check});
  EXPECT_EQ(ok.outcome().result.selected.bits(), direct.selected.bits());
  EXPECT_EQ(ok.outcome().result.cost, direct.cost);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.solver_runs, 4u);  // 3 poisoned attempts + 1 clean
  EXPECT_EQ(service.metrics().counter_value("svc.failed"), 1u);
}

TEST(ChaosServiceTest, ZeroRetryBudgetFailsOnFirstInjectedThrow) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 43);
  ServiceOptions opt;
  opt.faults.solver_faults.push_back({0, SolverFault::kPoison});
  FormationService service(tvof, opt);
  util::Xoshiro256 rng(3);
  RequestHandle h =
      service.submit(core::FormationRequest{f.instance, f.trust, rng});
  ASSERT_EQ(h.wait(), TicketState::Failed);
  EXPECT_EQ(h.outcome().attempts, 1u);
  EXPECT_EQ(service.stats().retries, 0u);
  EXPECT_FALSE(h.cancel());  // already terminal
}

// --------------------------------------------------------- tick faults

/// A killed shard is detected and restarted with its queued requests
/// preserved: every admitted ticket still completes, bit-identically,
/// and the restart is accounted service-wide and per shard.
TEST(ChaosServiceTest, ShardAbortRestartPreservesQueuedRequests) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(6, 14, 0xDEAD);
  constexpr std::size_t kRequests = 4;

  ServiceOptions opt;
  opt.batch_size = 2;
  opt.start_paused = true;
  opt.faults.tick_faults.push_back({0, TickFaultKind::Abort, 0.0});
  FormationService service(tvof, opt);
  std::vector<RequestHandle> handles;
  for (std::size_t i = 0; i < kRequests; ++i) {
    util::Xoshiro256 rng(900 + i);
    handles.push_back(
        service.submit(core::FormationRequest{f.instance, f.trust, rng}));
  }
  service.resume();
  service.drain();

  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("ticket " + std::to_string(i));
    ASSERT_EQ(handles[i].wait(), TicketState::Done);
    util::Xoshiro256 rng(900 + i);
    const core::MechanismResult direct =
        tvof.run(core::FormationRequest{f.instance, f.trust, rng});
    EXPECT_EQ(handles[i].outcome().result.selected.bits(),
              direct.selected.bits());
    EXPECT_EQ(handles[i].outcome().result.cost, direct.cost);
    EXPECT_EQ(handles[i].outcome().rng_probe, rng());
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.tick_aborts, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(service.metrics().counter_value("svc.shard0.restarts"), 1u);
  EXPECT_EQ(service.metrics().counter_value("svc.restarts"), 1u);
}

/// Satellite regression: a deliberately stalled tick must not wedge a
/// bounded wait — the timeout returns a live (non-terminal) state, and
/// the unbounded wait still resolves once the straggler finishes. A
/// timeout too long for the steady clock (1e12 s) waits like an
/// unbounded one instead of overflowing into an immediate return.
TEST(ChaosServiceTest, StalledTickCannotWedgeBoundedWait) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 44);

  ServiceOptions opt;
  opt.faults.tick_faults.push_back({0, TickFaultKind::Stall, 0.25});
  FormationService service(tvof, opt);
  util::Xoshiro256 rng(5);
  RequestHandle h =
      service.submit(core::FormationRequest{f.instance, f.trust, rng});

  const TicketState during = h.wait(0.01);  // bounded: returns promptly
  EXPECT_FALSE(is_terminal(during));
  EXPECT_EQ(h.wait(1e12), TicketState::Done);
  EXPECT_EQ(h.wait(), TicketState::Done);  // unbounded: stall ends
  EXPECT_EQ(service.stats().stalls, 1u);
  EXPECT_EQ(service.metrics().counter_value("svc.stalls"), 1u);
}

/// Every marked ticket fires its tick fault exactly once, wherever the
/// batch boundaries fall: two stalls and two aborts spread over the
/// first four tickets give the same counts and per-ticket outcomes at
/// batch sizes 1, 2 and 4.
TEST(ChaosServiceTest, TickFaultsFireOncePerTicketAtAnyBatchSize) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 0xBA7C);
  constexpr std::size_t kRequests = 6;

  std::vector<RequestOutcome> reference;
  for (const std::size_t batch_size : {1u, 2u, 4u}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    ServiceOptions opt;
    opt.batch_size = batch_size;
    opt.start_paused = true;
    opt.faults.tick_faults = {{0, TickFaultKind::Stall, 0.0001},
                              {1, TickFaultKind::Abort, 0.0},
                              {2, TickFaultKind::Stall, 0.0001},
                              {3, TickFaultKind::Abort, 0.0}};
    FormationService service(tvof, opt);
    std::vector<RequestHandle> handles;
    for (std::size_t i = 0; i < kRequests; ++i) {
      util::Xoshiro256 rng(400 + i);
      handles.push_back(
          service.submit(core::FormationRequest{f.instance, f.trust, rng}));
    }
    service.resume();
    service.drain();

    std::vector<RequestOutcome> outs;
    for (const RequestHandle& h : handles) {
      ASSERT_EQ(h.wait(), TicketState::Done);
      outs.push_back(h.outcome());
    }
    if (reference.empty()) reference = outs;
    for (std::size_t i = 0; i < kRequests; ++i) {
      SCOPED_TRACE("ticket " + std::to_string(i));
      EXPECT_EQ(outs[i].state, reference[i].state);
      EXPECT_EQ(outs[i].attempts, reference[i].attempts);
      EXPECT_EQ(outs[i].rng_probe, reference[i].rng_probe);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.stalls, 2u);
    EXPECT_EQ(stats.tick_aborts, 2u);
    EXPECT_EQ(stats.restarts, 2u);
  }
}

// ----------------------------------------------- deadlines & ordering

/// deadline_seconds = 0 deterministically expires at first dispatch:
/// the request terminates DeadlineExceeded before any solver work.
TEST(DeadlineTest, ZeroDeadlineExpiresBeforeSolve) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 45);

  ServiceOptions opt;
  opt.start_paused = true;
  FormationService service(tvof, opt);
  util::Xoshiro256 rng(1);
  SubmitOptions doomed;
  doomed.deadline_seconds = 0.0;
  RequestHandle expired =
      service.submit(core::FormationRequest{f.instance, f.trust, rng}, doomed);
  RequestHandle healthy =
      service.submit(core::FormationRequest{f.instance, f.trust, rng});
  service.resume();
  service.drain();

  ASSERT_EQ(expired.wait(), TicketState::DeadlineExceeded);
  EXPECT_EQ(expired.outcome().attempts, 0u);      // the solver never ran
  EXPECT_EQ(expired.outcome().dispatch_seq, 0u);  // never dispatched
  EXPECT_TRUE(expired.outcome().result.journal.empty());
  ASSERT_EQ(healthy.wait(), TicketState::Done);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.solver_runs, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(service.metrics().counter_value("svc.expired"), 1u);
}

/// Shards drain by (priority desc, deadline asc, admission order) —
/// observable through dispatch_seq on a single-shard service.
TEST(DeadlineTest, DrainOrderIsPriorityThenEdfThenAdmission) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 46);

  ServiceOptions opt;
  opt.start_paused = true;
  opt.batch_size = 4;
  FormationService service(tvof, opt);
  util::Xoshiro256 rng(1);

  auto submit = [&](std::int32_t priority, double deadline) {
    SubmitOptions options;
    options.priority = priority;
    options.deadline_seconds = deadline;
    return service.submit(core::FormationRequest{f.instance, f.trust, rng},
                          options);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RequestHandle a = submit(0, kInf);     // admitted first, drained last
  RequestHandle b = submit(5, kInf);     // high priority, no deadline
  RequestHandle c = submit(5, 3600.0);   // high priority, tighter EDF
  RequestHandle d = submit(0, 1800.0);   // low priority, has a deadline
  service.resume();
  service.drain();

  for (const RequestHandle* h : {&a, &b, &c, &d}) {
    ASSERT_EQ(h->wait(), TicketState::Done);
  }
  EXPECT_EQ(c.outcome().dispatch_seq, 1u);
  EXPECT_EQ(b.outcome().dispatch_seq, 2u);
  EXPECT_EQ(d.outcome().dispatch_seq, 3u);
  EXPECT_EQ(a.outcome().dispatch_seq, 4u);
}

// ------------------------------------------------- cancel-retry races

/// Satellite race: a cancel landing between a failed attempt and its
/// scheduled retry must win — the retry never dispatches, and the
/// ticket reports exactly one terminal state (Cancelled, not Failed).
TEST(ChaosServiceTest, CancelBetweenFailedAttemptAndRetryWins) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 47);

  ServiceOptions opt;
  opt.faults.solver_faults.push_back({0, SolverFault::kPoison});
  // A retry parked far in the future opens a wide, reliable race window.
  opt.retry_backoff_base_seconds = 30.0;
  opt.retry_backoff_cap_seconds = 30.0;
  FormationService service(tvof, opt);
  util::Xoshiro256 rng(9);
  SubmitOptions submit;
  submit.max_retries = 8;
  RequestHandle h =
      service.submit(core::FormationRequest{f.instance, f.trust, rng}, submit);

  // Wait until the first attempt has failed and its retry is parked.
  for (int spin = 0; spin < 4000 && service.stats().retries == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.stats().retries, 1u) << "first attempt never failed";
  ASSERT_EQ(h.poll(), TicketState::Queued);  // parked in backoff

  EXPECT_TRUE(h.cancel());  // the cancel wins the race
  EXPECT_EQ(h.poll(), TicketState::Cancelled);
  EXPECT_FALSE(h.cancel());  // exactly one terminal transition

  // The parked retry was withdrawn: the service drains immediately
  // (well before the 30 s backoff) and the solver never ran again.
  service.drain();
  EXPECT_EQ(h.wait(), TicketState::Cancelled);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.solver_runs, 1u);  // only the pre-cancel attempt
  EXPECT_EQ(h.outcome().state, TicketState::Cancelled);
}

// ------------------------------------------------------ chaotic replay

/// The headline chaos invariants, together: under a mixed fault plan
/// (transient solver faults, poison, shard kills, stragglers) across a
/// multi-shard multi-thread service,
///   1. no admitted request is ever lost — every handle is terminal;
///   2. same-seed replays are per-ticket identical (state, attempts,
///      RNG probe, error), interleaving notwithstanding;
///   3. the fault accounting itself replays identically.
TEST(ChaosServiceTest, SameSeedChaoticReplayIsIdentical) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(6, 14, 0x0CA0);
  constexpr std::size_t kRequests = 16;

  ChaosProfile profile;
  profile.solver_fault_rate = 0.25;
  profile.fault_attempts = 1;
  profile.poison_rate = 0.15;
  profile.abort_rate = 0.15;
  profile.stall_rate = 0.15;
  profile.stall_seconds = 0.0002;

  ServiceOptions opt;
  opt.shards = 4;
  opt.threads = 4;
  opt.batch_size = 2;
  opt.retry_backoff_base_seconds = 0.0001;
  opt.retry_backoff_cap_seconds = 0.001;
  opt.faults = random_fault_plan(0x5EED, kRequests, profile);
  ASSERT_TRUE(opt.faults.enabled());

  struct Snapshot {
    std::vector<RequestOutcome> outs;
    ServiceStats stats;
  };
  auto run_once = [&] {
    Snapshot snap;
    FormationService service(tvof, opt);
    std::vector<RequestHandle> handles;
    for (std::size_t i = 0; i < kRequests; ++i) {
      util::Xoshiro256 rng(3000 + i * 13);
      SubmitOptions submit;
      submit.max_retries = 3;
      handles.push_back(service.submit(
          core::FormationRequest{f.instance, f.trust, rng}, submit));
    }
    service.drain();
    for (const RequestHandle& h : handles) {
      EXPECT_TRUE(h.done());  // invariant 1: nothing lost
      h.wait();
      snap.outs.push_back(h.outcome());
    }
    snap.stats = service.stats();
    return snap;
  };

  const Snapshot first = run_once();
  const Snapshot second = run_once();
  ASSERT_EQ(first.outs.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("ticket " + std::to_string(i));
    EXPECT_EQ(first.outs[i].ticket, second.outs[i].ticket);
    EXPECT_EQ(first.outs[i].shard, second.outs[i].shard);
    EXPECT_EQ(first.outs[i].state, second.outs[i].state);
    EXPECT_TRUE(is_terminal(first.outs[i].state));
    EXPECT_EQ(first.outs[i].attempts, second.outs[i].attempts);
    EXPECT_EQ(first.outs[i].rng_probe, second.outs[i].rng_probe);
    EXPECT_EQ(first.outs[i].error, second.outs[i].error);
    if (first.outs[i].state == TicketState::Done) {
      EXPECT_EQ(first.outs[i].result.selected.bits(),
                second.outs[i].result.selected.bits());
      EXPECT_EQ(first.outs[i].result.cost, second.outs[i].result.cost);
    }
  }
  // Invariant 3: fault traffic replays exactly.
  EXPECT_EQ(first.stats.completed, second.stats.completed);
  EXPECT_EQ(first.stats.failed, second.stats.failed);
  EXPECT_EQ(first.stats.retries, second.stats.retries);
  EXPECT_EQ(first.stats.restarts, second.stats.restarts);
  EXPECT_EQ(first.stats.tick_aborts, second.stats.tick_aborts);
  EXPECT_EQ(first.stats.stalls, second.stats.stalls);
  EXPECT_EQ(first.stats.solver_runs, second.stats.solver_runs);
  // Every planned tick fault fired once, whatever the batching, and
  // every abort was restarted.
  EXPECT_EQ(first.stats.stalls + first.stats.tick_aborts,
            opt.faults.tick_faults.size());
  EXPECT_EQ(first.stats.restarts, first.stats.tick_aborts);
  // Conservation: every admitted ticket landed in exactly one bucket.
  EXPECT_EQ(first.stats.submitted, kRequests);
  EXPECT_EQ(first.stats.completed + first.stats.failed, kRequests);
  // The profile's rates over 16 tickets make faults near-certain; guard
  // against a silently empty plan rendering the test vacuous.
  EXPECT_GT(first.stats.retries + first.stats.failed + first.stats.restarts +
                first.stats.stalls,
            0u);
}

/// Golden pin of a chaotic single-shard run, so a change that shifts two
/// replays alike still shows. Transient solver faults, poison, shard
/// kills and stalls from a seeded plan, a retry budget of 2 and every
/// fifth request expiring at dispatch. One ticket per tick makes every
/// tick fault fire on its ticket's first pop, so the fault counts do not
/// depend on how a wall-clock backoff groups tickets into batches.
TEST(ChaosServiceTest, ChaoticOutcomesArePinned) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(6, 14, 0x9120);
  constexpr std::size_t kRequests = 20;

  ChaosProfile profile;
  profile.solver_fault_rate = 0.25;
  profile.fault_attempts = 2;
  profile.poison_rate = 0.1;
  profile.abort_rate = 0.15;
  profile.stall_rate = 0.15;
  profile.stall_seconds = 0.0002;

  ServiceOptions opt;
  opt.batch_size = 1;
  opt.start_paused = true;
  opt.retry_backoff_base_seconds = 0.0001;
  opt.retry_backoff_cap_seconds = 0.001;
  opt.faults = random_fault_plan(0x9120, kRequests, profile);
  FormationService service(tvof, opt);
  std::vector<RequestHandle> handles;
  for (std::size_t i = 0; i < kRequests; ++i) {
    util::Xoshiro256 rng(5000 + i);
    SubmitOptions submit;
    submit.max_retries = 2;
    if (i % 5 == 4) submit.deadline_seconds = 0.0;
    handles.push_back(service.submit(
        core::FormationRequest{f.instance, f.trust, rng}, submit));
  }
  service.resume();
  service.drain();

  struct Pin {
    const char* state;
    std::uint32_t attempts;
    std::uint64_t rng_probe;
    const char* error;
  };
  // clang-format off
  const std::vector<Pin> kPins = {
      {"done", 1U, 0xa35d0c0b20d53a40ULL, ""},
      {"failed", 3U, 0x0ULL, "injected solver fault (ticket 1, attempt 3)"},
      {"done", 1U, 0xcde2a6617d144afcULL, ""},
      {"done", 3U, 0xbfafaeaceb9fbaaeULL, ""},
      {"deadline_exceeded", 0U, 0x0ULL, ""},
      {"done", 1U, 0xf43ae3a4341bb788ULL, ""},
      {"done", 1U, 0xf1969773f9d2c2e5ULL, ""},
      {"done", 1U, 0x73d507d0ad156ff1ULL, ""},
      {"done", 1U, 0x70f65e85630d30d4ULL, ""},
      {"deadline_exceeded", 0U, 0x0ULL, ""},
      {"done", 3U, 0xe56c4937739d9818ULL, ""},
      {"failed", 3U, 0x0ULL, "injected solver fault (ticket 11, attempt 3)"},
      {"done", 1U, 0x6e02825e5770e372ULL, ""},
      {"done", 3U, 0x4e3de12d83db495aULL, ""},
      {"deadline_exceeded", 0U, 0x0ULL, ""},
      {"done", 1U, 0xc80688d8df6ebc02ULL, ""},
      {"done", 1U, 0x4688caafacd4829dULL, ""},
      {"done", 3U, 0x18d03638574ece42ULL, ""},
      {"done", 1U, 0x826ca8f182296436ULL, ""},
      {"deadline_exceeded", 0U, 0x0ULL, ""},
  };
  // clang-format on
  std::ostringstream actual;
  for (const RequestHandle& h : handles) {
    const RequestOutcome& out = h.outcome();
    actual << "{\"" << to_string(out.state) << "\", " << out.attempts
           << "U, 0x" << std::hex << out.rng_probe << std::dec << "ULL, \""
           << out.error << "\"},\n";
  }
  ASSERT_EQ(handles.size(), kPins.size()) << "actual table:\n" << actual.str();
  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("ticket " + std::to_string(i));
    const RequestOutcome& out = handles[i].outcome();
    EXPECT_STREQ(to_string(out.state), kPins[i].state);
    EXPECT_EQ(out.attempts, kPins[i].attempts);
    EXPECT_EQ(out.rng_probe, kPins[i].rng_probe);
    EXPECT_EQ(out.error, kPins[i].error);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retries, 12u);
  EXPECT_EQ(stats.expired, 4u);
  EXPECT_EQ(stats.restarts, 3u);
  EXPECT_EQ(stats.tick_aborts, 3u);
  EXPECT_EQ(stats.stalls, 4u);
}

/// Heavy mixed chaos plus expiring deadlines: every admitted request
/// still reaches exactly one terminal state and the books balance.
TEST(ChaosServiceTest, NoAdmittedRequestLostUnderHeavyChaos) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(6, 14, 0x10AD);
  constexpr std::size_t kRequests = 12;

  ChaosProfile profile;
  profile.solver_fault_rate = 0.2;
  profile.poison_rate = 0.2;
  profile.abort_rate = 0.3;
  profile.stall_rate = 0.2;
  profile.stall_seconds = 0.0001;

  ServiceOptions opt;
  opt.shards = 2;
  opt.threads = 2;
  opt.batch_size = 2;
  opt.retry_backoff_base_seconds = 0.0001;
  opt.retry_backoff_cap_seconds = 0.001;
  opt.faults = random_fault_plan(0xD00D, kRequests, profile);
  FormationService service(tvof, opt);

  std::vector<RequestHandle> handles;
  for (std::size_t i = 0; i < kRequests; ++i) {
    util::Xoshiro256 rng(7000 + i);
    SubmitOptions submit;
    submit.max_retries = 1;
    if (i % 3 == 2) submit.deadline_seconds = 0.0;  // expires at dispatch
    handles.push_back(service.submit(
        core::FormationRequest{f.instance, f.trust, rng}, submit));
  }
  service.drain();

  std::uint64_t done = 0, failed = 0, expired = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("ticket " + std::to_string(i));
    const TicketState s = handles[i].poll();
    ASSERT_TRUE(is_terminal(s)) << to_string(s);
    if (s == TicketState::Done) ++done;
    if (s == TicketState::Failed) ++failed;
    if (s == TicketState::DeadlineExceeded) ++expired;
  }
  EXPECT_EQ(done + failed + expired, kRequests);
  EXPECT_EQ(expired, kRequests / 3);  // deadline-0 expiry is deterministic

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed, done);
  EXPECT_EQ(stats.failed, failed);
  EXPECT_EQ(stats.expired, expired);
}

}  // namespace
}  // namespace svo::svc
