/// The service determinism contract (service.hpp): a ticket's outcome is
/// a pure function of its request, never of thread interleaving.
/// Pinned here:
///   - single-shard service ≡ direct core run(), bit for bit, RNG probe
///     included, and submit() never advances the caller's generator;
///   - cancel-before-dispatch means the solver never ran;
///   - queue-full shed/defer accounting is exact (paused service gives a
///     deterministic full queue);
///   - same-seed multi-shard replays are per-ticket identical;
///   - ServiceOptions validation throws typed InvalidArgument.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/tvof.hpp"
#include "ip/bnb.hpp"
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

/// Exact equality over every functional MechanismResult field
/// (elapsed_seconds is wall clock and legitimately differs).
void expect_bit_identical(const core::MechanismResult& a,
                          const core::MechanismResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.selected.bits(), b.selected.bits());
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.payoff_share, b.payoff_share);
  EXPECT_EQ(a.avg_global_reputation, b.avg_global_reputation);
  EXPECT_EQ(a.global_reputation, b.global_reputation);
  EXPECT_EQ(a.stats.nodes, b.stats.nodes);
  EXPECT_EQ(a.stats.status, b.stats.status);
  ASSERT_EQ(a.journal.size(), b.journal.size());
  for (std::size_t i = 0; i < a.journal.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    EXPECT_EQ(a.journal[i].coalition.bits(), b.journal[i].coalition.bits());
    EXPECT_EQ(a.journal[i].feasible, b.journal[i].feasible);
    EXPECT_EQ(a.journal[i].cost, b.journal[i].cost);
    EXPECT_EQ(a.journal[i].removed_gsp, b.journal[i].removed_gsp);
    EXPECT_EQ(a.journal[i].stats.nodes, b.journal[i].stats.nodes);
  }
}

TEST(ServiceOptionsTest, ValidRangesPass) {
  ServiceOptions opt;
  EXPECT_NO_THROW(opt.validate());
  opt.shards = 8;
  opt.queue_capacity = 8;
  opt.batch_size = 8;
  EXPECT_NO_THROW(opt.validate());
}

TEST(ServiceOptionsTest, ZeroShardsThrows) {
  ServiceOptions opt;
  opt.shards = 0;
  EXPECT_THROW(opt.validate(), InvalidArgument);
}

TEST(ServiceOptionsTest, ZeroQueueCapacityThrows) {
  ServiceOptions opt;
  opt.queue_capacity = 0;
  EXPECT_THROW(opt.validate(), InvalidArgument);
}

TEST(ServiceOptionsTest, ZeroBatchSizeThrows) {
  ServiceOptions opt;
  opt.batch_size = 0;
  EXPECT_THROW(opt.validate(), InvalidArgument);
}

TEST(ServiceOptionsTest, BatchAboveCapacityThrows) {
  ServiceOptions opt;
  opt.queue_capacity = 4;
  opt.batch_size = 5;
  EXPECT_THROW(opt.validate(), InvalidArgument);
}

TEST(ServiceOptionsTest, ConstructorValidates) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  ServiceOptions opt;
  opt.shards = 0;
  EXPECT_THROW(FormationService(tvof, opt), InvalidArgument);
}

TEST(TicketStateTest, TerminalPartitionAndNames) {
  EXPECT_FALSE(is_terminal(TicketState::Queued));
  EXPECT_FALSE(is_terminal(TicketState::Running));
  EXPECT_TRUE(is_terminal(TicketState::Done));
  EXPECT_TRUE(is_terminal(TicketState::Cancelled));
  EXPECT_TRUE(is_terminal(TicketState::Shed));
  EXPECT_TRUE(is_terminal(TicketState::Deferred));
  EXPECT_STREQ(to_string(TicketState::Done), "done");
  EXPECT_STREQ(to_string(TicketState::Shed), "shed");
}

/// The headline equivalence: a single-shard service produces the exact
/// MechanismResult a direct synchronous run() produces — same VO, same
/// cost, same journal, same solver node counts — and the RNG probe
/// proves the service consumed randomness identically.
TEST(FormationServiceTest, SingleShardMatchesDirectRunBitForBit) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(6, 16, 0x5E21);

  util::Xoshiro256 rng_direct(99);
  const core::MechanismResult direct =
      tvof.run(core::FormationRequest{f.instance, f.trust, rng_direct});
  const std::uint64_t probe_direct = rng_direct();

  util::Xoshiro256 rng_svc(99);
  const std::uint64_t caller_state_probe = [&] {
    util::Xoshiro256 copy = rng_svc;  // peek without advancing
    return copy();
  }();
  FormationService service(tvof, ServiceOptions{});
  RequestHandle h =
      service.submit(core::FormationRequest{f.instance, f.trust, rng_svc});
  EXPECT_EQ(h.wait(), TicketState::Done);
  const RequestOutcome& out = h.outcome();

  ASSERT_EQ(out.state, TicketState::Done);
  expect_bit_identical(direct, out.result, "single shard vs direct");
  // Identical RNG consumption: the first post-run draw matches.
  EXPECT_EQ(out.rng_probe, probe_direct);
  // submit() snapshots state; the caller's generator was never advanced.
  EXPECT_EQ(rng_svc(), caller_state_probe);
}

/// Candidate pools and warm-start policy ride through the service
/// unchanged.
TEST(FormationServiceTest, RestrictedPoolMatchesDirectRun) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(6, 14, 0xB007);
  const game::Coalition pool =
      game::Coalition::all(f.instance.num_gsps()).without(1);

  util::Xoshiro256 rng_direct(7);
  const core::MechanismResult direct = tvof.run(
      core::FormationRequest{f.instance, f.trust, rng_direct, pool,
                             core::WarmStartPolicy::Off});

  util::Xoshiro256 rng_svc(7);
  FormationService service(tvof);
  RequestHandle h =
      service.submit(core::FormationRequest{f.instance, f.trust, rng_svc, pool,
                                            core::WarmStartPolicy::Off});
  ASSERT_EQ(h.wait(), TicketState::Done);
  const RequestOutcome& out = h.outcome();
  expect_bit_identical(direct, out.result, "restricted pool");
}

/// cancel() racing nothing (paused service) always wins, and a cancelled
/// ticket's solver never runs: solver_runs stays 0 and the outcome
/// carries no journal.
TEST(FormationServiceTest, CancelBeforeDispatchNeverRunsSolver) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 3);

  ServiceOptions opt;
  opt.start_paused = true;
  FormationService service(tvof, opt);
  util::Xoshiro256 rng(1);
  RequestHandle h =
      service.submit(core::FormationRequest{f.instance, f.trust, rng});
  EXPECT_EQ(h.poll(), TicketState::Queued);
  EXPECT_TRUE(h.cancel());
  EXPECT_EQ(h.poll(), TicketState::Cancelled);
  EXPECT_FALSE(h.cancel());  // second cancel lost: already terminal
  service.resume();
  service.drain();

  EXPECT_EQ(h.wait(), TicketState::Cancelled);
  const RequestOutcome& out = h.outcome();
  EXPECT_EQ(out.state, TicketState::Cancelled);
  EXPECT_TRUE(out.result.journal.empty());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solver_runs, 0u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.submitted, 1u);
}

TEST(FormationServiceTest, CancelAfterCompletionReturnsFalse) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 4);
  FormationService service(tvof);
  util::Xoshiro256 rng(2);
  RequestHandle h =
      service.submit(core::FormationRequest{f.instance, f.trust, rng});
  h.wait();
  EXPECT_FALSE(h.cancel());
  EXPECT_EQ(h.poll(), TicketState::Done);
}

/// Queue-full accounting is exact: capacity C admits exactly C tickets;
/// every further submit is shed, terminally and immediately, and the
/// admitted ones all still complete.
TEST(FormationServiceTest, QueueFullShedAccountingIsExact) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 8);

  ServiceOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 4;
  opt.batch_size = 2;
  opt.start_paused = true;  // nothing drains: the queue genuinely fills
  FormationService service(tvof, opt);

  std::vector<RequestHandle> handles;
  for (std::size_t i = 0; i < 7; ++i) {
    util::Xoshiro256 rng(100 + i);
    handles.push_back(
        service.submit(core::FormationRequest{f.instance, f.trust, rng}));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(handles[i].poll(), TicketState::Queued) << "handle " << i;
  }
  for (std::size_t i = 4; i < 7; ++i) {
    EXPECT_EQ(handles[i].poll(), TicketState::Shed) << "handle " << i;
    EXPECT_TRUE(handles[i].done());
    // Shed is decided at submit: wait() returns without blocking and the
    // outcome carries no result.
    EXPECT_EQ(handles[i].wait(), TicketState::Shed);
    EXPECT_TRUE(handles[i].outcome().result.journal.empty());
  }

  service.resume();
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.deferred, 0u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.solver_runs, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(handles[i].poll(), TicketState::Done) << "handle " << i;
  }
  // Batch drains of 2 over 4 tickets: at least two ticks ran.
  EXPECT_GE(stats.ticks, 2u);
}

TEST(FormationServiceTest, QueueFullDefersUnderDeferPolicy) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 9);

  ServiceOptions opt;
  opt.queue_capacity = 2;
  opt.batch_size = 2;
  opt.overload = OverloadPolicy::Defer;
  opt.start_paused = true;
  FormationService service(tvof, opt);

  std::vector<RequestHandle> handles;
  for (std::size_t i = 0; i < 3; ++i) {
    util::Xoshiro256 rng(i);
    handles.push_back(
        service.submit(core::FormationRequest{f.instance, f.trust, rng}));
  }
  EXPECT_EQ(handles[2].poll(), TicketState::Deferred);
  service.resume();
  // Deferred means retryable: after capacity opens up, an identical
  // re-submission is admitted and completes.
  service.drain();
  util::Xoshiro256 rng_retry(2);
  RequestHandle retried =
      service.submit(core::FormationRequest{f.instance, f.trust, rng_retry});
  EXPECT_EQ(retried.wait(), TicketState::Done);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deferred, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
}

/// Same-seed replay across a multi-shard, multi-thread service: every
/// ticket's outcome (selection, cost, RNG probe, shard route) is
/// bit-identical between two runs, regardless of interleaving.
TEST(FormationServiceTest, MultiShardSameSeedReplayIsIdentical) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(6, 14, 0x4E44);
  constexpr std::size_t kRequests = 12;

  ServiceOptions opt;
  opt.shards = 4;
  opt.threads = 4;
  opt.batch_size = 2;

  auto run_once = [&] {
    std::vector<RequestOutcome> outs;
    FormationService service(tvof, opt);
    std::vector<RequestHandle> handles;
    for (std::size_t i = 0; i < kRequests; ++i) {
      util::Xoshiro256 rng(1000 + i * 17);
      handles.push_back(
          service.submit(core::FormationRequest{f.instance, f.trust, rng}));
    }
    service.drain();
    for (const RequestHandle& h : handles) {
      h.wait();
      outs.push_back(h.outcome());
    }
    return outs;
  };

  const std::vector<RequestOutcome> first = run_once();
  const std::vector<RequestOutcome> second = run_once();
  ASSERT_EQ(first.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("ticket " + std::to_string(i));
    EXPECT_EQ(first[i].ticket, second[i].ticket);
    EXPECT_EQ(first[i].shard, second[i].shard);
    EXPECT_EQ(first[i].state, TicketState::Done);
    EXPECT_EQ(second[i].state, TicketState::Done);
    EXPECT_EQ(first[i].rng_probe, second[i].rng_probe);
    expect_bit_identical(first[i].result, second[i].result, "replay");
  }
}

/// A multi-shard run agrees with direct synchronous runs request by
/// request: sharding partitions work, it never changes outcomes.
TEST(FormationServiceTest, MultiShardMatchesDirectRunPerRequest) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(6, 14, 0xD1CE);
  constexpr std::size_t kRequests = 8;

  ServiceOptions opt;
  opt.shards = 3;
  opt.threads = 3;
  FormationService service(tvof, opt);
  std::vector<RequestHandle> handles;
  for (std::size_t i = 0; i < kRequests; ++i) {
    util::Xoshiro256 rng(500 + i);
    handles.push_back(
        service.submit(core::FormationRequest{f.instance, f.trust, rng}));
  }
  service.drain();
  for (std::size_t i = 0; i < kRequests; ++i) {
    util::Xoshiro256 rng(500 + i);
    const core::MechanismResult direct =
        tvof.run(core::FormationRequest{f.instance, f.trust, rng});
    ASSERT_EQ(handles[i].wait(), TicketState::Done);
    const RequestOutcome& out = handles[i].outcome();
    expect_bit_identical(direct, out.result,
                         "request " + std::to_string(i));
    EXPECT_EQ(out.rng_probe, rng());
  }
}

TEST(FormationServiceTest, RoutingKeyPartitionsDeterministically) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 11);
  ServiceOptions opt;
  opt.shards = 4;
  opt.start_paused = true;  // routing is decided at submit; no need to run
  FormationService service(tvof, opt);
  util::Xoshiro256 rng(1);
  for (std::size_t key = 0; key < 9; ++key) {
    SubmitOptions submit;
    submit.routing_key = key;
    RequestHandle h =
        service.submit(core::FormationRequest{f.instance, f.trust, rng}, submit);
    EXPECT_EQ(h.shard(), key % 4) << "key " << key;
  }
  // Default routing: dense ticket ids round-robin the shards.
  RequestHandle a =
      service.submit(core::FormationRequest{f.instance, f.trust, rng});
  RequestHandle b =
      service.submit(core::FormationRequest{f.instance, f.trust, rng});
  EXPECT_EQ(a.shard(), a.id() % 4);
  EXPECT_EQ(b.shard(), b.id() % 4);
  EXPECT_EQ(b.id(), a.id() + 1);
  service.resume();
  service.drain();
}

TEST(FormationServiceTest, DrainWhilePausedThrows) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  ServiceOptions opt;
  opt.start_paused = true;
  FormationService service(tvof, opt);
  EXPECT_THROW(service.drain(), InvalidArgument);
  service.resume();
  EXPECT_NO_THROW(service.drain());  // nothing outstanding
}

/// Handles share state with the service but outlive it: outcomes stay
/// readable after destruction, and the destructor itself drains (every
/// admitted ticket resolves even when the service dies paused).
TEST(FormationServiceTest, HandlesOutliveTheService) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 21);
  std::vector<RequestHandle> handles;
  {
    ServiceOptions opt;
    opt.start_paused = true;  // dtor must resume + drain on its own
    FormationService service(tvof, opt);
    for (std::size_t i = 0; i < 3; ++i) {
      util::Xoshiro256 rng(i);
      handles.push_back(
          service.submit(core::FormationRequest{f.instance, f.trust, rng}));
    }
  }
  for (const RequestHandle& h : handles) {
    EXPECT_EQ(h.poll(), TicketState::Done);
    EXPECT_TRUE(h.outcome().result.success);
    EXPECT_FALSE(h.cancel());  // terminal: never reaches the dead service
  }
}

/// The service's local metric registry exposes the per-shard counters
/// with stable names, and the totals agree with stats().
TEST(FormationServiceTest, MetricsRegistryCarriesPerShardCounters) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const Fixture f = make_fixture(5, 12, 31);
  ServiceOptions opt;
  opt.shards = 2;
  FormationService service(tvof, opt);
  std::vector<RequestHandle> handles;
  for (std::size_t i = 0; i < 4; ++i) {
    util::Xoshiro256 rng(i);
    handles.push_back(
        service.submit(core::FormationRequest{f.instance, f.trust, rng}));
  }
  service.drain();
  const obs::MetricRegistry& reg = service.metrics();
  const std::uint64_t shard0 = reg.counter_value("svc.shard0.solved");
  const std::uint64_t shard1 = reg.counter_value("svc.shard1.solved");
  EXPECT_EQ(shard0 + shard1, 4u);
  EXPECT_EQ(shard0, 2u);  // dense ids round-robin two shards evenly
  EXPECT_EQ(shard1, 2u);
  EXPECT_EQ(reg.counter_value("svc.ticks"),
            reg.counter_value("svc.shard0.ticks") +
                reg.counter_value("svc.shard1.ticks"));
  EXPECT_EQ(service.stats().solver_runs, 4u);
  // Latency histograms observed every completed ticket.
  EXPECT_GT(service.stats().solve_p50_us, 0.0);
}

}  // namespace
}  // namespace svo::svc
