#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace svo::sim {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.trace.num_jobs = 3000;
  cfg.trace.min_jobs_per_canonical_size = 4;
  cfg.trace.canonical_sizes = {32, 64};
  cfg.task_sizes = {32, 64};
  cfg.repetitions = 2;
  cfg.gen.params.num_gsps = 6;
  return cfg;
}

TEST(ScenarioFactoryTest, TraceBuiltOnceWithExpectedSize) {
  const ScenarioFactory factory(small_config());
  EXPECT_EQ(factory.trace().jobs.size(), 3000u);
}

TEST(ScenarioFactoryTest, ScenarioShapeMatchesConfig) {
  const ScenarioFactory factory(small_config());
  const Scenario s = factory.make(32, 0);
  EXPECT_EQ(s.instance.assignment.num_tasks(), 32u);
  EXPECT_EQ(s.instance.assignment.num_gsps(), 6u);
  EXPECT_EQ(s.trust.size(), 6u);
  s.instance.assignment.validate();
}

TEST(ScenarioFactoryTest, DeterministicPerKey) {
  const ScenarioFactory factory(small_config());
  const Scenario a = factory.make(64, 1);
  const Scenario b = factory.make(64, 1);
  EXPECT_DOUBLE_EQ(a.instance.assignment.deadline,
                   b.instance.assignment.deadline);
  EXPECT_DOUBLE_EQ(a.instance.assignment.payment,
                   b.instance.assignment.payment);
  EXPECT_EQ(a.tvof_seed, b.tvof_seed);
  EXPECT_EQ(a.rvof_seed, b.rvof_seed);
  EXPECT_EQ(a.trust.graph().edge_count(), b.trust.graph().edge_count());
}

TEST(ScenarioFactoryTest, DifferentRepetitionsDiffer) {
  const ScenarioFactory factory(small_config());
  const Scenario a = factory.make(64, 0);
  const Scenario b = factory.make(64, 1);
  EXPECT_NE(a.tvof_seed, b.tvof_seed);
  // Payment draw almost surely differs across repetitions.
  EXPECT_NE(a.instance.assignment.payment, b.instance.assignment.payment);
}

TEST(ScenarioFactoryTest, MechanismSeedsAreDistinct) {
  const ScenarioFactory factory(small_config());
  const Scenario s = factory.make(32, 0);
  EXPECT_NE(s.tvof_seed, s.rvof_seed);
}

/// Same program, instance data and trust edges, bit for bit.
void expect_same_scenario(const Scenario& a, const Scenario& b) {
  EXPECT_EQ(a.instance.program.source_job, b.instance.program.source_job);
  EXPECT_EQ(a.instance.assignment.cost.data(),
            b.instance.assignment.cost.data());
  EXPECT_EQ(a.instance.assignment.time.data(),
            b.instance.assignment.time.data());
  EXPECT_EQ(a.instance.assignment.deadline, b.instance.assignment.deadline);
  EXPECT_EQ(a.instance.assignment.payment, b.instance.assignment.payment);
  EXPECT_EQ(a.trust.graph().adjacency_matrix().data(),
            b.trust.graph().adjacency_matrix().data());
  EXPECT_EQ(a.tvof_seed, b.tvof_seed);
}

TEST(ScenarioFactoryTest, CopyOutlivesItsOriginal) {
  // The eligible-job index holds positions in the factory's own trace,
  // so a copy keeps working after the original is gone.
  auto original = std::make_unique<ScenarioFactory>(small_config());
  const Scenario want = original->make(64, 1);
  const ScenarioFactory copy = *original;
  original.reset();
  expect_same_scenario(copy.make(64, 1), want);
}

TEST(ScenarioFactoryTest, ConcurrentMakeMatchesSerial) {
  const ScenarioFactory factory(small_config());
  constexpr std::size_t kThreads = 4;
  std::vector<Scenario> serial;
  for (std::size_t i = 0; i < kThreads; ++i) {
    serial.push_back(factory.make(i % 2 == 0 ? 32 : 64, i / 2));
  }
  std::vector<Scenario> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      concurrent[i] = factory.make(i % 2 == 0 ? 32 : 64, i / 2);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i) {
    SCOPED_TRACE(i);
    expect_same_scenario(concurrent[i], serial[i]);
  }
}

TEST(ScenarioFactoryTest, UnknownSizeThrows) {
  const ScenarioFactory factory(small_config());
  EXPECT_THROW((void)factory.make(7777, 0), InvalidArgument);
}

}  // namespace
}  // namespace svo::sim
