#include "trace/atlas_synth.hpp"

#include <gtest/gtest.h>

#include <string>

#include "trace/programs.hpp"
#include "util/error.hpp"

namespace svo::trace {
namespace {

AtlasSynthOptions small_opts() {
  AtlasSynthOptions o;
  o.num_jobs = 4000;
  o.min_jobs_per_canonical_size = 5;
  return o;
}

TEST(AtlasSynthTest, JobCountAndHeader) {
  const Trace t = generate_atlas_like(small_opts(), 1);
  EXPECT_EQ(t.jobs.size(), 4000u);
  EXPECT_FALSE(t.header.empty());
}

TEST(AtlasSynthTest, CompletedFractionNearTarget) {
  const Trace t = generate_atlas_like(small_opts(), 2);
  const TraceStats s = compute_stats(t.jobs);
  EXPECT_NEAR(static_cast<double>(s.completed_jobs) / 4000.0, 0.5, 0.05);
}

TEST(AtlasSynthTest, LongFractionNearPaperValue) {
  AtlasSynthOptions o = small_opts();
  o.num_jobs = 20'000;
  const Trace t = generate_atlas_like(o, 3);
  const TraceStats s = compute_stats(t.jobs);
  // Paper: ~13% of completed jobs have runtime > 7200 s. Canonical-size
  // retagging adds a small bias upward; allow a generous band.
  EXPECT_NEAR(s.long_fraction(), 0.13, 0.035);
}

TEST(AtlasSynthTest, ProcessorRangeRespected) {
  const Trace t = generate_atlas_like(small_opts(), 4);
  for (const auto& j : t.jobs) {
    EXPECT_GE(j.allocated_processors, 8);
    EXPECT_LE(j.allocated_processors, 8832);
  }
}

TEST(AtlasSynthTest, CanonicalSizesHaveEnoughMaterial) {
  const AtlasSynthOptions o = small_opts();
  const Trace t = generate_atlas_like(o, 5);
  for (const std::int64_t size : o.canonical_sizes) {
    EXPECT_GE(count_eligible(t.jobs, static_cast<std::size_t>(size)),
              o.min_jobs_per_canonical_size)
        << "size " << size;
  }
}

TEST(AtlasSynthTest, DeterministicInSeed) {
  const Trace a = generate_atlas_like(small_opts(), 42);
  const Trace b = generate_atlas_like(small_opts(), 42);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    ASSERT_EQ(a.jobs[i].job_number, b.jobs[i].job_number);
    ASSERT_DOUBLE_EQ(a.jobs[i].run_time, b.jobs[i].run_time);
  }
}

TEST(AtlasSynthTest, SortedBySubmitTime) {
  const Trace t = generate_atlas_like(small_opts(), 6);
  for (std::size_t i = 1; i < t.jobs.size(); ++i) {
    EXPECT_LE(t.jobs[i - 1].submit_time, t.jobs[i].submit_time);
  }
}

TEST(AtlasSynthTest, RuntimesPositiveAndCpuTimeBelowWallClock) {
  const Trace t = generate_atlas_like(small_opts(), 7);
  for (const auto& j : t.jobs) {
    EXPECT_GT(j.run_time, 0.0);
    EXPECT_LE(j.avg_cpu_time, j.run_time + 1e-9);
    EXPECT_GE(j.avg_cpu_time, 0.5 * j.run_time);
  }
}

TEST(AtlasSynthTest, RejectsBadOptions) {
  AtlasSynthOptions o = small_opts();
  o.num_jobs = 0;
  EXPECT_THROW((void)generate_atlas_like(o, 1), InvalidArgument);
  o = small_opts();
  o.completed_fraction = 1.5;
  EXPECT_THROW((void)generate_atlas_like(o, 1), InvalidArgument);
  o = small_opts();
  o.min_processors = 0;
  EXPECT_THROW((void)generate_atlas_like(o, 1), InvalidArgument);
}

TEST(AtlasSynthTest, UncoverableCanonicalSizeRejected) {
  // Four jobs cannot hold eight large jobs at each of two sizes. The
  // retag loop skips jobs that are already canonical, so it used to draw
  // forever once all four were.
  AtlasSynthOptions o;
  o.num_jobs = 4;
  o.canonical_sizes = {24, 48};
  o.min_jobs_per_canonical_size = 8;
  try {
    (void)generate_atlas_like(o, 1);
    ADD_FAILURE() << "an uncoverable canonical size was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("canonical size 24"),
              std::string::npos)
        << e.what();
  }
  // Exactly enough jobs: every one of the four is retagged.
  o.min_jobs_per_canonical_size = 2;
  const Trace t = generate_atlas_like(o, 1);
  EXPECT_EQ(count_eligible(t.jobs, 24) + count_eligible(t.jobs, 48), 4u);
}

}  // namespace
}  // namespace svo::trace
