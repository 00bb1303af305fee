/// Golden pins of sim::StreamEngine runs. The replay tests compare two
/// runs of one build, so they cannot see a change that shifts both runs
/// alike; this table records, per run, FNV-1a hashes over every timeline
/// entry (time bits, kind, request, GSP), every request's outcome,
/// attempts, repair rounds, terminal-time and realized-value bits, every
/// telemetry window (index, start and end bits, each counter, gauge and
/// histogram-snapshot field), every SLO status, and the horizon bits.
///
/// Configurations, two seeds each, telemetry on in all of them:
///  - "churn": perfbench stream_churn's options with 60 s windows and the
///    two objectives StreamTelemetryTest uses;
///  - "defer": the same with admission deferral, a higher floor and a
///    longer backoff, so deferrals and retries run into the 300 s
///    deadline;
///  - "sweep": churn off on the SweepGrid ingest;
///  - "atlas": StreamingAtlas ingest under moderate churn.
///
/// A mismatch prints the whole actual table in the table's own syntax.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/stream_engine.hpp"

namespace svo::sim {
namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

void mix(std::uint64_t& h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffU;
    h *= 1099511628211ULL;
  }
}

void mix(std::uint64_t& h, const std::string& s) {
  mix(h, s.size());
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void mix(std::uint64_t& h, const obs::Histogram::Snapshot& s) {
  mix(h, s.count);
  mix(h, bits(s.sum));
  mix(h, bits(s.min));
  mix(h, bits(s.max));
  for (const std::uint64_t b : s.buckets) mix(h, b);
}

struct Row {
  std::string label;
  std::uint64_t events = 0;    ///< timeline entries
  std::uint64_t timeline = 0;  ///< fnv1a over every timeline entry
  std::uint64_t requests = 0;  ///< fnv1a over every request's result
  std::uint64_t windows = 0;   ///< closed windows retained
  std::uint64_t window_hash = 0;
  std::uint64_t slos = 0;      ///< fnv1a over every SLO status
  std::uint64_t horizon = 0;   ///< bits

  bool operator==(const Row&) const = default;
};

std::string format(const Row& r) {
  std::ostringstream os;
  os << "{\"" << r.label << "\", " << r.events << "U, " << std::hex << "0x"
     << r.timeline << "ULL, 0x" << r.requests << "ULL, " << std::dec
     << r.windows << "U, " << std::hex << "0x" << r.window_hash << "ULL, 0x"
     << r.slos << "ULL, 0x" << r.horizon << "ULL},";
  return os.str();
}

Row row_of(const std::string& label, const StreamResult& r) {
  Row row;
  row.label = label;
  row.events = r.timeline.size();
  row.timeline = kFnvBasis;
  for (const StreamLogEntry& e : r.timeline) {
    mix(row.timeline, bits(e.time));
    mix(row.timeline, static_cast<std::uint64_t>(e.kind));
    mix(row.timeline, e.request);
    mix(row.timeline, e.gsp);
  }
  row.requests = kFnvBasis;
  for (const StreamRequestResult& q : r.requests) {
    mix(row.requests, static_cast<std::uint64_t>(q.outcome));
    mix(row.requests, q.attempts);
    mix(row.requests, q.repair_rounds);
    mix(row.requests, bits(q.terminal_time));
    mix(row.requests, bits(q.realized_value));
  }
  row.windows = r.windows.size();
  row.window_hash = kFnvBasis;
  for (const obs::Window& w : r.windows) {
    mix(row.window_hash, w.index);
    mix(row.window_hash, bits(w.start_time));
    mix(row.window_hash, bits(w.end_time));
    for (const auto& [name, value] : w.counters) {
      mix(row.window_hash, name);
      mix(row.window_hash, value);
    }
    for (const auto& [name, value] : w.gauges) {
      mix(row.window_hash, name);
      mix(row.window_hash, bits(value));
    }
    for (const auto& [name, snap] : w.histograms) {
      mix(row.window_hash, name);
      mix(row.window_hash, snap);
    }
  }
  row.slos = kFnvBasis;
  for (const obs::SloStatus& s : r.slo_status) {
    mix(row.slos, s.name);
    mix(row.slos, s.windows);
    mix(row.slos, s.violations);
    mix(row.slos, static_cast<std::uint64_t>(s.violated_last));
    mix(row.slos, bits(s.budget_consumed));
    mix(row.slos, bits(s.fast_burn));
    mix(row.slos, bits(s.slow_burn));
    mix(row.slos, static_cast<std::uint64_t>(s.breached));
    mix(row.slos, s.breach_onsets);
  }
  row.horizon = bits(r.horizon);
  return row;
}

/// perfbench stream_churn's options, with 60 s telemetry windows and the
/// two objectives of StreamTelemetryTest.
StreamOptions churn_options(std::uint64_t seed) {
  StreamOptions opts;
  opts.base.seed = seed;
  opts.base.gen.params.num_gsps = 8;
  opts.base.task_sizes = {24, 48};
  opts.base.trace.num_jobs = 4000;
  opts.base.trace.canonical_sizes = {24, 48};
  opts.base.trace.min_jobs_per_canonical_size = 8;
  opts.base.solver.max_nodes = 4000;
  opts.base.mechanism.reputation.robust.enabled = true;
  opts.num_requests = 12;
  opts.arrival_interval_seconds = 60.0;
  opts.formation_deadline_seconds = 300.0;
  opts.formation_seconds = 2.0;
  opts.retry_backoff_seconds = 20.0;
  opts.max_attempts = 5;
  opts.admission_floor = 2;
  opts.execution_time_scale = 0.02;
  opts.churn.leave_rate = 1.0 / 600.0;
  opts.churn.crash_rate = 1.0 / 900.0;
  opts.churn.mean_absence_seconds = 150.0;
  opts.churn.rejoin_probability = 0.9;
  opts.churn.seed = seed ^ 0xC1124;

  opts.stats_window_seconds = 60.0;
  obs::SloObjective latency;
  latency.name = "commit_latency_p99";
  latency.kind = obs::SloKind::QuantileBelow;
  latency.metric = "stream.formation_latency_s";
  latency.quantile = 0.99;
  latency.threshold = 10.0 * opts.arrival_interval_seconds;
  obs::SloObjective shed;
  shed.name = "shed_zero";
  shed.kind = obs::SloKind::CounterZero;
  shed.metric = "stream.request_shed";
  opts.slos = {latency, shed};
  return opts;
}

/// Deferral below a floor that churn often breaches, and a backoff long
/// enough that the third retry would land past the 300 s deadline.
StreamOptions defer_options(std::uint64_t seed) {
  StreamOptions opts = churn_options(seed);
  opts.admission_floor = 6;
  opts.defer_below_floor = true;
  opts.retry_backoff_seconds = 90.0;
  return opts;
}

StreamOptions sweep_options(std::uint64_t seed) {
  StreamOptions opts = churn_options(seed);
  opts.churn = ChurnOptions{};
  return opts;
}

/// StreamingAtlas ingest at bench_extension_churn's "moderate" level.
StreamOptions atlas_options(std::uint64_t seed) {
  StreamOptions opts = churn_options(seed);
  opts.ingest = StreamOptions::Ingest::StreamingAtlas;
  opts.max_stream_tasks = 64;
  opts.churn.leave_rate = 1.0 / 300.0;
  opts.churn.crash_rate = 1.0 / 400.0;
  return opts;
}

std::vector<Row> stream_table() {
  std::vector<Row> out;
  for (const std::uint64_t seed : {std::uint64_t{20120910}, std::uint64_t{701}}) {
    const std::string s = " s" + std::to_string(seed);
    out.push_back(row_of("churn" + s, StreamEngine(churn_options(seed)).run()));
    out.push_back(row_of("defer" + s, StreamEngine(defer_options(seed)).run()));
    out.push_back(row_of("sweep" + s, StreamEngine(sweep_options(seed)).run()));
    out.push_back(row_of("atlas" + s, StreamEngine(atlas_options(seed)).run()));
  }
  return out;
}

// clang-format off
const std::vector<Row> kStreamPins = {
    {"churn s20120910", 122U, 0xdedcb4f4330a62c4ULL, 0x2bb521171a8d5c25ULL, 21U, 0x8b75f6b8f3c9e0ccULL, 0x6d52ac22be4adf2ULL, 0x4093a24c3c4791caULL},
    {"defer s20120910", 100U, 0x1eae8e8c03dd38bULL, 0x26b169d28fef8f77ULL, 21U, 0x2a4c42b6c73ae1bcULL, 0x6d52ac22be4adf2ULL, 0x4093a24c3c4791caULL},
    {"sweep s20120910", 48U, 0x4b10053886ef8205ULL, 0x9967409e3d56c4eULL, 16U, 0x858d776ac6f01fe8ULL, 0x4cb14c5aad5fdd90ULL, 0x408e000000000000ULL},
    {"atlas s20120910", 153U, 0x614eb46edc253bfULL, 0x57c948fcc56753c6ULL, 24U, 0x8e1efa2a73167324ULL, 0x4127058b761b5620ULL, 0x409678b1ac2ee6b1ULL},
    {"churn s701", 119U, 0x1e7bf6ccdc0ad264ULL, 0xd7575f14bf7c4facULL, 24U, 0xbd90e3b01a963b0aULL, 0x6ff0d9f127233deaULL, 0x40959fd2a0e6db0fULL},
    {"defer s701", 98U, 0x5ada1a4da91173b1ULL, 0xc5cd336dbea1a29bULL, 24U, 0x17b456f15075d500ULL, 0x4127058b761b5620ULL, 0x40959fd2a0e6db0fULL},
    {"sweep s701", 49U, 0xd5f789d92e8831dfULL, 0x47122ca75fb73a8bULL, 16U, 0xdec8dc3f5e132314ULL, 0x4cb14c5aad5fdd90ULL, 0x408e000000000000ULL},
    {"atlas s701", 134U, 0xf3bc7bfa83a5cadaULL, 0xd4b73f4e6c5b6befULL, 24U, 0x1e5eca6fc7cec1ebULL, 0x8f440f4f0f786453ULL, 0x409630ebaada1308ULL},
};
// clang-format on

TEST(StreamPinTest, EveryRunIsPinned) {
  const std::vector<Row> got = stream_table();
  std::ostringstream actual;
  for (const Row& r : got) actual << format(r) << "\n";
  ASSERT_EQ(got.size(), kStreamPins.size())
      << "actual table:\n" << actual.str();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kStreamPins[i])
        << "want " << format(kStreamPins[i]) << "\n got  " << format(got[i]);
  }
}

/// The pinned configurations exercise what they are named for: the
/// deferral runs defer and time out, churn and atlas runs see churn, the
/// sweep runs none, and every run closes telemetry windows.
TEST(StreamPinTest, ConfigurationsExerciseTheirPaths) {
  for (const std::uint64_t seed : {std::uint64_t{20120910}, std::uint64_t{701}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto count = [](const StreamResult& r, StreamEventKind kind) {
      std::size_t n = 0;
      for (const StreamLogEntry& e : r.timeline) n += e.kind == kind;
      return n;
    };
    const StreamResult defer = StreamEngine(defer_options(seed)).run();
    EXPECT_GT(count(defer, StreamEventKind::AdmissionDefer), 0u);
    EXPECT_GT(defer.timed_out, 0u);
    const StreamResult churn = StreamEngine(churn_options(seed)).run();
    EXPECT_GT(count(churn, StreamEventKind::GspCrashed) +
                  count(churn, StreamEventKind::GspLeft),
              0u);
    const StreamResult sweep = StreamEngine(sweep_options(seed)).run();
    EXPECT_TRUE(sweep.churn_schedule.empty());
    const StreamResult atlas = StreamEngine(atlas_options(seed)).run();
    EXPECT_FALSE(atlas.churn_schedule.empty());
    for (const StreamResult* r : {&defer, &churn, &sweep, &atlas}) {
      EXPECT_EQ(r->lost, 0u);
      EXPECT_GT(r->windows.size(), 1u);
      EXPECT_EQ(r->slo_status.size(), 2u);
    }
  }
}

}  // namespace
}  // namespace svo::sim
