/// Unit tests for the observability spine: JsonWriter, the metric
/// primitives + registry, the Recorder/Span pair, and the exporters.
/// Exported JSON is checked with a small recursive-descent validator
/// written here — the trace must parse, not just look plausible.
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace svo::obs {
namespace {

// --------------------------------------------------------- JSON validator

/// Minimal RFC 8259 parser: validates syntax, counts nothing. Returns
/// true iff `text` is exactly one valid JSON value.
class JsonValidator {
 public:
  static bool valid(std::string_view text) {
    JsonValidator v(text);
    v.skip_ws();
    if (!v.value()) return false;
    v.skip_ws();
    return v.pos_ == text.size();
  }

 private:
  explicit JsonValidator(std::string_view t) : text_(t) {}

  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               text_[pos_ - 1]));
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(JsonValidatorTest, SanityOnKnownInputs) {
  EXPECT_TRUE(JsonValidator::valid(R"({"a": [1, 2.5, -3e4], "b": null})"));
  EXPECT_TRUE(JsonValidator::valid(R"("just a string")"));
  EXPECT_FALSE(JsonValidator::valid(R"({"a": 1,})"));
  EXPECT_FALSE(JsonValidator::valid(R"({"a" 1})"));
  EXPECT_FALSE(JsonValidator::valid("{\"a\": \"\x01\"}"));
  EXPECT_FALSE(JsonValidator::valid("{} trailing"));
}

// ------------------------------------------------------------- JsonWriter

TEST(JsonWriterTest, WritesNestedStructures) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "svo").kv("count", 3).kv("ok", true);
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("nested").begin_object().kv("x", 0.5).end_object();
  w.end_object();
  EXPECT_EQ(os.str(),
            R"({"name":"svo","count":3,"ok":true,"list":[1,2],"nested":{"x":0.5}})");
  EXPECT_TRUE(JsonValidator::valid(os.str()));
}

TEST(JsonWriterTest, EscapesStrings) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("k", "quote\" backslash\\ newline\n tab\t bell\x01");
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\"k\":\"quote\\\" backslash\\\\ newline\\n tab\\t "
            "bell\\u0001\"}");
  EXPECT_TRUE(JsonValidator::valid(os.str()));
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::nan(""));
  w.value(INFINITY);
  w.value(-INFINITY);
  w.value(1.25);
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null,null,1.25]");
  EXPECT_TRUE(JsonValidator::valid(os.str()));
}

TEST(JsonWriterTest, IntegersKeepFullPrecision) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::uint64_t{18446744073709551615ULL});
  w.value(std::int64_t{-9223372036854775807LL});
  w.end_array();
  EXPECT_EQ(os.str(), "[18446744073709551615,-9223372036854775807]");
}

TEST(JsonWriterTest, PrettyModeIsValidJson) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.kv("a", 1);
  w.key("b").begin_array().value(1).value(2).end_array();
  w.end_object();
  EXPECT_TRUE(JsonValidator::valid(os.str()));
  EXPECT_NE(os.str().find('\n'), std::string::npos);
}

TEST(JsonWriterTest, MisuseThrows) {
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1), InvalidArgument);  // value without key
  }
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_array();
    EXPECT_THROW(w.key("k"), InvalidArgument);  // key inside array
  }
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.end_array(), InvalidArgument);  // mismatched close
  }
}

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, CounterAddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeKeepsLastValue) {
  Gauge g;
  g.set(1.5);
  g.set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

TEST(MetricsTest, HistogramBucketsByPowerOfTwo) {
  Histogram h;
  h.observe(0.5);   // bucket 0: v < 1
  h.observe(1.0);   // bucket 1: [1, 2)
  h.observe(3.0);   // bucket 2: [2, 4)
  h.observe(3.9);   // bucket 2
  h.observe(std::nan(""));  // ignored
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 8.4);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 3.9);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
}

TEST(MetricsTest, EmptyHistogramQuantileIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
}

TEST(MetricsTest, SingleSampleQuantileIsExact) {
  Histogram h;
  h.observe(37.5);
  const Histogram::Snapshot s = h.snapshot();
  // One sample: min == max pins every quantile exactly via the clamp.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 37.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 37.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 37.5);
}

TEST(MetricsTest, QuantileEndpointsClampToTrackedMinMax) {
  Histogram h;
  for (const double v : {3.0, 5.0, 700.0, 900.0}) h.observe(v);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 900.0);
}

TEST(MetricsTest, QuantileWithinDocumentedFactorTwoOfPercentile) {
  // The documented bound: the log2-bucket estimate lands in the same
  // power-of-two bucket as the true order statistic, so it is within a
  // factor of 2. Check against util::percentile on a skewed sample.
  util::Xoshiro256 rng(20120912);
  Histogram h;
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) {
    // Log-uniform over ~[1, 4096]: every bucket gets traffic.
    const double v = std::exp2(12.0 * rng.uniform());
    samples.push_back(v);
    h.observe(v);
  }
  const Histogram::Snapshot s = h.snapshot();
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    const double exact = util::percentile(samples, q);
    const double est = s.quantile(q);
    EXPECT_GE(est, exact / 2.0) << "q=" << q;
    EXPECT_LE(est, exact * 2.0) << "q=" << q;
  }
}

TEST(MetricsTest, QuantileIsMonotoneInQ) {
  util::Xoshiro256 rng(7);
  Histogram h;
  for (int i = 0; i < 512; ++i) h.observe(1.0 + 200.0 * rng.uniform());
  const Histogram::Snapshot s = h.snapshot();
  double prev = s.quantile(0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double cur = s.quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

TEST(MetricRegistryTest, ReferencesAreStableAcrossInserts) {
  MetricRegistry reg;
  Counter& a = reg.counter("a");
  a.add(7);
  // Force rebalancing-ish growth; std::map nodes are stable anyway, the
  // test pins the contract.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i)).add();
  }
  EXPECT_EQ(&a, &reg.counter("a"));
  EXPECT_EQ(a.value(), 7u);
}

TEST(MetricRegistryTest, KindMismatchThrows) {
  MetricRegistry reg;
  (void)reg.counter("x");
  EXPECT_THROW((void)reg.gauge("x"), InvalidArgument);
  EXPECT_THROW((void)reg.histogram("x"), InvalidArgument);
}

TEST(MetricRegistryTest, ReadersReturnZeroForAbsentMetrics) {
  MetricRegistry reg;
  EXPECT_EQ(reg.counter_value("ghost"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("ghost"), 0.0);
  EXPECT_TRUE(reg.names().empty());  // reads must not create entries
}

TEST(MetricRegistryTest, ResetZeroesButKeepsNames) {
  MetricRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(2.0);
  reg.histogram("h").observe(1.0);
  reg.reset();
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 0.0);
  EXPECT_EQ(reg.histogram("h").snapshot().count, 0u);
  // Creating a histogram auto-registers the shared bad-sample counter.
  EXPECT_EQ(reg.names(),
            (std::vector<std::string>{"c", "g", "h", "obs.error.bad_sample"}));
}

TEST(MetricRegistryTest, WriteJsonIsValid) {
  MetricRegistry reg;
  reg.counter("runs").add(3);
  reg.gauge("last_cost").set(12.5);
  reg.histogram("nodes").observe(100.0);
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_TRUE(JsonValidator::valid(os.str()));
  EXPECT_NE(os.str().find("\"runs\""), std::string::npos);
  EXPECT_NE(os.str().find("\"last_cost\""), std::string::npos);
  EXPECT_NE(os.str().find("\"nodes\""), std::string::npos);
}

// --------------------------------------------------------- Recorder/Span

/// Every recorder test runs against the process-wide singleton: restore
/// a clean disabled state on both sides.
class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Recorder::instance().disable();
    Recorder::instance().clear();
  }
  void TearDown() override {
    Recorder::instance().disable();
    Recorder::instance().clear();
  }
};

TEST_F(RecorderTest, DisabledSpanIsInactiveAndRecordsNothing) {
  {
    Span span("test.disabled", "test");
    EXPECT_FALSE(span.active());
    span.arg("k", 1.0);  // must be a no-op, not a crash
  }
  EXPECT_EQ(Recorder::instance().event_count(), 0u);
}

TEST_F(RecorderTest, RecordIsNoopWhenDisabled) {
  TraceEvent ev;
  ev.name = "manual";
  Recorder::instance().record(std::move(ev));
  EXPECT_EQ(Recorder::instance().event_count(), 0u);
}

TEST_F(RecorderTest, EnabledSpanRecordsNameCategoryArgs) {
  Recorder::instance().enable();
  {
    Span span("test.span", "testcat");
    ASSERT_TRUE(span.active());
    span.arg("value", 42.0);
    span.arg("status", "Optimal");
  }
  const std::vector<TraceEvent> events =
      Recorder::instance().snapshot_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.span");
  EXPECT_EQ(events[0].category, "testcat");
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "value");
  EXPECT_DOUBLE_EQ(events[0].args[0].second, 42.0);
  ASSERT_EQ(events[0].sargs.size(), 1u);
  EXPECT_EQ(events[0].sargs[0].second, "Optimal");
  EXPECT_GT(events[0].tid, 0u);
}

TEST_F(RecorderTest, SpanDurationIsConsistentWithWallTimer) {
  Recorder::instance().enable();
  {
    Span span("test.sleep", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto events = Recorder::instance().snapshot_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(events[0].duration_us, 4000u);  // >= ~5ms, tolerant floor
}

TEST_F(RecorderTest, NestedSpansBothRecordedAndOrdered) {
  Recorder::instance().enable();
  {
    Span outer("test.outer", "test");
    // Separate the start timestamps: with microsecond resolution both
    // spans can otherwise start in the same tick, making order
    // unspecified.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Span inner("test.inner", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto events = Recorder::instance().snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  // snapshot is sorted by start time: outer starts first.
  EXPECT_EQ(events[0].name, "test.outer");
  EXPECT_EQ(events[1].name, "test.inner");
  EXPECT_LE(events[0].start_us, events[1].start_us);
  // The outer span encloses the inner one.
  EXPECT_GE(events[0].start_us + events[0].duration_us,
            events[1].start_us + events[1].duration_us);
}

TEST_F(RecorderTest, EndIsIdempotent) {
  Recorder::instance().enable();
  Span span("test.end", "test");
  span.end();
  span.end();
  span.end();
  EXPECT_EQ(Recorder::instance().event_count(), 1u);
}

TEST_F(RecorderTest, ExtraArgsBeyondCapacityAreDropped) {
  Recorder::instance().enable();
  {
    Span span("test.argcap", "test");
    for (int i = 0; i < 32; ++i) {
      span.arg("k", static_cast<double>(i));
    }
  }
  const auto events = Recorder::instance().snapshot_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LE(events[0].args.size(), 8u);
}

TEST_F(RecorderTest, ThreadsGetDistinctTids) {
  Recorder::instance().enable();
  const auto spin = [] { Span span("test.threaded", "test"); };
  std::thread a(spin), b(spin);
  a.join();
  b.join();
  spin();
  const auto events = Recorder::instance().snapshot_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_NE(events[0].tid, events[1].tid);
  // All three events survive thread exit (recorder co-owns the buffers).
}

TEST_F(RecorderTest, ClearDropsEventsAndZeroesMetrics) {
  Recorder::instance().enable();
  { Span span("test.cleared", "test"); }
  Recorder::instance().metrics().counter("test.count").add(3);
  Recorder::instance().clear();
  EXPECT_EQ(Recorder::instance().event_count(), 0u);
  EXPECT_EQ(Recorder::instance().metrics().counter_value("test.count"), 0u);
}

// ------------------------------------------------- causal ids / contexts

TEST_F(RecorderTest, NestedSpansLinkParentIds) {
  Recorder::instance().enable();
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    Span outer("test.parent", "test");
    outer_id = outer.id();
    EXPECT_EQ(current_span_id(), outer_id);
    {
      Span inner("test.child", "test");
      inner_id = inner.id();
      EXPECT_EQ(current_span_id(), inner_id);
    }
    EXPECT_EQ(current_span_id(), outer_id);
  }
  EXPECT_EQ(current_span_id(), 0u);
  ASSERT_NE(outer_id, 0u);
  ASSERT_NE(inner_id, 0u);
  const auto events = Recorder::instance().snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  // Look events up by name: both can start in the same microsecond
  // tick, which makes snapshot order unspecified.
  for (const auto& ev : events) {
    if (ev.name == "test.parent") {
      EXPECT_EQ(ev.id, outer_id);
      EXPECT_EQ(ev.parent, 0u);  // root
    } else {
      EXPECT_EQ(ev.name, "test.child");
      EXPECT_EQ(ev.id, inner_id);
      EXPECT_EQ(ev.parent, outer_id);
    }
  }
}

TEST_F(RecorderTest, ExplicitParentOverridesContextStack) {
  Recorder::instance().enable();
  const std::uint64_t flow_id = Recorder::instance().next_id();
  {
    Span enclosing("test.enclosing", "test");
    Span span("test.flow_child", "test", flow_id);
    EXPECT_EQ(span.id(), current_span_id());
  }
  const auto events = Recorder::instance().snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  bool found = false;
  for (const auto& ev : events) {
    if (ev.name != "test.flow_child") continue;
    found = true;
    EXPECT_EQ(ev.parent, flow_id);  // not the enclosing span
  }
  EXPECT_TRUE(found);
}

TEST_F(RecorderTest, DisabledSpansAllocateNoIds) {
  const std::uint64_t before = Recorder::instance().next_id();
  {
    Span span("test.off", "test");
    EXPECT_EQ(span.id(), 0u);
    EXPECT_EQ(current_span_id(), 0u);
  }
  // Only our own probe advanced the id counter.
  EXPECT_EQ(Recorder::instance().next_id(), before + 1);
}

// ------------------------------------------------- span-stack misuse guard

TEST_F(RecorderTest, EndWithoutBeginIsReportedNotCorrupting) {
  Recorder::instance().enable();
  const std::uint64_t misuse_before = Recorder::instance().misuse_count();
  Span outer("test.outer", "test");
  // A pop for an id that was never pushed: explicit misuse report, and
  // the real context stack is untouched.
  EXPECT_FALSE(Recorder::instance().pop_context(0xDEADu));
  EXPECT_EQ(Recorder::instance().misuse_count(), misuse_before + 1);
  EXPECT_EQ(current_span_id(), outer.id());
  outer.end();
  // The misuse left an explicit marker event in the trace.
  bool saw_marker = false;
  for (const auto& ev : Recorder::instance().snapshot_events()) {
    if (ev.name == "obs.error.span_misuse") saw_marker = true;
  }
  EXPECT_TRUE(saw_marker);
}

TEST_F(RecorderTest, OutOfOrderEndUnwindsAndReports) {
  Recorder::instance().enable();
  const std::uint64_t misuse_before = Recorder::instance().misuse_count();
  auto* outer = new Span("test.outer", "test");
  auto* inner = new Span("test.inner", "test");
  const std::uint64_t inner_id = inner->id();
  // Ending the outer span while the inner is still open is misuse:
  // the stack unwinds to the outer id and the event is reported.
  delete outer;
  EXPECT_GT(Recorder::instance().misuse_count(), misuse_before);
  EXPECT_EQ(current_span_id(), 0u);  // unwound past the leaked inner
  // The inner span's own end is now itself a (second) misuse report,
  // not a crash and not a corrupted context stack.
  delete inner;
  EXPECT_EQ(current_span_id(), 0u);
  bool inner_recorded = false;
  for (const auto& ev : Recorder::instance().snapshot_events()) {
    if (ev.id == inner_id && ev.kind == EventKind::Complete) {
      inner_recorded = true;
    }
  }
  EXPECT_TRUE(inner_recorded);  // the event itself is still recorded
}

TEST_F(RecorderTest, SpanCrossingClearIsRejectedWithExplicitError) {
  Recorder::instance().enable();
  const std::uint64_t misuse_before = Recorder::instance().misuse_count();
  {
    Span span("test.crossing", "test");
    ASSERT_TRUE(span.active());
    Recorder::instance().clear();  // flush boundary while span is open
  }
  // The half-window event must NOT leak into the new trace; the misuse
  // marker takes its place.
  std::size_t crossing_events = 0;
  std::size_t markers = 0;
  for (const auto& ev : Recorder::instance().snapshot_events()) {
    if (ev.name == "test.crossing") ++crossing_events;
    if (ev.name == "obs.error.span_misuse") ++markers;
  }
  EXPECT_EQ(crossing_events, 0u);
  EXPECT_GE(markers, 1u);
  EXPECT_GT(Recorder::instance().misuse_count(), misuse_before);
  EXPECT_EQ(current_span_id(), 0u);  // stack does not hold stale ids
}

TEST_F(RecorderTest, ChromeTraceExportIsValidJson) {
  Recorder::instance().enable();
  {
    Span span("test.export", "test");
    span.arg("n", 16.0);
    span.arg("status", "ok\"quoted\"");
  }
  { Span span("test.export2", "test"); }
  std::ostringstream os;
  Recorder::instance().write_chrome_trace(os);
  const std::string text = os.str();
  ASSERT_TRUE(JsonValidator::valid(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("test.export"), std::string::npos);
}

TEST_F(RecorderTest, JsonlExportOneValidObjectPerLine) {
  Recorder::instance().enable();
  { Span span("test.line1", "test"); }
  { Span span("test.line2", "test"); }
  std::ostringstream os;
  Recorder::instance().write_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(JsonValidator::valid(line)) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST_F(RecorderTest, FileWriterFailsGracefullyOnBadPath) {
  EXPECT_FALSE(Recorder::instance().write_chrome_trace_file(
      "/nonexistent-dir-svo/trace.json"));
}

TEST_F(RecorderTest, TraceSessionWritesFileAndRestoresState) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "svo_obs_session_test.json")
          .string();
  std::filesystem::remove(path);
  {
    TraceSession session(path);
    EXPECT_TRUE(session.active());
    EXPECT_TRUE(Recorder::instance().enabled());
    Span span("test.session", "test");
  }
  EXPECT_FALSE(Recorder::instance().enabled());  // prior state restored
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(JsonValidator::valid(buf.str())) << buf.str();
  EXPECT_NE(buf.str().find("test.session"), std::string::npos);
  std::filesystem::remove(path);
}

// ------------------------------------------------- bad-sample handling

TEST(HistogramBadSampleTest, NanIsRejectedAndCounted) {
  Histogram h;
  h.observe(std::nan(""));
  h.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.snapshot().count, 0u);  // neither polluted the buckets
  EXPECT_EQ(h.bad_samples(), 2u);
}

TEST(HistogramBadSampleTest, NegativeIsClampedToZeroAndCounted) {
  Histogram h;
  h.observe(-5.0);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);  // clamped sample still lands
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  EXPECT_EQ(h.bad_samples(), 1u);
}

TEST(HistogramBadSampleTest, BadTallySurvivesReset) {
  Histogram h;
  h.observe(std::nan(""));
  h.reset();
  EXPECT_EQ(h.bad_samples(), 1u);  // an error ledger, not a sample
}

TEST(HistogramBadSampleTest, RegistryHistogramsShareErrorCounter) {
  MetricRegistry reg;
  reg.histogram("a").observe(std::nan(""));
  reg.histogram("b").observe(-1.0);
  EXPECT_EQ(reg.counter_value("obs.error.bad_sample"), 2u);
  // Clean samples never touch the error counter.
  reg.histogram("a").observe(3.0);
  EXPECT_EQ(reg.counter_value("obs.error.bad_sample"), 2u);
}

// ------------------------------------------------------------ Gauge::add

TEST(GaugeAddTest, AccumulatesSignedDeltas) {
  Gauge g;
  g.add(3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set(10.0);  // set still overwrites
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 10.25);
}

TEST(GaugeAddTest, ConcurrentAddsConserveTotal) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kPerThread));
}

// --------------------------------------------- concurrent registry stress

/// Satellite: N threads hammer one registry — lookups (find_or_create
/// under the hood), counter adds, gauge adds, histogram observes
/// (including bad samples), snapshots and resets — while the map grows.
/// The assertions are modest (no torn names, snapshot sees every
/// registered metric); the real check is tsan/asan over this test via
/// the smoke_observability label.
TEST(RegistryStressTest, ConcurrentMixedOperationsAreSafe) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        std::string name = "m";
        name += std::to_string(i % 7);
        reg.counter(name + ".count").add(1);
        reg.gauge(name + ".level").add(t % 2 == 0 ? 1.0 : -1.0);
        Histogram& h = reg.histogram(name + ".lat");
        h.observe(static_cast<double>((i * 37) % 1000));
        if (i % 97 == 0) h.observe(std::nan(""));  // exercises the
        if (i % 101 == 0) (void)reg.snapshot();    // shared error counter
        if (t == 0 && i % 173 == 0) reg.reset();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const RegistrySnapshot snap = reg.snapshot();
  // 7 metric stems x {count, level, lat} + the shared error counter.
  EXPECT_EQ(snap.counters.size(), 7u + 1u);
  EXPECT_EQ(snap.gauges.size(), 7u);
  EXPECT_EQ(snap.histograms.size(), 7u);
  for (const std::string& name : reg.names()) {
    EXPECT_FALSE(name.empty());
  }
}

TEST_F(RecorderTest, InactiveTraceSessionIsFree) {
  ::unsetenv("SVO_TRACE");
  ::unsetenv("SVO_METRICS");
  TraceSession session;  // no env, no paths
  EXPECT_FALSE(session.active());
  EXPECT_FALSE(Recorder::instance().enabled());
}

}  // namespace
}  // namespace svo::obs
