/// Tests for obs::json_parse and obs::analysis: JSONL/Chrome round-trip
/// through the repo's own writer+parser pair (including the
/// non-finite-double -> null edge), span aggregation, collapsed stacks,
/// protocol causal analysis on a synthetic message DAG, and the bench
/// regression diff engine.
#include "obs/analysis.hpp"
#include "obs/json_parse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace svo::obs {
namespace {

// ------------------------------------------------------------- json_parse

TEST(JsonParseTest, ParsesScalarsAndContainers) {
  const JsonValue v = parse_json(
      R"({"s": "hi", "i": -42, "d": 2.5, "b": true, "z": null,
          "a": [1, 2.25], "o": {"k": "v"}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("s")->as_string(), "hi");
  EXPECT_TRUE(v.find("i")->is_integer());
  EXPECT_EQ(v.find("i")->as_int(), -42);
  EXPECT_FALSE(v.find("d")->is_integer());
  EXPECT_DOUBLE_EQ(v.find("d")->as_double(), 2.5);
  EXPECT_TRUE(v.find("b")->as_bool());
  EXPECT_TRUE(v.find("z")->is_null());
  ASSERT_EQ(v.find("a")->items().size(), 2u);
  EXPECT_EQ(v.find("a")->items()[0].as_int(), 1);
  EXPECT_EQ(v.find("o")->find("k")->as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParseTest, IntegersRoundTripAtFullPrecision) {
  const JsonValue v = parse_json("[9223372036854775807, -9223372036854775808]");
  EXPECT_EQ(v.items()[0].as_int(), 9223372036854775807LL);
  // INT64_MIN's lexeme "-9223372036854775808" must parse integrally.
  EXPECT_TRUE(v.items()[1].is_integer());
}

TEST(JsonParseTest, DecodesEscapes) {
  const JsonValue v = parse_json(R"("quote\" slash\\ nl\n tab\t uA")");
  EXPECT_EQ(v.as_string(), "quote\" slash\\ nl\n tab\t uA");
}

TEST(JsonParseTest, MembersKeepInsertionOrder) {
  const JsonValue v = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "m");
}

TEST(JsonParseTest, MalformedInputThrowsWithOffset) {
  EXPECT_THROW((void)parse_json("{\"a\": }"), IoError);
  EXPECT_THROW((void)parse_json("[1, 2"), IoError);
  EXPECT_THROW((void)parse_json("01"), IoError);
  EXPECT_THROW((void)parse_json("{} {}"), IoError);
  EXPECT_FALSE(try_parse_json("nope").has_value());
  try {
    (void)parse_json("[tru]");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonParseTest, DeepNestingIsRejectedNotFatal) {
  // Each '[' or '{' is one level of recursion; input from disk must not
  // be able to overflow the stack.
  const auto nest = [](std::size_t depth, const char* open,
                       const char* inner, const char* close) {
    std::string s;
    for (std::size_t i = 0; i < depth; ++i) s += open;
    s += inner;
    for (std::size_t i = 0; i < depth; ++i) s += close;
    return s;
  };
  EXPECT_NO_THROW((void)parse_json(nest(256, "[", "1", "]")));
  EXPECT_NO_THROW((void)parse_json(nest(256, "{\"k\":", "1", "}")));
  try {
    (void)parse_json(nest(257, "[", "1", "]"));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("byte 256"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parse_json(nest(257, "{\"k\":", "1", "}")), IoError);
  EXPECT_FALSE(try_parse_json(std::string(100'000, '[')).has_value());
  EXPECT_FALSE(try_parse_json(std::string(1'000'000, '[')).has_value());
  EXPECT_FALSE(try_parse_json(nest(100'000, "{\"k\":[", "1", "]}"))
                   .has_value());
}

TEST(JsonParseTest, AcceptsWriterOutput) {
  // The parser must accept everything our own writer can produce.
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "svo \"quoted\"\n");
  w.kv("nan", std::nan(""));
  w.kv("big", std::uint64_t{18446744073709551615ULL});
  w.key("list").begin_array().value(1).value(false).end_array();
  w.end_object();
  const JsonValue v = parse_json(os.str());
  EXPECT_EQ(v.find("name")->as_string(), "svo \"quoted\"\n");
  EXPECT_TRUE(v.find("nan")->is_null());  // non-finite imaged as null
  // uint64 max exceeds int64: still a number, just not integral.
  EXPECT_TRUE(v.find("big")->is_number());
  EXPECT_FALSE(v.find("big")->is_integer());
}

// ------------------------------------------------- trace JSONL round-trip

/// Recorder tests share the process-wide singleton; reset around each.
class AnalysisRecorderTest : public ::testing::Test {
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

void expect_events_equal(const std::vector<TraceEvent>& a,
                         const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].category, b[i].category);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].start_us, b[i].start_us);
    EXPECT_EQ(a[i].duration_us, b[i].duration_us);
    EXPECT_EQ(a[i].tid, b[i].tid);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].parent, b[i].parent);
    ASSERT_EQ(a[i].args.size(), b[i].args.size());
    for (std::size_t j = 0; j < a[i].args.size(); ++j) {
      EXPECT_EQ(a[i].args[j].first, b[i].args[j].first);
      if (std::isnan(a[i].args[j].second)) {
        EXPECT_TRUE(std::isnan(b[i].args[j].second));
      } else {
        EXPECT_DOUBLE_EQ(a[i].args[j].second, b[i].args[j].second);
      }
    }
    EXPECT_EQ(a[i].sargs, b[i].sargs);
  }
}

TEST_F(AnalysisRecorderTest, JsonlRoundTripPreservesSpanSet) {
  Recorder::instance().enable();
  {
    Span outer("test.rt.outer", "test");
    outer.arg("n", 16.0);
    outer.arg("status", "Optimal");
    Span inner("test.rt.inner", "test");
    inner.arg("cost", 2.5);
  }
  {
    // Flow + instant events round-trip too.
    TraceEvent flow;
    flow.name = "CFP";
    flow.category = "net";
    flow.kind = EventKind::FlowStart;
    flow.start_us = 1111;
    flow.id = Recorder::instance().next_id();
    flow.args.emplace_back("from", 0.0);
    Recorder::instance().record(std::move(flow));
    TraceEvent drop;
    drop.name = "net.drop";
    drop.category = "net";
    drop.kind = EventKind::Instant;
    drop.start_us = 2222;
    Recorder::instance().record(std::move(drop));
  }
  const std::vector<TraceEvent> original =
      Recorder::instance().snapshot_events();
  std::ostringstream os;
  Recorder::instance().write_jsonl(os);
  expect_events_equal(original, analysis::parse_trace(os.str()));
}

TEST_F(AnalysisRecorderTest, ChromeTraceRoundTripPreservesSpanSet) {
  Recorder::instance().enable();
  { Span span("test.chrome.span", "test"); }
  const std::vector<TraceEvent> original =
      Recorder::instance().snapshot_events();
  std::ostringstream os;
  Recorder::instance().write_chrome_trace(os);
  expect_events_equal(original, analysis::parse_trace(os.str()));
}

TEST_F(AnalysisRecorderTest, NonFiniteArgsRoundTripAsNaN) {
  Recorder::instance().enable();
  {
    Span span("test.rt.nonfinite", "test");
    span.arg("nan", std::nan(""));
    span.arg("inf", INFINITY);
    span.arg("ninf", -INFINITY);
    span.arg("fine", 0.25);
  }
  std::ostringstream os;
  Recorder::instance().write_jsonl(os);
  // On disk: null (valid JSON). In memory after reload: NaN — the
  // "value existed but was not finite" fact survives the round trip.
  EXPECT_NE(os.str().find("\"nan\":null"), std::string::npos);
  const std::vector<TraceEvent> loaded = analysis::parse_trace(os.str());
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_EQ(loaded[0].args.size(), 4u);
  EXPECT_TRUE(std::isnan(loaded[0].args[0].second));
  EXPECT_TRUE(std::isnan(loaded[0].args[1].second));
  EXPECT_TRUE(std::isnan(loaded[0].args[2].second));
  EXPECT_DOUBLE_EQ(loaded[0].args[3].second, 0.25);
}

TEST(AnalysisLoadTest, ForeignPhasesAreSkippedNotFatal) {
  // Other trace producers emit metadata ("M") and counter ("C") phases;
  // the loader keeps what it understands and drops the rest.
  const std::vector<TraceEvent> events = analysis::parse_trace(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1}\n"
      "{\"name\":\"ok\",\"cat\":\"t\",\"ph\":\"X\",\"ts\":5,\"dur\":2,"
      "\"tid\":1}\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "ok");
}

TEST(AnalysisLoadTest, GarbageLineThrows) {
  EXPECT_THROW(
      (void)analysis::parse_trace("{\"name\":\"a\",\"ph\":\"X\"}\nnot json\n"),
      IoError);
}

// --------------------------------------------------------- span analytics

TraceEvent make_span(const char* name, std::uint64_t id, std::uint64_t parent,
                     std::uint64_t start, std::uint64_t dur) {
  TraceEvent ev;
  ev.name = name;
  ev.kind = EventKind::Complete;
  ev.id = id;
  ev.parent = parent;
  ev.start_us = start;
  ev.duration_us = dur;
  return ev;
}

TEST(AnalysisAggregateTest, AggregatesMatchUtilPercentile) {
  std::vector<TraceEvent> events;
  std::vector<double> durs;
  for (std::uint64_t i = 0; i < 20; ++i) {
    events.push_back(make_span("solve", 100 + i, 0, i * 10, 5 + 3 * i));
    durs.push_back(static_cast<double>(5 + 3 * i));
  }
  events.push_back(make_span("tiny", 999, 0, 0, 1));
  const std::vector<analysis::SpanStats> stats =
      analysis::aggregate_spans(events);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "solve");  // sorted by total desc
  EXPECT_EQ(stats[0].count, 20u);
  EXPECT_DOUBLE_EQ(stats[0].p50_us, util::percentile(durs, 0.5));
  EXPECT_DOUBLE_EQ(stats[0].p95_us, util::percentile(durs, 0.95));
  EXPECT_DOUBLE_EQ(stats[0].max_us, 62.0);
  EXPECT_EQ(stats[1].name, "tiny");
}

TEST(AnalysisCollapsedTest, SelfTimeExcludesChildSpans) {
  std::vector<TraceEvent> events;
  events.push_back(make_span("root", 1, 0, 0, 100));
  events.push_back(make_span("child", 2, 1, 10, 30));
  events.push_back(make_span("child", 3, 1, 50, 20));
  events.push_back(make_span("leaf", 4, 2, 15, 5));
  const std::vector<analysis::CollapsedStack> stacks =
      analysis::collapsed_stacks(events);
  ASSERT_EQ(stacks.size(), 3u);  // sorted by stack string
  EXPECT_EQ(stacks[0].stack, "root");
  EXPECT_EQ(stacks[0].self_us, 50u);  // 100 - (30 + 20)
  EXPECT_EQ(stacks[1].stack, "root;child");
  EXPECT_EQ(stacks[1].self_us, 45u);  // (30 - 5) + 20
  EXPECT_EQ(stacks[2].stack, "root;child;leaf");
  EXPECT_EQ(stacks[2].self_us, 5u);

  // The hot-span table's self times come from the same pass, per name.
  const std::vector<analysis::SpanStats> spans =
      analysis::aggregate_spans(events);
  ASSERT_EQ(spans.size(), 3u);  // sorted by total desc
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_DOUBLE_EQ(spans[0].self_us, 50.0);
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_DOUBLE_EQ(spans[1].self_us, 45.0);
  EXPECT_EQ(spans[2].name, "leaf");
  EXPECT_DOUBLE_EQ(spans[2].self_us, 5.0);
}

// --------------------------------------------------- protocol causal DAG

TEST(AnalysisProtocolTest, NodeNames) {
  EXPECT_EQ(analysis::node_name(0), "TP");
  EXPECT_EQ(analysis::node_name(1), "G0");
  EXPECT_EQ(analysis::node_name(7), "G6");
}

/// Build a synthetic two-round protocol trace:
///   run(1) -> phase collecting(2, round 0) -> CFP(10) to G0, delivered;
///   deliver span(11, parent 10) -> REPORT(12) back, delivered late;
///   phase deciding(3, round 1) -> CFP(13) to G1, dropped.
std::vector<TraceEvent> synthetic_protocol_trace() {
  std::vector<TraceEvent> events;
  events.push_back(make_span("core.protocol.run", 1, 0, 0, 10000));

  TraceEvent phase0 = make_span("protocol.phase.collecting", 2, 1, 0, 500);
  phase0.category = "protocol";
  phase0.args.emplace_back("sim_now_s", 0.05);
  phase0.args.emplace_back("round", 0.0);
  events.push_back(phase0);

  TraceEvent cfp;
  cfp.name = "CFP";
  cfp.category = "net";
  cfp.kind = EventKind::FlowStart;
  cfp.id = 10;
  cfp.parent = 2;  // the collecting phase
  cfp.start_us = 10;
  cfp.args = {{"from", 0.0}, {"to", 1.0}, {"bytes", 96.0},
              {"sim_now_s", 0.0}};
  events.push_back(cfp);

  TraceEvent cfp_end = cfp;
  cfp_end.kind = EventKind::FlowEnd;
  cfp_end.parent = 0;
  cfp_end.start_us = 40;
  cfp_end.args = {{"sim_now_s", 0.02}};
  events.push_back(cfp_end);

  events.push_back(make_span("net.deliver", 11, 10, 40, 20));

  TraceEvent report;
  report.name = "REPORT";
  report.category = "net";
  report.kind = EventKind::FlowStart;
  report.id = 12;
  report.parent = 11;  // sent from inside the deliver span
  report.start_us = 60;
  report.args = {{"from", 1.0}, {"to", 0.0}, {"bytes", 64.0},
                 {"sim_now_s", 0.02}};
  events.push_back(report);

  TraceEvent report_end = report;
  report_end.kind = EventKind::FlowEnd;
  report_end.parent = 0;
  report_end.start_us = 90;
  report_end.args = {{"sim_now_s", 0.07}};
  events.push_back(report_end);

  TraceEvent phase1 = make_span("protocol.phase.deciding", 3, 1, 600, 700);
  phase1.category = "protocol";
  phase1.args.emplace_back("sim_now_s", 0.91);
  phase1.args.emplace_back("round", 1.0);
  events.push_back(phase1);

  TraceEvent cfp2;
  cfp2.name = "CFP";
  cfp2.category = "net";
  cfp2.kind = EventKind::FlowStart;
  cfp2.id = 13;
  cfp2.parent = 3;
  cfp2.start_us = 700;
  cfp2.args = {{"from", 0.0}, {"to", 2.0}, {"bytes", 96.0},
               {"sim_now_s", 0.9}};
  events.push_back(cfp2);  // no FlowEnd: dropped

  return events;
}

TEST(AnalysisProtocolTest, ReconstructsCausesRoundsAndDrops) {
  const analysis::ProtocolAnalysis pa =
      analysis::analyze_protocol(synthetic_protocol_trace());
  ASSERT_EQ(pa.messages.size(), 3u);
  EXPECT_EQ(pa.sent_by_type.at("CFP"), 2u);
  EXPECT_EQ(pa.sent_by_type.at("REPORT"), 1u);
  EXPECT_EQ(pa.drops, 1u);

  const analysis::MessageHop& cfp = pa.messages[0];
  EXPECT_EQ(cfp.type, "CFP");
  EXPECT_EQ(cfp.cause, 0u);  // TP-originated root
  EXPECT_EQ(cfp.round, 0u);
  EXPECT_EQ(cfp.phase, "protocol.phase.collecting");
  EXPECT_TRUE(cfp.delivered);

  const analysis::MessageHop& report = pa.messages[1];
  EXPECT_EQ(report.cause, 10u);  // caused by the CFP, via its deliver span
  EXPECT_EQ(report.round, 0u);   // inherited from the CFP
  EXPECT_TRUE(report.delivered);

  const analysis::MessageHop& cfp2 = pa.messages[2];
  EXPECT_EQ(cfp2.round, 1u);
  EXPECT_FALSE(cfp2.delivered);
}

TEST(AnalysisProtocolTest, CriticalPathNamesBoundingMember) {
  const analysis::ProtocolAnalysis pa =
      analysis::analyze_protocol(synthetic_protocol_trace());
  // Round 0's last delivery is the REPORT; its chain is CFP -> REPORT.
  ASSERT_EQ(pa.rounds.size(), 1u);  // round 1's only message was dropped
  const analysis::RoundPath& path = pa.rounds[0];
  EXPECT_EQ(path.round, 0u);
  EXPECT_DOUBLE_EQ(path.completion_sim_s, 0.07);
  ASSERT_EQ(path.hops.size(), 2u);
  EXPECT_EQ(path.hops[0].type, "CFP");
  EXPECT_EQ(path.hops[1].type, "REPORT");
  EXPECT_EQ(path.bounding_member, "G0");
}

TEST(AnalysisProtocolTest, EmptyTraceYieldsEmptyAnalysis) {
  const analysis::ProtocolAnalysis pa = analysis::analyze_protocol({});
  EXPECT_TRUE(pa.messages.empty());
  EXPECT_TRUE(pa.rounds.empty());
  EXPECT_EQ(pa.drops, 0u);
}

TEST(AnalysisProtocolTest, TextReportMentionsMembersAndRounds) {
  std::ostringstream os;
  analysis::write_text_report(os, synthetic_protocol_trace());
  const std::string text = os.str();
  EXPECT_NE(text.find("round 0"), std::string::npos);
  EXPECT_NE(text.find("bounded by G0"), std::string::npos);
  EXPECT_NE(text.find("CFP"), std::string::npos);
  EXPECT_NE(text.find("drops=1"), std::string::npos);
}

// --------------------------------------------------------- bench diffing

TEST(BenchDiffTest, GlobMatcher) {
  using analysis::glob_match;
  EXPECT_TRUE(glob_match("*", "anything.at[3].all"));
  EXPECT_TRUE(glob_match("*nodes*", "runs[2].cold_nodes"));
  EXPECT_TRUE(glob_match("*_ms", "runs[0].warm_ms"));
  EXPECT_FALSE(glob_match("*_ms", "warm_msx"));
  EXPECT_TRUE(glob_match("runs[?].seed", "runs[3].seed"));
  EXPECT_FALSE(glob_match("runs[?].seed", "runs[30].seed"));
  EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(glob_match("a*b*c", "aXXcYYb"));
}

JsonValue report_from(const std::string& text) { return parse_json(text); }

TEST(BenchDiffTest, IdenticalReportsPass) {
  const JsonValue doc = report_from(
      R"({"bench": "x", "runs": [{"cold_nodes": 100, "cold_ms": 5.0}],
          "aggregate": {"node_reduction": 2.0, "all_outcomes_identical": true}})");
  const analysis::BenchDiffResult result =
      analysis::diff_bench_reports(doc, doc);
  EXPECT_TRUE(result.passed());
  EXPECT_EQ(result.regressions, 0u);
}

TEST(BenchDiffTest, LowerIsBetterGatesOnIncreaseOnly) {
  const JsonValue base = report_from(R"({"deadline_misses": 1000})");
  // +5% is inside the 10% tolerance.
  EXPECT_TRUE(analysis::diff_bench_reports(
                  base, report_from(R"({"deadline_misses": 1050})"))
                  .passed());
  // +50% gates.
  const analysis::BenchDiffResult worse = analysis::diff_bench_reports(
      base, report_from(R"({"deadline_misses": 1500})"));
  EXPECT_FALSE(worse.passed());
  EXPECT_EQ(worse.deltas[0].status, analysis::DeltaStatus::Regressed);
  // -50% is an improvement, not a gate.
  const analysis::BenchDiffResult better = analysis::diff_bench_reports(
      base, report_from(R"({"deadline_misses": 500})"));
  EXPECT_TRUE(better.passed());
  EXPECT_EQ(better.deltas[0].status, analysis::DeltaStatus::Improved);
}

TEST(BenchDiffTest, IterationCountsGateExactly) {
  // Power-iteration counts come from seeded graphs: converging in fewer
  // iterations is a changed engine, and gates like needing more.
  for (const char* key : {"cold_iterations", "total_converge_iterations",
                          "rounds"}) {
    SCOPED_TRACE(key);
    const auto report = [&](int v) {
      return report_from("{\"" + std::string(key) +
                         "\": " + std::to_string(v) + "}");
    };
    EXPECT_TRUE(analysis::diff_bench_reports(report(20), report(20)).passed());
    EXPECT_FALSE(analysis::diff_bench_reports(report(20), report(21)).passed());
    EXPECT_FALSE(analysis::diff_bench_reports(report(20), report(19)).passed());
  }
}

TEST(BenchDiffTest, NodeCountsGateExactly) {
  // B&B node counts are deterministic: fewer nodes is a changed search,
  // not an improvement, and gates like more nodes does.
  const JsonValue base = report_from(R"({"total_cold_nodes": 1000})");
  EXPECT_TRUE(analysis::diff_bench_reports(base, base).passed());
  EXPECT_FALSE(analysis::diff_bench_reports(
                   base, report_from(R"({"total_cold_nodes": 1001})"))
                   .passed());
  EXPECT_FALSE(analysis::diff_bench_reports(
                   base, report_from(R"({"total_cold_nodes": 999})"))
                   .passed());
  // Time per node is informational: machines differ.
  const JsonValue per_node = report_from(R"({"bnb_ns_per_node": {"cold": 80.0}})");
  EXPECT_TRUE(analysis::diff_bench_reports(
                  per_node, report_from(R"({"bnb_ns_per_node": {"cold": 800.0}})"))
                  .passed());
}

TEST(BenchDiffTest, HigherIsBetterGatesOnDecrease) {
  const JsonValue base = report_from(R"({"node_reduction": 2.0})");
  EXPECT_FALSE(analysis::diff_bench_reports(
                   base, report_from(R"({"node_reduction": 1.0})"))
                   .passed());
  EXPECT_TRUE(analysis::diff_bench_reports(
                  base, report_from(R"({"node_reduction": 3.0})"))
                  .passed());
}

TEST(BenchDiffTest, EqualityGatesAndTimingsAreInformational) {
  const JsonValue base = report_from(
      R"({"same_vo": true, "seed": 42, "elapsed_ms": 100.0})");
  // A flipped equivalence bool or config drift gates...
  EXPECT_FALSE(analysis::diff_bench_reports(
                   base,
                   report_from(R"({"same_vo": false, "seed": 42,
                                   "elapsed_ms": 100.0})"))
                   .passed());
  EXPECT_FALSE(analysis::diff_bench_reports(
                   base,
                   report_from(R"({"same_vo": true, "seed": 43,
                                   "elapsed_ms": 100.0})"))
                   .passed());
  // ...but a 10x wall-clock swing does not (machines differ).
  EXPECT_TRUE(analysis::diff_bench_reports(
                  base,
                  report_from(R"({"same_vo": true, "seed": 42,
                                  "elapsed_ms": 1000.0})"))
                  .passed());
}

TEST(BenchDiffTest, MissingMetricIsARegressionNewMetricIsNot) {
  const JsonValue base = report_from(R"({"total_nodes": 10})");
  const JsonValue cur = report_from(R"({"fresh_rate": 0.5})");
  const analysis::BenchDiffResult result =
      analysis::diff_bench_reports(base, cur);
  EXPECT_FALSE(result.passed());
  ASSERT_EQ(result.deltas.size(), 2u);
  EXPECT_EQ(result.deltas[0].status, analysis::DeltaStatus::BaselineOnly);
  EXPECT_EQ(result.deltas[1].status, analysis::DeltaStatus::CurrentOnly);
}

TEST(BenchDiffTest, CustomRulesTakePrecedence) {
  const JsonValue base = report_from(R"({"total_nodes": 100})");
  const JsonValue cur = report_from(R"({"total_nodes": 150})");
  std::vector<analysis::DiffRule> rules = {
      {"*nodes*", analysis::Direction::Informational, 0.0}};
  for (const analysis::DiffRule& rule : analysis::default_bench_rules()) {
    rules.push_back(rule);
  }
  EXPECT_TRUE(analysis::diff_bench_reports(base, cur, rules).passed());
  EXPECT_FALSE(analysis::diff_bench_reports(base, cur).passed());
}

TEST(BenchDiffTest, TypeChangeGatesUnderAnyGatingRule) {
  // A HigherIsBetter number that turns into a string regresses...
  const analysis::BenchDiffResult result = analysis::diff_bench_reports(
      report_from(R"({"aggregate": {"speedup_4v1": 2.5}})"),
      report_from(R"({"aggregate": {"speedup_4v1": "fast"}})"));
  EXPECT_FALSE(result.passed());
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_EQ(result.deltas[0].status, analysis::DeltaStatus::Regressed);
  // ...so does a LowerIsBetter string that turns into a number...
  EXPECT_FALSE(analysis::diff_bench_reports(
                   report_from(R"({"latency_p99": "n/a"})"),
                   report_from(R"({"latency_p99": 3.0})"))
                   .passed());
  // ...but an informational leaf may change type.
  EXPECT_TRUE(analysis::diff_bench_reports(
                  report_from(R"({"elapsed_ms": 5.0})"),
                  report_from(R"({"elapsed_ms": "5 ms"})"))
                  .passed());
}

TEST(BenchDiffTest, StringDriftGatesOnlyUnderExactRules) {
  // "bench" matches no Exact rule by default -> informational...
  const JsonValue base = report_from(R"({"bench": "warmstart"})");
  const JsonValue cur = report_from(R"({"bench": "coldstart"})");
  EXPECT_TRUE(analysis::diff_bench_reports(base, cur).passed());
  // ...but an explicit exact rule pins it.
  const std::vector<analysis::DiffRule> rules = {
      {"bench", analysis::Direction::Exact, 0.0}};
  EXPECT_FALSE(analysis::diff_bench_reports(base, cur, rules).passed());
}

}  // namespace
}  // namespace svo::obs
