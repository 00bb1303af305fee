/// \file analysis.hpp
/// Trace analytics — the intelligence layer over the observability
/// spine (DESIGN.md §4e). The recorder exports raw events; this module
/// loads them back in (JSONL or Chrome trace_event JSON, via
/// obs::json_parse) and answers the operator questions the raw files
/// cannot:
///
///  * per-span aggregates — count, total, self time, p50/p95
///    (util::percentile) — and the top-k hot spans of a run;
///  * collapsed-stack output (one "root;child;leaf self_us" line per
///    distinct stack) consumable by flamegraph.pl / speedscope;
///  * the causal message DAG of a trusted-party protocol run —
///    CFP/REPORT/AWARD/ACK flows with drops and retries — and the
///    *critical path* of each formation round: which member's message
///    chain bounded the round's simulated completion time;
///  * BENCH_*.json regression diffing with per-metric direction rules
///    and relative thresholds (tools/bench_diff, CI gate).
///
/// Everything here is read-only over exported artifacts: it never
/// touches the live Recorder, so analyzing a trace can itself be traced.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_parse.hpp"
#include "obs/trace.hpp"

namespace svo::obs::analysis {

// --- loading -------------------------------------------------------------

/// Rebuild one TraceEvent from its exported JSON object. Events with an
/// unknown "ph" (e.g. metadata from other producers) yield no event.
/// `null` args — the JsonWriter image of non-finite doubles — come back
/// as quiet NaN, preserving "this value was not finite".
[[nodiscard]] bool event_from_json(const JsonValue& v, TraceEvent& out);

/// Parse a trace artifact: flat JSONL (one event object per line) or a
/// Chrome trace ({"traceEvents": [...]}). Autodetected. Throws IoError
/// when the text is neither.
[[nodiscard]] std::vector<TraceEvent> parse_trace(std::string_view text);

/// parse_trace over a file. Throws IoError when unreadable.
[[nodiscard]] std::vector<TraceEvent> load_trace_file(
    const std::string& path);

// --- span aggregates -----------------------------------------------------

/// Descriptive statistics of one span name across a trace.
struct SpanStats {
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  /// Summed self time: each span's duration minus its direct child
  /// spans' (floored at 0), as in collapsed_stacks.
  double self_us = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double max_us = 0.0;
};

/// Aggregate all Complete events by name, sorted by total time
/// descending (the top-k hot spans are the first k entries).
[[nodiscard]] std::vector<SpanStats> aggregate_spans(
    const std::vector<TraceEvent>& events);

/// One collapsed flamegraph line: semicolon-joined ancestor names and
/// the stack's *self* time (duration minus child span time).
struct CollapsedStack {
  std::string stack;
  std::uint64_t self_us = 0;
};

/// Fold spans into collapsed-stack lines via their causal parent links
/// (non-span ancestors — flows, phases — terminate the stack walk).
/// Sorted by stack string; feed to flamegraph.pl / speedscope as
/// "<stack> <self_us>".
[[nodiscard]] std::vector<CollapsedStack> collapsed_stacks(
    const std::vector<TraceEvent>& events);

// --- protocol causal analysis --------------------------------------------

/// One message flow reconstructed from FlowStart/FlowEnd events.
struct MessageHop {
  std::uint64_t flow_id = 0;
  std::string type;        ///< "CFP", "REPORT", "AWARD", "ACK", ...
  std::size_t from = 0;    ///< network node (0 = trusted party)
  std::size_t to = 0;
  std::size_t bytes = 0;
  double send_sim_s = 0.0;
  double deliver_sim_s = 0.0;  ///< meaningless when !delivered
  bool delivered = false;
  /// Flow id of the message whose handling caused this one (0 = root,
  /// i.e. initiated by the trusted party's own control flow).
  std::uint64_t cause = 0;
  /// Formation round (0 = initial, k = k-th repair), from the nearest
  /// ancestor protocol-phase event.
  std::size_t round = 0;
  /// Name of that phase event ("protocol.phase.collecting", ...);
  /// empty when the chain never reaches one.
  std::string phase;
};

/// The critical path of one formation round: the causal message chain
/// ending at the round's last delivery.
struct RoundPath {
  std::size_t round = 0;
  double completion_sim_s = 0.0;
  /// Root-to-terminal chain. waits: wire_s = deliver - send of the hop,
  /// gap_s = send - previous hop's delivery (local processing time).
  std::vector<MessageHop> hops;
  /// The non-TP endpoint of the terminal hop — the member whose chain
  /// bounded the round.
  std::string bounding_member;
};

/// Protocol-level digest of a traced run.
struct ProtocolAnalysis {
  std::vector<MessageHop> messages;              ///< in send order
  std::map<std::string, std::size_t> sent_by_type;
  std::size_t drops = 0;
  std::vector<RoundPath> rounds;                 ///< by round index
};

/// Human name of a protocol network node: "TP" for node 0, "G<k>" for
/// GSP k at node k+1 (sim/protocol's layout).
[[nodiscard]] std::string node_name(std::size_t node);

/// Reconstruct the message DAG and per-round critical paths from a
/// traced protocol run. Traces without network flows yield an empty
/// analysis (messages/rounds empty) — not an error.
[[nodiscard]] ProtocolAnalysis analyze_protocol(
    const std::vector<TraceEvent>& events);

// --- text report ---------------------------------------------------------

struct ReportOptions {
  std::size_t top_k = 12;  ///< hot spans listed
};

/// The svo_cli trace-report body: span aggregates, hot spans, and (when
/// the trace contains protocol flows) message counts and per-round
/// critical paths.
void write_text_report(std::ostream& os,
                       const std::vector<TraceEvent>& events,
                       const ReportOptions& options = {});

// --- bench regression diffing --------------------------------------------

/// How a metric is judged.
enum class Direction {
  LowerIsBetter,   ///< regression when current > baseline * (1 + tol)
  HigherIsBetter,  ///< regression when current < baseline * (1 - tol)
  Exact,           ///< regression on any difference beyond tol
  Informational,   ///< reported, never gates (wall-clock timings)
};

/// First matching rule wins; `pattern` is a glob ('*' and '?') over the
/// flattened metric path (e.g. "aggregate.node_reduction",
/// "runs[2].cold_ms").
struct DiffRule {
  std::string pattern;
  Direction dir = Direction::Informational;
  double rel_tol = 0.0;
};

/// The built-in rule set for BENCH_*.json reports: wall-clock metrics
/// are informational (CI machines differ), configuration echoes,
/// equivalence booleans and deterministic work counts (B&B nodes, power
/// iterations) are exact (drift detection), rates/reductions/retentions
/// gate higher-is-better. Documented in DESIGN.md §4e.
[[nodiscard]] std::vector<DiffRule> default_bench_rules();

/// Glob matcher used for rule patterns ('*' any run, '?' one char).
[[nodiscard]] bool glob_match(std::string_view pattern,
                              std::string_view text);

enum class DeltaStatus {
  Ok,            ///< within tolerance
  Improved,      ///< beyond tolerance in the good direction
  Regressed,     ///< beyond tolerance in the bad direction — gates
  Info,          ///< informational metric, any delta
  BaselineOnly,  ///< metric disappeared — gates
  CurrentOnly,   ///< new metric, reported only
};

struct MetricDelta {
  std::string path;
  double baseline = 0.0;
  double current = 0.0;
  double rel_change = 0.0;  ///< (current - baseline) / max(|baseline|, 1)
  Direction dir = Direction::Informational;
  DeltaStatus status = DeltaStatus::Ok;
};

struct BenchDiffResult {
  std::vector<MetricDelta> deltas;  ///< flattened-path order
  std::size_t regressions = 0;      ///< Regressed + BaselineOnly count
  [[nodiscard]] bool passed() const noexcept { return regressions == 0; }
};

/// Compare two bench reports (parsed BENCH_*.json documents). Numeric
/// and boolean leaves are flattened to dotted paths and judged by the
/// first matching rule; string leaves are judged only by Exact rules.
[[nodiscard]] BenchDiffResult diff_bench_reports(
    const JsonValue& baseline, const JsonValue& current,
    const std::vector<DiffRule>& rules = default_bench_rules());

}  // namespace svo::obs::analysis
