#include "obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace svo::obs::analysis {

// --- loading -------------------------------------------------------------

bool event_from_json(const JsonValue& v, TraceEvent& out) {
  if (!v.is_object()) return false;
  const std::string ph = v.string_or("ph", "");
  TraceEvent ev;
  if (ph == "X") {
    ev.kind = EventKind::Complete;
  } else if (ph == "s") {
    ev.kind = EventKind::FlowStart;
  } else if (ph == "f") {
    ev.kind = EventKind::FlowEnd;
  } else if (ph == "i") {
    ev.kind = EventKind::Instant;
  } else {
    return false;  // metadata / foreign phases: not ours, skip
  }
  ev.name = v.string_or("name", "");
  ev.category = v.string_or("cat", "svo");
  ev.start_us = v.uint_or("ts", 0);
  ev.duration_us = v.uint_or("dur", 0);
  ev.tid = static_cast<std::uint32_t>(v.uint_or("tid", 0));
  ev.id = v.uint_or("id", 0);
  ev.parent = v.uint_or("parent", 0);
  if (const JsonValue* args = v.find("args"); args != nullptr &&
                                              args->is_object()) {
    for (const auto& [key, val] : args->members()) {
      if (val.is_number()) {
        ev.args.emplace_back(key, val.as_double());
      } else if (val.is_null()) {
        // The writer images non-finite doubles as null; keep the fact.
        ev.args.emplace_back(key, std::numeric_limits<double>::quiet_NaN());
      } else if (val.is_string()) {
        ev.sargs.emplace_back(key, val.as_string());
      }
    }
  }
  out = std::move(ev);
  return true;
}

std::vector<TraceEvent> parse_trace(std::string_view text) {
  std::vector<TraceEvent> events;
  // A Chrome trace is one object spanning the whole text; JSONL is one
  // object per line. Try the whole text first — a single-line JSONL
  // file also parses whole, and is then just a one-event trace.
  if (std::optional<JsonValue> whole = try_parse_json(text)) {
    if (const JsonValue* list = whole->find("traceEvents");
        list != nullptr && list->is_array()) {
      for (const JsonValue& item : list->items()) {
        TraceEvent ev;
        if (event_from_json(item, ev)) events.push_back(std::move(ev));
      }
      return events;
    }
    TraceEvent ev;
    if (event_from_json(*whole, ev)) events.push_back(std::move(ev));
    return events;
  }
  // JSONL: parse line by line; blank lines are fine, garbage is not.
  std::size_t pos = 0;
  std::size_t lineno = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) continue;
    std::optional<JsonValue> v = try_parse_json(line);
    if (!v) {
      throw IoError("trace line " + std::to_string(lineno) +
                    " is not valid JSON");
    }
    TraceEvent ev;
    if (event_from_json(*v, ev)) events.push_back(std::move(ev));
  }
  return events;
}

std::vector<TraceEvent> load_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_trace(buf.str());
}

// --- span aggregates -----------------------------------------------------

namespace {

/// Index of events carrying a causal id.
using EventIndex = std::unordered_map<std::uint64_t, const TraceEvent*>;

EventIndex index_by_id(const std::vector<TraceEvent>& events) {
  EventIndex byid;
  byid.reserve(events.size());
  for (const TraceEvent& ev : events) {
    // Flow start/end share an id; keep the start (it holds the wire
    // args) and let FlowEnd lookups go through the flows map instead.
    if (ev.id == 0) continue;
    auto [it, inserted] = byid.emplace(ev.id, &ev);
    if (!inserted && it->second->kind == EventKind::FlowEnd) it->second = &ev;
  }
  return byid;
}

/// Guard for corrupt traces: parent chains longer than this are cycles.
constexpr std::size_t kMaxDepth = 256;

/// Summed duration of each span's direct child spans, keyed by the
/// parent span's id: what separates a span's self time from its total.
using ChildTime = std::unordered_map<std::uint64_t, std::uint64_t>;

ChildTime child_span_us(const std::vector<TraceEvent>& events,
                        const EventIndex& byid) {
  ChildTime child_us;
  for (const TraceEvent& ev : events) {
    if (ev.kind != EventKind::Complete || ev.parent == 0) continue;
    const auto it = byid.find(ev.parent);
    if (it != byid.end() && it->second->kind == EventKind::Complete) {
      child_us[ev.parent] += ev.duration_us;
    }
  }
  return child_us;
}

/// A span's duration minus its direct children's, floored at 0.
std::uint64_t self_us(const TraceEvent& ev, const ChildTime& child_us) {
  const auto it = child_us.find(ev.id);
  if (it == child_us.end()) return ev.duration_us;
  return ev.duration_us - std::min(ev.duration_us, it->second);
}

double arg_or(const TraceEvent& ev, std::string_view key, double fb) {
  for (const auto& [k, v] : ev.args) {
    if (k == key) return v;
  }
  return fb;
}

}  // namespace

std::vector<SpanStats> aggregate_spans(const std::vector<TraceEvent>& events) {
  const ChildTime child_us = child_span_us(events, index_by_id(events));
  struct Samples {
    std::vector<double> durations;
    double self_us = 0.0;
  };
  std::unordered_map<std::string, Samples> by_name;
  for (const TraceEvent& ev : events) {
    if (ev.kind != EventKind::Complete) continue;
    Samples& named = by_name[ev.name];
    named.durations.push_back(static_cast<double>(ev.duration_us));
    named.self_us += static_cast<double>(self_us(ev, child_us));
  }
  std::vector<SpanStats> stats;
  stats.reserve(by_name.size());
  for (auto& [name, named] : by_name) {
    std::vector<double>& samples = named.durations;
    SpanStats s;
    s.name = name;
    s.count = samples.size();
    s.self_us = named.self_us;
    for (const double d : samples) {
      s.total_us += d;
      s.max_us = std::max(s.max_us, d);
    }
    s.mean_us = s.total_us / static_cast<double>(s.count);
    s.p50_us = util::percentile(samples, 0.5);
    s.p95_us = util::percentile(std::move(samples), 0.95);
    stats.push_back(std::move(s));
  }
  std::sort(stats.begin(), stats.end(),
            [](const SpanStats& a, const SpanStats& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.name < b.name;
            });
  return stats;
}

std::vector<CollapsedStack> collapsed_stacks(
    const std::vector<TraceEvent>& events) {
  const EventIndex byid = index_by_id(events);
  const ChildTime child_us = child_span_us(events, byid);
  std::map<std::string, std::uint64_t> folded;
  for (const TraceEvent& ev : events) {
    if (ev.kind != EventKind::Complete) continue;
    // Ancestor chain of *spans*; a non-span ancestor (flow, phase
    // event) roots the stack — message-triggered work stays separate
    // from the sender's stack, as a sampling profiler would see it.
    std::vector<const TraceEvent*> chain{&ev};
    std::uint64_t p = ev.parent;
    for (std::size_t depth = 0; p != 0 && depth < kMaxDepth; ++depth) {
      const auto it = byid.find(p);
      if (it == byid.end() || it->second->kind != EventKind::Complete) break;
      chain.push_back(it->second);
      p = it->second->parent;
    }
    std::string stack;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (!stack.empty()) stack.push_back(';');
      stack += (*it)->name;
    }
    folded[stack] += self_us(ev, child_us);
  }
  std::vector<CollapsedStack> out;
  out.reserve(folded.size());
  for (auto& [stack, self] : folded) out.push_back({stack, self});
  return out;
}

// --- protocol causal analysis --------------------------------------------

std::string node_name(std::size_t node) {
  if (node == 0) return "TP";
  // Built up in steps: `"G" + std::to_string(...)` trips a GCC 12
  // -Wrestrict false positive under -Werror.
  std::string name = "G";
  name += std::to_string(node - 1);
  return name;
}

ProtocolAnalysis analyze_protocol(const std::vector<TraceEvent>& events) {
  ProtocolAnalysis pa;
  const EventIndex byid = index_by_id(events);

  // Pass 1: collect flows (message sends) and their deliveries.
  std::unordered_map<std::uint64_t, std::size_t> flow_index;  // id -> messages
  for (const TraceEvent& ev : events) {
    if (ev.kind != EventKind::FlowStart) continue;
    MessageHop hop;
    hop.flow_id = ev.id;
    hop.type = ev.name;
    hop.from = static_cast<std::size_t>(arg_or(ev, "from", 0.0));
    hop.to = static_cast<std::size_t>(arg_or(ev, "to", 0.0));
    hop.bytes = static_cast<std::size_t>(arg_or(ev, "bytes", 0.0));
    hop.send_sim_s = arg_or(ev, "sim_now_s", 0.0);
    flow_index.emplace(hop.flow_id, pa.messages.size());
    pa.messages.push_back(std::move(hop));
  }
  for (const TraceEvent& ev : events) {
    if (ev.kind != EventKind::FlowEnd) continue;
    const auto it = flow_index.find(ev.id);
    if (it == flow_index.end()) continue;
    MessageHop& hop = pa.messages[it->second];
    hop.delivered = true;
    hop.deliver_sim_s = arg_or(ev, "sim_now_s", hop.send_sim_s);
  }

  // Pass 2: resolve each flow's cause (the message whose handling sent
  // it) and its round/phase, by climbing the causal parent chain. A
  // deliver span's parent *is* a flow id, so the climb naturally stops
  // at the previous message; TP-originated sends stop at a phase event
  // (which carries the round annotation) or the run-span root.
  for (MessageHop& hop : pa.messages) {
    ++pa.sent_by_type[hop.type];
    if (!hop.delivered) ++pa.drops;
    const TraceEvent* start = nullptr;
    if (const auto it = byid.find(hop.flow_id); it != byid.end()) {
      start = it->second;
    }
    if (start == nullptr) continue;
    bool round_known = false;
    std::uint64_t p = start->parent;
    for (std::size_t depth = 0; p != 0 && depth < kMaxDepth; ++depth) {
      if (flow_index.count(p) != 0) {
        hop.cause = p;  // reached the causing message
        break;
      }
      const auto it = byid.find(p);
      if (it == byid.end()) break;
      const TraceEvent& anc = *it->second;
      if (!round_known && anc.category == "protocol") {
        const double r = arg_or(anc, "round", -1.0);
        if (r >= 0.0) {
          hop.round = static_cast<std::size_t>(r);
          hop.phase = anc.name;
          round_known = true;
        }
      }
      p = anc.parent;
    }
    // A GSP reply inherits its round from the message that caused it.
    if (!round_known && hop.cause != 0) {
      const MessageHop& cause = pa.messages[flow_index.at(hop.cause)];
      hop.round = cause.round;
      hop.phase = cause.phase;
    }
  }

  // Pass 3: per-round critical path — the causal chain ending at the
  // round's last delivery (ties: larger flow id, i.e. sent later).
  std::map<std::size_t, const MessageHop*> terminal;
  for (const MessageHop& hop : pa.messages) {
    if (!hop.delivered) continue;
    const MessageHop*& best = terminal[hop.round];
    if (best == nullptr || hop.deliver_sim_s > best->deliver_sim_s ||
        (hop.deliver_sim_s == best->deliver_sim_s &&
         hop.flow_id > best->flow_id)) {
      best = &hop;
    }
  }
  for (const auto& [round, last] : terminal) {
    RoundPath path;
    path.round = round;
    path.completion_sim_s = last->deliver_sim_s;
    const MessageHop* hop = last;
    for (std::size_t depth = 0; hop != nullptr && depth < kMaxDepth;
         ++depth) {
      path.hops.push_back(*hop);
      const auto it = flow_index.find(hop->cause);
      hop = it != flow_index.end() ? &pa.messages[it->second] : nullptr;
    }
    std::reverse(path.hops.begin(), path.hops.end());
    const std::size_t member =
        last->from != 0 ? last->from : last->to;
    path.bounding_member = node_name(member);
    pa.rounds.push_back(std::move(path));
  }
  return pa;
}

// --- text report ---------------------------------------------------------

namespace {

void write_span_table(std::ostream& os, const std::vector<SpanStats>& stats,
                      std::size_t top_k) {
  os << "  " << std::left << std::setw(36) << "span" << std::right
     << std::setw(8) << "count" << std::setw(12) << "total_ms"
     << std::setw(12) << "self_ms" << std::setw(10) << "p50_us"
     << std::setw(10) << "p95_us" << std::setw(10) << "max_us" << '\n';
  const std::size_t n = std::min(top_k, stats.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SpanStats& s = stats[i];
    os << "  " << std::left << std::setw(36) << s.name << std::right
       << std::setw(8) << s.count << std::setw(12) << std::fixed
       << std::setprecision(3) << s.total_us / 1000.0 << std::setw(12)
       << s.self_us / 1000.0 << std::setw(10) << std::setprecision(1)
       << s.p50_us << std::setw(10) << s.p95_us
       << std::setw(10) << s.max_us << '\n';
  }
  if (stats.size() > n) {
    os << "  ... " << (stats.size() - n) << " more span name(s)\n";
  }
}

void write_round_path(std::ostream& os, const RoundPath& path) {
  os << "  round " << path.round << ": completed at sim t=" << std::fixed
     << std::setprecision(6) << path.completion_sim_s << "s, bounded by "
     << path.bounding_member << " (" << path.hops.size()
     << "-message critical path)\n";
  double prev_deliver = -1.0;
  for (const MessageHop& hop : path.hops) {
    os << "    " << std::left << std::setw(8) << hop.type << std::right
       << node_name(hop.from) << " -> " << node_name(hop.to);
    os << "  send t=" << std::setprecision(6) << hop.send_sim_s << "s";
    if (hop.delivered) {
      os << "  wire " << std::setprecision(3)
         << (hop.deliver_sim_s - hop.send_sim_s) * 1e3 << "ms";
    } else {
      os << "  DROPPED";
    }
    if (prev_deliver >= 0.0 && hop.send_sim_s >= prev_deliver) {
      os << "  (+" << std::setprecision(3)
         << (hop.send_sim_s - prev_deliver) * 1e3 << "ms local)";
    }
    if (!hop.phase.empty() && hop.cause == 0) os << "  [" << hop.phase << "]";
    os << '\n';
    if (hop.delivered) prev_deliver = hop.deliver_sim_s;
  }
}

}  // namespace

void write_text_report(std::ostream& os,
                       const std::vector<TraceEvent>& events,
                       const ReportOptions& options) {
  std::size_t spans = 0;
  std::size_t flows = 0;
  std::size_t instants = 0;
  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case EventKind::Complete: ++spans; break;
      case EventKind::FlowStart: ++flows; break;
      case EventKind::FlowEnd: break;
      case EventKind::Instant: ++instants; break;
    }
  }
  os << "trace: " << events.size() << " events (" << spans << " spans, "
     << flows << " message flows, " << instants << " instants)\n\n";

  const std::vector<SpanStats> stats = aggregate_spans(events);
  if (!stats.empty()) {
    os << "hot spans (top " << std::min(options.top_k, stats.size())
       << " by total time):\n";
    write_span_table(os, stats, options.top_k);
    os << '\n';
  }

  const ProtocolAnalysis pa = analyze_protocol(events);
  if (!pa.messages.empty()) {
    os << "protocol messages:";
    for (const auto& [type, count] : pa.sent_by_type) {
      os << "  " << type << "=" << count;
    }
    os << "  (drops=" << pa.drops << ")\n\n";
    os << "per-round critical paths (sim time):\n";
    for (const RoundPath& path : pa.rounds) write_round_path(os, path);
  } else {
    os << "no protocol message flows in this trace\n";
  }
}

// --- bench regression diffing --------------------------------------------

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative glob with backtracking over the last '*'.
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<DiffRule> default_bench_rules() {
  return {
      // Configuration echoes: any drift means the benches are no longer
      // comparable — gate exactly.
      {"*seed*", Direction::Exact, 0.0},
      {"*.n", Direction::Exact, 0.0},
      {"*.k", Direction::Exact, 0.0},
      {"*gsps*", Direction::Exact, 0.0},
      {"*tasks*", Direction::Exact, 0.0},
      {"*budget*", Direction::Exact, 0.0},
      {"*attack_rate*", Direction::Exact, 0.0},
      // Sparse-trust structure echoes (BENCH_trust_scale.json): the
      // graphs are seeded, so nnz/fill drift means the generator or the
      // CSR build changed — gate exactly.
      {"*fill*", Direction::Exact, 0.0},
      {"*nnz*", Direction::Exact, 0.0},
      // Continuous-telemetry aggregates (BENCH_telemetry.json): the
      // sampler-overhead ratio is wall clock — report only. Window
      // counts, SLO verdicts and burn rates come from virtual-time
      // replays, so they are deterministic — gate exactly. These sit
      // before the wall-clock rules on purpose: stats_window_seconds
      // is a config echo, and "*seconds*" would otherwise swallow it
      // as informational (first match wins).
      {"*overhead*", Direction::Informational, 0.0},
      {"*window*", Direction::Exact, 0.0},
      {"*slo*", Direction::Exact, 0.0},
      {"*burn*", Direction::Exact, 0.0},
      // Equivalence / quality booleans (all_outcomes_identical,
      // robust_beats_literal_*, *_monotone): exact.
      {"*identical*", Direction::Exact, 0.0},
      {"*same*", Direction::Exact, 0.0},
      {"*beats*", Direction::Exact, 0.0},
      {"*monotone*", Direction::Exact, 0.0},
      // Wall-clock timings vary across machines: report, never gate.
      // spmv throughput is the headline *informational* number of the
      // trust-scale bench (machine-bound like any wall clock).
      {"*spmv*", Direction::Informational, 0.0},
      {"*_ms", Direction::Informational, 0.0},
      {"*_us", Direction::Informational, 0.0},
      {"*_s", Direction::Informational, 0.0},
      {"*seconds*", Direction::Informational, 0.0},
      {"*elapsed*", Direction::Informational, 0.0},
      {"*time*", Direction::Informational, 0.0},
      // Deterministic work counts gate exactly: any change, fewer
      // included, means the engine itself changed. B&B node counts come
      // from seeded instances; power-iteration counts
      // (cold/warm/reweight_iterations, total_converge_iterations) from
      // seeded graphs; `rounds` is a configuration echo.
      {"*nodes*", Direction::Exact, 0.0},
      {"*converge*", Direction::Exact, 0.0},
      {"*iterations*", Direction::Exact, 0.0},
      {"*rounds*", Direction::Exact, 0.0},
      // Robustness aggregates (streaming economy): missing deadlines or
      // losing requests is a regression. Lost requests gate exactly —
      // the engine's invariant is zero, always. These sit before the
      // generic "*rate*" rule so deadline_miss_rate gates in the right
      // direction (first match wins).
      {"*miss*", Direction::LowerIsBetter, 0.10},
      {"*lost*", Direction::Exact, 0.0},
      {"*latency*", Direction::LowerIsBetter, 0.10},
      // Chaos-service aggregates (BENCH_service_chaos.json): retry /
      // expiry / restart traffic is driven entirely by the seeded fault
      // plan, so the counts — and retry_success_rate — are deterministic
      // and gate exactly. Before "*rate*": first match wins.
      {"*retry*", Direction::Exact, 0.0},
      {"*retries*", Direction::Exact, 0.0},
      {"*expired*", Direction::Exact, 0.0},
      {"*restart*", Direction::Exact, 0.0},
      // Quality ratios: shrinking is a regression.
      {"*reduction*", Direction::HigherIsBetter, 0.10},
      {"*retention*", Direction::HigherIsBetter, 0.10},
      {"*rate*", Direction::HigherIsBetter, 0.10},
      {"*share*", Direction::HigherIsBetter, 0.15},
      {"*welfare*", Direction::HigherIsBetter, 0.10},
      {"*corruption*", Direction::LowerIsBetter, 0.15},
      // Service throughput (BENCH_service.json): the shard speedup is
      // machine-relative (N shards over 1 shard on the same host and
      // run), so it transfers across machines — gate directionally with
      // slack for scheduler noise. Absolute throughput is wall clock:
      // report only. Shard counts are configuration echoes.
      {"*speedup*", Direction::HigherIsBetter, 0.35},
      {"*per_sec*", Direction::Informational, 0.0},
      {"*shards*", Direction::Exact, 0.0},
      // Anything unmatched: visible in the diff, not a gate.
      {"*", Direction::Informational, 0.0},
  };
}

namespace {

struct Leaf {
  double number = 0.0;
  bool is_string = false;
  std::string str;
};

void flatten(const JsonValue& v, const std::string& path,
             std::vector<std::pair<std::string, Leaf>>& out) {
  switch (v.type()) {
    case JsonValue::Type::Object:
      for (const auto& [key, child] : v.members()) {
        flatten(child, path.empty() ? key : path + "." + key, out);
      }
      break;
    case JsonValue::Type::Array: {
      std::size_t i = 0;
      for (const JsonValue& child : v.items()) {
        flatten(child, path + "[" + std::to_string(i++) + "]", out);
      }
      break;
    }
    case JsonValue::Type::Number:
      out.emplace_back(path, Leaf{v.as_double(), false, {}});
      break;
    case JsonValue::Type::Bool:
      out.emplace_back(path, Leaf{v.as_bool() ? 1.0 : 0.0, false, {}});
      break;
    case JsonValue::Type::String:
      out.emplace_back(path, Leaf{0.0, true, v.as_string()});
      break;
    case JsonValue::Type::Null:
      break;  // non-finite image; nothing to compare
  }
}

const DiffRule* match_rule(const std::vector<DiffRule>& rules,
                           const std::string& path) {
  for (const DiffRule& rule : rules) {
    if (glob_match(rule.pattern, path)) return &rule;
  }
  return nullptr;
}

}  // namespace

BenchDiffResult diff_bench_reports(const JsonValue& baseline,
                                   const JsonValue& current,
                                   const std::vector<DiffRule>& rules) {
  std::vector<std::pair<std::string, Leaf>> base_leaves;
  std::vector<std::pair<std::string, Leaf>> cur_leaves;
  flatten(baseline, "", base_leaves);
  flatten(current, "", cur_leaves);
  std::unordered_map<std::string, const Leaf*> cur_map;
  cur_map.reserve(cur_leaves.size());
  for (const auto& [path, leaf] : cur_leaves) cur_map.emplace(path, &leaf);

  BenchDiffResult result;
  std::unordered_map<std::string, bool> seen;
  for (const auto& [path, base] : base_leaves) {
    seen.emplace(path, true);
    const DiffRule* rule = match_rule(rules, path);
    const Direction dir =
        rule != nullptr ? rule->dir : Direction::Informational;
    const double tol = rule != nullptr ? rule->rel_tol : 0.0;

    MetricDelta delta;
    delta.path = path;
    delta.dir = dir;
    const auto it = cur_map.find(path);
    if (it == cur_map.end()) {
      delta.baseline = base.number;
      delta.status = dir == Direction::Informational
                         ? DeltaStatus::Info
                         : DeltaStatus::BaselineOnly;
      if (delta.status == DeltaStatus::BaselineOnly) ++result.regressions;
      result.deltas.push_back(std::move(delta));
      continue;
    }
    const Leaf& cur = *it->second;
    if (base.is_string || cur.is_string) {
      // A leaf that changes type gates under any gating rule: a gated
      // number that turns into a string has lost its value. Two strings
      // only gate under Exact rules (e.g. a bench renaming its mechanism
      // label is config drift).
      const bool regressed = base.is_string != cur.is_string
                                 ? dir != Direction::Informational
                                 : dir == Direction::Exact && base.str != cur.str;
      if (regressed) {
        delta.status = DeltaStatus::Regressed;
        ++result.regressions;
      } else {
        delta.status = DeltaStatus::Info;
      }
      result.deltas.push_back(std::move(delta));
      continue;
    }
    delta.baseline = base.number;
    delta.current = cur.number;
    const double denom = std::max(std::abs(base.number), 1.0);
    delta.rel_change = (cur.number - base.number) / denom;
    const double rel = delta.rel_change;
    switch (dir) {
      case Direction::Informational:
        delta.status = DeltaStatus::Info;
        break;
      case Direction::Exact:
        delta.status =
            std::abs(rel) > tol ? DeltaStatus::Regressed : DeltaStatus::Ok;
        break;
      case Direction::LowerIsBetter:
        delta.status = rel > tol    ? DeltaStatus::Regressed
                       : rel < -tol ? DeltaStatus::Improved
                                    : DeltaStatus::Ok;
        break;
      case Direction::HigherIsBetter:
        delta.status = rel < -tol  ? DeltaStatus::Regressed
                       : rel > tol ? DeltaStatus::Improved
                                   : DeltaStatus::Ok;
        break;
    }
    if (delta.status == DeltaStatus::Regressed) ++result.regressions;
    result.deltas.push_back(std::move(delta));
  }
  for (const auto& [path, cur] : cur_leaves) {
    if (seen.count(path) != 0) continue;
    MetricDelta delta;
    delta.path = path;
    delta.current = cur.is_string ? 0.0 : cur.number;
    delta.status = DeltaStatus::CurrentOnly;
    const DiffRule* rule = match_rule(rules, path);
    delta.dir = rule != nullptr ? rule->dir : Direction::Informational;
    result.deltas.push_back(std::move(delta));
  }
  return result;
}

}  // namespace svo::obs::analysis
