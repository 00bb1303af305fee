#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0 (BENCHMARK.json "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p95", "ms"},
    {"cpu_ms_per_op", "ms"},
    {"success_ratio", "ratio"},
    {"vo_payoff_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
};

/// Printed with --trace 1 (BENCHMARK.json "per_layer").
constexpr MetricSpec kPerLayer[] = {
    {"trace.synth_ms", "ms"},
    {"workload.scenario_ms_mean", "ms"},
    {"ip.solve_calls", "count"},
    {"ip.nodes", "count"},
    {"ip.budget_hit_ratio", "ratio"},
    {"ip.warm_used_ratio", "ratio"},
    {"ip.busy_ms", "ms"},
    {"ip.share", "ratio"},
    {"ip.ns_per_node", "ns"},
    {"ip.solve_ms_p50", "ms"},
    {"ip.solve_ms_p99", "ms"},
    {"core.iterations", "count"},
    {"core.run_ms_p50", "ms"},
    {"core.self_ms_mean", "ms"},
    {"core.self_share", "ratio"},
    {"svc.submit_us_p99", "us"},
    {"svc.queue_ms_p50", "ms"},
    {"svc.queue_ms_p99", "ms"},
    {"svc.solve_ms_p50", "ms"},
    {"svc.solve_ms_p99", "ms"},
    {"svc.queue_share", "ratio"},
    {"svc.batch_mean", "count"},
    {"load.lag_ms_p99", "ms"},
    {"load.behind", "count"},
    {"sim.events", "count"},
    {"sim.formations", "count"},
    {"sim.churn_events", "count"},
    {"sim.ms_per_formation", "ms"},
    {"sim.us_per_event", "us"},
    {"trust.iterations_mean", "count"},
    {"trust.warm_ratio", "ratio"},
    {"trust.iterations_saved", "count"},
    {"trust.update_ms_mean", "ms"},
    {"trust.compute_ms_p50", "ms"},
    {"linalg.ns_per_nnz_iter", "ns"},
    {"bench.tracing_overhead", "ratio"},
};

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  return svo::util::percentile(std::move(sample), q);
}

double mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : sample) sum += v;
  return sum / static_cast<double>(sample.size());
}

double median(std::vector<double> sample) { return percentile(std::move(sample), 0.5); }

double trimmed_mean(std::vector<double> sample, double cut) {
  std::sort(sample.begin(), sample.end());
  const auto drop = static_cast<std::ptrdiff_t>(cut * static_cast<double>(sample.size()));
  return mean(std::vector<double>(sample.begin() + drop, sample.end() - drop));
}

void LogHistogram::add(double v) {
  const double b = v > kMin ? std::log(v / kMin) / std::log(kGrowth) : 0.0;
  ++counts_[std::min(static_cast<std::size_t>(b), kBuckets - 1)];
  ++count_;
}

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (static_cast<double>(below + counts_[b]) > rank) {
      const double within = (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(counts_[b]);
      return kMin * std::pow(kGrowth, static_cast<double>(b) + within);
    }
    below += counts_[b];
  }
  return kMin * std::pow(kGrowth, static_cast<double>(kBuckets));
}

WindowedLatency::WindowedLatency(double seconds, double window_s)
    : window_s_(seconds > 0.0 ? std::min(window_s, seconds) : window_s),
      windows_(std::max<std::size_t>(1, static_cast<std::size_t>(seconds / window_s))) {}

void WindowedLatency::add(double at_s, double latency_ms) {
  const auto i = static_cast<std::size_t>(at_s / window_s_);
  if (i >= windows_.size()) return;
  Window& w = windows_[i];
  if (w.latency_ms.count() == 0) w.first_s = at_s;
  w.last_s = at_s;
  w.latency_ms.add(latency_ms);
}

double WindowedLatency::median_rate() const {
  std::vector<double> rates;
  for (const Window& w : windows_) {
    const double n = static_cast<double>(w.latency_ms.count());
    rates.push_back(w.last_s > w.first_s ? (n - 1.0) / (w.last_s - w.first_s) : n / window_s_);
  }
  return median(rates);
}

double WindowedLatency::median_percentile(double q) const {
  std::vector<double> values;
  for (const Window& w : windows_) values.push_back(w.latency_ms.percentile(q));
  return median(values);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return svo::util::derive_seed(seed, stream);
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::fail(const std::string& what) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::print(bool traced) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", spec.name, get(spec.name), spec.unit);
    first = false;
  };
  if (traced) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_work(const char* pass, const WorkCounts& counts) {
  std::fprintf(stderr, "perfbench: work %s {", pass);
  bool first = true;
  for (const auto& [name, value] : counts) {
    std::fprintf(stderr, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::fprintf(stderr, "}\n");
}

void compare_work(const WorkCounts& untraced, const WorkCounts& traced,
                  Report& report) {
  for (const auto& [name, value] : untraced) {
    const auto it = traced.find(name);
    if (it == traced.end() || it->second != value) {
      report.fail("work count " + name + " differs between the untraced and traced passes");
    }
  }
}

std::uint64_t next_per_thread_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

template <class F>
svo::ip::AssignmentSolution TracedSolver::timed(F&& solve, bool warm) const {
  const Clock::time_point t0 = Clock::now();
  svo::ip::AssignmentSolution s = solve();
  const double dt = seconds_between(t0, Clock::now());
  SolveLog& log = logs_.local();
  ++log.calls;
  if (warm) ++log.warm_calls;
  log.nodes += s.stats.nodes;
  if (s.stats.status == svo::ip::AssignStatus::Feasible ||
      s.stats.status == svo::ip::AssignStatus::Unknown) {
    ++log.budget_hits;
  }
  if (s.stats.warm_start_used) ++log.warm_used;
  log.busy_s += dt;
  log.solve_ms.push_back(dt * 1e3);
  return s;
}

svo::ip::AssignmentSolution TracedSolver::solve(
    const svo::ip::AssignmentInstance& inst) const {
  return timed([&] { return inner_.solve(inst); }, false);
}

svo::ip::AssignmentSolution TracedSolver::solve(
    const svo::ip::AssignmentInstance& inst,
    const svo::ip::WarmStart& warm) const {
  return timed([&] { return inner_.solve(inst, warm); }, true);
}

SolveLog TracedSolver::merged() const {
  SolveLog all;
  logs_.for_each([&](const SolveLog& log) {
    all.calls += log.calls;
    all.warm_calls += log.warm_calls;
    all.nodes += log.nodes;
    all.budget_hits += log.budget_hits;
    all.warm_used += log.warm_used;
    all.busy_s += log.busy_s;
    all.solve_ms.insert(all.solve_ms.end(), log.solve_ms.begin(), log.solve_ms.end());
  });
  return all;
}

void report_ip(const SolveLog& pass, const SolveLog& unit, double mechanism_s,
               Report& report) {
  const double calls = static_cast<double>(unit.calls);
  report.set("ip.solve_calls", calls);
  report.set("ip.nodes", static_cast<double>(unit.nodes));
  report.set("ip.budget_hit_ratio",
             calls > 0 ? static_cast<double>(unit.budget_hits) / calls : 0.0);
  report.set("ip.warm_used_ratio",
             calls > 0 ? static_cast<double>(unit.warm_used) / calls : 0.0);
  report.set("ip.busy_ms", pass.busy_s * 1e3);
  report.set("ip.share", mechanism_s > 0.0 ? pass.busy_s / mechanism_s : 0.0);
  report.set("ip.ns_per_node",
             pass.nodes > 0 ? pass.busy_s * 1e9 / static_cast<double>(pass.nodes) : 0.0);
  report.set("ip.solve_ms_p50", percentile(pass.solve_ms, 0.50));
  report.set("ip.solve_ms_p99", percentile(pass.solve_ms, 0.99));
}

std::size_t workload_threads(const std::string& workload) {
  // svc_closed: three shard workers plus the load generator.
  return workload == "svc_closed" ? 4 : 1;
}

}  // namespace perfbench
