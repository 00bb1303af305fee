/// \file harness.hpp
/// Shared scaffolding of the outside-in benchmark: run arguments, the
/// metric report printed as the run's last stdout line, process
/// counters, per-thread sample logs, and the forwarding solver that
/// times the `ip` layer from outside the library.
///
/// Nothing here reaches into the library's own tracing (obs::Recorder
/// stays disabled): every per-layer number is taken around calls into a
/// layer's public functions, from this directory's code.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ip/assignment.hpp"
#include "ip/warm_start.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (all threads), seconds.
[[nodiscard]] double cpu_seconds();
/// CPU time of the calling thread, seconds.
[[nodiscard]] double thread_cpu_seconds();
/// Peak resident set size of the process, MiB.
[[nodiscard]] double peak_rss_mb();
/// Linear-interpolation percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> sample, double q);
[[nodiscard]] double mean(const std::vector<double>& sample);
/// Median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> sample);
/// Mean after dropping the lowest and highest `cut` share of the sample.
[[nodiscard]] double trimmed_mean(std::vector<double> sample, double cut);

/// Histogram of positive samples in buckets 1 % wide on a log scale, so
/// its memory does not grow with the sample count (which would make the
/// peak RSS of a time-bounded pass depend on speed). A percentile
/// interpolates within its bucket and is within 1 % of the exact one.
class LogHistogram {
 public:
  void add(double v);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// q in [0, 1]; 0 when empty.
  [[nodiscard]] double percentile(double q) const;

 private:
  static constexpr double kMin = 1e-4;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 2600;  // kMin * kGrowth^kBuckets > 1e7
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
};

/// Operations of a time-bounded pass, grouped by the window of run time
/// in which each completed. A host stall of a few seconds moves a run's
/// totals and tails, but not its median window.
class WindowedLatency {
 public:
  /// Whole windows of `window_s` seconds within the first `seconds` of
  /// the pass (one window of `seconds` when that is shorter, of
  /// `window_s` when it is 0); operations that complete later are not
  /// kept.
  WindowedLatency(double seconds, double window_s);
  /// An operation that completed `at_s` seconds into the pass.
  void add(double at_s, double latency_ms);
  /// Median over the windows of their operations per second, each
  /// timed from its first completion to its last.
  [[nodiscard]] double median_rate() const;
  /// Median over the windows of their q-percentile latency.
  [[nodiscard]] double median_percentile(double q) const;

 private:
  struct Window {
    LogHistogram latency_ms;
    double first_s = 0.0;
    double last_s = 0.0;
  };
  double window_s_;
  std::vector<Window> windows_;
};

/// Seed of the workload stream `stream` under the run seed.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// Metrics by name, printed in the run's final JSON line. Every workload
/// fills the same names; a layer a workload never enters reads 0.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  [[nodiscard]] double get(const std::string& name) const;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Record a failed output check: counts one failed operation.
  void fail(const std::string& what);

  /// Print `{"correct", "attempted", "failed", "metrics"}` as one line:
  /// the end-to-end metrics, or with `traced` the per-layer ones.
  void print(bool traced) const;

 private:
  std::map<std::string, double> values_;
};

/// Exact work counts of one pass, compared between the untraced and
/// traced passes and printed to stderr so runs of one seed can be
/// compared across processes.
using WorkCounts = std::map<std::string, double>;
void print_work(const char* pass, const WorkCounts& counts);
/// Fail `report` for every count that differs between the passes.
void compare_work(const WorkCounts& untraced, const WorkCounts& traced,
                  Report& report);

/// Run `setup` `times` times, timing each, and return the median
/// seconds; the last result stays in `out`.
template <class T, class F>
double timed_setups(int times, T& out, F&& setup) {
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    out = T{};  // release the previous build before the next one
    const Clock::time_point t0 = Clock::now();
    setup(out);
    secs.push_back(seconds_between(t0, Clock::now()));
  }
  return median(secs);
}

/// Set-up repetitions; setup_s reports their median.
inline constexpr int kSetupRepeats = 5;

/// vo_payoff_ratio is the mean of the per-formation ratios after
/// dropping this share at each end: repairs' sunk costs give the stream
/// long negative tails, and a median would jump between VO sizes.
inline constexpr double kPayoffTrim = 0.1;

/// Per-thread slots of a T, for logs written by several threads (the
/// service's shard workers). local() is the calling thread's slot;
/// for_each() may run only once every writer is quiescent.
template <class T>
class PerThread {
 public:
  PerThread() = default;
  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  T& local() {
    thread_local std::vector<std::pair<std::uint64_t, void*>> cache;
    for (const auto& [id, slot] : cache) {
      if (id == id_) return *static_cast<T*>(slot);
    }
    T* slot = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      slot = &slots_.emplace_back();
    }
    cache.emplace_back(id_, slot);
    return *slot;
  }

  template <class F>
  void for_each(F&& f) const {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const T& slot : slots_) f(slot);
  }

  /// Reset every slot; only while no thread writes.
  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (T& slot : slots_) slot = T{};
  }

 private:
  static std::uint64_t next_id();
  const std::uint64_t id_ = next_id();
  mutable std::mutex mu_;
  std::deque<T> slots_;  // stable addresses
};

std::uint64_t next_per_thread_id();
template <class T>
std::uint64_t PerThread<T>::next_id() {
  return next_per_thread_id();
}

/// What the traced solver saw on one thread.
struct SolveLog {
  std::uint64_t calls = 0;
  std::uint64_t warm_calls = 0;
  std::uint64_t nodes = 0;
  std::uint64_t budget_hits = 0;  ///< stopped at the node budget
  std::uint64_t warm_used = 0;    ///< warm incumbent accepted
  double busy_s = 0.0;
  std::vector<double> solve_ms;
};

/// Forwarding ip::AssignmentSolver that times every solve of the wrapped
/// solver. Both solve overloads forward; dropping the warm one would
/// turn every warm solve cold and change the exact node counts, which
/// the work-count check then reports.
class TracedSolver final : public svo::ip::AssignmentSolver {
 public:
  explicit TracedSolver(const svo::ip::AssignmentSolver& inner)
      : inner_(inner) {}

  [[nodiscard]] svo::ip::AssignmentSolution solve(
      const svo::ip::AssignmentInstance& inst) const override;
  [[nodiscard]] svo::ip::AssignmentSolution solve(
      const svo::ip::AssignmentInstance& inst,
      const svo::ip::WarmStart& warm) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  /// Solver seconds spent so far on the calling thread.
  [[nodiscard]] double busy_on_this_thread() const {
    return logs_.local().busy_s;
  }
  /// Merged log of every thread; call once the solver is quiescent.
  [[nodiscard]] SolveLog merged() const;
  /// Forget everything logged so far; only while quiescent.
  void reset() const { logs_.clear(); }

 private:
  template <class F>
  svo::ip::AssignmentSolution timed(F&& solve, bool warm) const;

  const svo::ip::AssignmentSolver& inner_;
  mutable PerThread<SolveLog> logs_;
};

/// Fill the ip.* per-layer metrics: exact counts from `unit` (the
/// seed-fixed work unit), timings from `pass` (the whole traced pass).
/// `mechanism_s` is the mechanism time the pass's solves ran inside.
void report_ip(const SolveLog& pass, const SolveLog& unit, double mechanism_s,
               Report& report);

/// Workload entry points: fill `report` for one run.
void run_paper_fig9(const Args& args, Report& report);
void run_svc_closed(const Args& args, Report& report);
void run_stream_churn(const Args& args, Report& report);
void run_trust_rounds(const Args& args, Report& report);

/// Threads a workload uses, for the run banner.
[[nodiscard]] std::size_t workload_threads(const std::string& workload);

}  // namespace perfbench
