/// \file timeseries.hpp
/// Continuous telemetry over the metric registry (DESIGN.md §4j): the
/// cumulative counters/histograms of MetricRegistry answer "what
/// happened since the process started"; a long-running service needs
/// "what happened in the last thirty seconds". TimeSeries closes
/// fixed-duration *windows* — per-window counter deltas, gauge reads
/// and histogram delta-snapshots — into a bounded ring, and rollup()
/// merges the last N windows for p50/p95/p99-over-last-N queries.
///
/// Windows advance on an *injected* clock: svc::FormationService feeds
/// wall time from its util::WallTimer, sim::StreamEngine feeds virtual
/// time from des::Simulator, both through one WindowSampler. Nothing
/// here reads a real clock, so virtual-time window sequences are
/// deterministic and replay-identical (same discipline as the rest of
/// the obs spine: telemetry is an observer, never an actor).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"

namespace svo::obs {

/// One closed telemetry window: activity between two clock readings.
/// Counters and histograms hold *deltas* over the window; gauges hold
/// the value read when the window closed (a gauge is already a level,
/// deltas would be meaningless).
struct Window {
  std::uint64_t index = 0;   ///< 0-based position in the series
  double start_time = 0.0;   ///< clock reading that opened the window
  double end_time = 0.0;     ///< clock reading that closed it
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;

  /// Bit-wise equality — the replay tests compare whole window
  /// sequences across same-seed virtual-time runs.
  friend bool operator==(const Window&, const Window&) = default;

  /// Delta lookup with 0-defaults for absent metrics (a metric that was
  /// never touched in a window simply is not in the map).
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;
  /// Empty snapshot when absent.
  [[nodiscard]] Histogram::Snapshot histogram(const std::string& name) const;
};

/// Fixed-capacity ring of windows over one MetricRegistry. Not
/// thread-safe: callers serialize advance() (WindowSampler below).
class TimeSeries {
 public:
  /// Observes — never owns — `registry`; capacity bounds the ring
  /// (oldest windows are evicted). The construction-time registry state
  /// is the delta baseline and `start_time` opens the first window.
  /// Throws on capacity == 0.
  TimeSeries(const MetricRegistry& registry, std::size_t capacity,
             double start_time = 0.0);

  /// Close the window [previous advance, now) and append it. Counter
  /// and histogram deltas are computed against the snapshot taken at
  /// the previous advance; a cumulative value that *shrank* (registry
  /// reset) restarts the delta from the current value rather than
  /// underflowing. `now` must be >= the previous reading.
  const Window& advance(double now);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Windows currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return windows_.size(); }
  /// Windows ever closed (monotonic; == the next window's index).
  [[nodiscard]] std::uint64_t windows_closed() const noexcept {
    return next_index_;
  }
  /// All retained windows, oldest first.
  [[nodiscard]] const std::deque<Window>& windows() const noexcept {
    return windows_;
  }

  /// Merge the newest min(last_n, size()) windows into one synthetic
  /// window: counters/histograms sum, gauges take the newest window's
  /// reading, [start_time, end_time] spans the merged range. Quantiles
  /// of the merged histograms inherit the factor-2 log2-bucket bound
  /// from Histogram::Snapshot::quantile. Returns an empty Window when
  /// no windows have closed yet.
  [[nodiscard]] Window rollup(std::size_t last_n) const;

 private:
  const MetricRegistry& registry_;
  std::size_t capacity_;
  std::deque<Window> windows_;
  RegistrySnapshot prev_;
  double last_time_ = 0.0;
  std::uint64_t next_index_ = 0;
};

/// Closes the windows [k*w, (k+1)*w) of a TimeSeries on an injected
/// clock and scores every SLO on each. Not thread-safe, like the
/// TimeSeries and SloTracker it owns.
class WindowSampler {
 public:
  /// Sees each closed window after its SLO verdicts.
  using Sink = std::function<void(const Window&)>;

  /// The window options both hosts carry; throws InvalidArgument
  /// ("<who>: ...") on a negative or non-finite window, a zero capacity,
  /// SLOs with the window 0 (telemetry off), or an invalid objective.
  static void validate(const char* who, double window_seconds,
                       std::size_t capacity,
                       const std::vector<SloObjective>& slos);

  /// Windows of `window_seconds` > 0 from 0 on. SLO verdicts surface
  /// into `registry` as slo.* metrics, landing in the *next* window.
  WindowSampler(MetricRegistry& registry, double window_seconds,
                std::size_t capacity, std::vector<SloObjective> slos);

  /// Close every window that ends at or before `now`; an event at the
  /// boundary k*w belongs to window k.
  void advance(double now, const Sink& sink = {}) {
    for (; next_end_ <= now; next_end_ += window_seconds_) {
      close(next_end_, sink);
    }
  }
  /// advance(now), then close the open partial window up to `now`.
  void finish(double now, const Sink& sink = {}) {
    advance(now, sink);
    if (now > next_end_ - window_seconds_) close(now, sink);
  }

  [[nodiscard]] const TimeSeries& series() const noexcept { return series_; }
  [[nodiscard]] const SloTracker& slo() const noexcept { return slo_; }

 private:
  void close(double end, const Sink& sink) {
    const Window& w = series_.advance(end);
    slo_.evaluate(w);
    if (sink) sink(w);
  }

  double window_seconds_;
  double next_end_;
  TimeSeries series_;
  SloTracker slo_;
};

/// Standalone windowed histogram for callers without a registry: a live
/// Histogram plus a ring of per-window snapshots. observe() feeds the
/// open window; close_window() snapshots-and-resets it into the ring.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(std::size_t capacity);

  void observe(double v) noexcept { live_.observe(v); }
  /// Seal the open window; returns the sealed snapshot.
  const Histogram::Snapshot& close_window();

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return windows_.size(); }
  [[nodiscard]] const std::deque<Histogram::Snapshot>& windows()
      const noexcept {
    return windows_;
  }

  /// Merge the newest min(last_n, size()) closed windows.
  [[nodiscard]] Histogram::Snapshot rollup(std::size_t last_n) const;

 private:
  std::size_t capacity_;
  Histogram live_;
  std::deque<Histogram::Snapshot> windows_;
};

}  // namespace svo::obs
