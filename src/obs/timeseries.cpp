#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace svo::obs {

std::uint64_t Window::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Window::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

Histogram::Snapshot Window::histogram(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? Histogram::Snapshot{} : it->second;
}

TimeSeries::TimeSeries(const MetricRegistry& registry, std::size_t capacity,
                       double start_time)
    : registry_(registry),
      capacity_(capacity),
      prev_(registry.snapshot()),
      last_time_(start_time) {
  detail::require(capacity > 0, "TimeSeries: capacity must be positive");
}

namespace {

/// Histogram delta between two cumulative snapshots. count/sum/buckets
/// subtract; min/max keep the cumulative values — the exact per-window
/// extrema are unrecoverable from cumulative state, and a too-wide
/// clamp range only loses precision quantile() would otherwise clamp
/// away, so the factor-2 bucket bound still holds. A shrunk cumulative
/// count means the histogram was reset mid-window: restart from the
/// current state.
Histogram::Snapshot delta_snapshot(const Histogram::Snapshot& prev,
                                   const Histogram::Snapshot& cur) {
  if (cur.count < prev.count) return cur;
  Histogram::Snapshot d;
  d.count = cur.count - prev.count;
  d.sum = cur.sum - prev.sum;
  d.min = cur.min;
  d.max = cur.max;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    d.buckets[b] =
        cur.buckets[b] >= prev.buckets[b] ? cur.buckets[b] - prev.buckets[b]
                                          : cur.buckets[b];
  }
  return d;
}

}  // namespace

const Window& TimeSeries::advance(double now) {
  detail::require(now >= last_time_,
                  "TimeSeries::advance: clock moved backwards");
  RegistrySnapshot cur = registry_.snapshot();
  Window w;
  w.index = next_index_++;
  w.start_time = last_time_;
  w.end_time = now;
  for (const auto& [name, value] : cur.counters) {
    const auto it = prev_.counters.find(name);
    const std::uint64_t before = it == prev_.counters.end() ? 0 : it->second;
    // A shrunk cumulative value means reset(): restart the delta.
    const std::uint64_t delta = value >= before ? value - before : value;
    // Untouched metrics stay out of the window (the accessors read 0).
    if (delta != 0) w.counters.emplace(name, delta);
  }
  w.gauges = cur.gauges;  // levels, read at close
  for (const auto& [name, snap] : cur.histograms) {
    const auto it = prev_.histograms.find(name);
    Histogram::Snapshot d = it == prev_.histograms.end()
                                ? snap
                                : delta_snapshot(it->second, snap);
    if (d.count != 0) w.histograms.emplace(name, std::move(d));
  }
  prev_ = std::move(cur);
  last_time_ = now;
  windows_.push_back(std::move(w));
  if (windows_.size() > capacity_) windows_.pop_front();
  return windows_.back();
}

Window TimeSeries::rollup(std::size_t last_n) const {
  Window out;
  if (windows_.empty() || last_n == 0) return out;
  const std::size_t n = std::min(last_n, windows_.size());
  const std::size_t first = windows_.size() - n;
  out.index = windows_.back().index;
  out.start_time = windows_[first].start_time;
  out.end_time = windows_.back().end_time;
  out.gauges = windows_.back().gauges;  // newest level wins
  for (std::size_t i = first; i < windows_.size(); ++i) {
    const Window& w = windows_[i];
    for (const auto& [name, value] : w.counters) out.counters[name] += value;
    for (const auto& [name, snap] : w.histograms) {
      out.histograms[name].merge(snap);
    }
  }
  return out;
}

void WindowSampler::validate(const char* who, double window_seconds,
                             std::size_t capacity,
                             const std::vector<SloObjective>& slos) {
  const auto require = [who](bool cond, const char* what) {
    if (!cond) throw InvalidArgument(std::string(who) + ": " + what);
  };
  require(std::isfinite(window_seconds) && window_seconds >= 0.0,
          "stats_window_seconds must be finite and >= 0");
  require(window_seconds == 0.0 || capacity > 0,
          "stats_window_capacity must be > 0");
  require(window_seconds > 0.0 || slos.empty(),
          "slos require stats_window_seconds > 0");
  for (const SloObjective& o : slos) o.validate();
}

WindowSampler::WindowSampler(MetricRegistry& registry, double window_seconds,
                             std::size_t capacity,
                             std::vector<SloObjective> slos)
    : window_seconds_(window_seconds),
      next_end_(window_seconds),
      series_(registry, capacity),
      slo_(std::move(slos), &registry) {
  detail::require(window_seconds > 0.0, "WindowSampler: window must be > 0");
}

WindowedHistogram::WindowedHistogram(std::size_t capacity)
    : capacity_(capacity) {
  detail::require(capacity > 0,
                  "WindowedHistogram: capacity must be positive");
}

const Histogram::Snapshot& WindowedHistogram::close_window() {
  windows_.push_back(live_.snapshot());
  live_.reset();
  if (windows_.size() > capacity_) windows_.pop_front();
  return windows_.back();
}

Histogram::Snapshot WindowedHistogram::rollup(std::size_t last_n) const {
  Histogram::Snapshot out;
  if (windows_.empty() || last_n == 0) return out;
  const std::size_t n = std::min(last_n, windows_.size());
  for (std::size_t i = windows_.size() - n; i < windows_.size(); ++i) {
    out.merge(windows_[i]);
  }
  return out;
}

}  // namespace svo::obs
