/// \file metrics.hpp
/// Metric primitives of the observability spine (DESIGN.md §4e):
/// counters, gauges and log-bucketed histograms, owned by a
/// MetricRegistry that hands out *stable* references — callers on hot
/// paths look a metric up once and keep the reference.
///
/// Two usage modes share these types:
///  - the process-wide registry inside obs::Recorder aggregates across a
///    whole run (exported as JSON via SVO_METRICS / TraceSession);
///  - *local* registries scope accounting to one operation — e.g.
///    sim::run_distributed builds its ProtocolMetrics from a per-run
///    registry instead of hand-maintained struct fields.
///
/// Counter::add and Gauge::set are lock-free; Histogram::observe and all
/// registry lookups take a mutex (they sit at solve boundaries, never in
/// inner loops).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace svo::obs {

/// Monotonic event counter; safe to add() from any thread.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written-value gauge. add() exists for up/down tracking (queue
/// depths): a CAS loop, so concurrent increments never lose a delta the
/// way racy read-modify-set() would.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram of non-negative samples: running count/sum/min/max plus
/// power-of-two buckets (bucket 0 holds v < 1, bucket i >= 1 holds
/// 2^(i-1) <= v < 2^i). Coarse on purpose — it answers "are B&B solves
/// budget-bound or tiny", not percentile SLOs.
///
/// Malformed samples never poison the aggregates: non-finite values are
/// dropped, negative ones clamp to 0 (still observed — the event
/// happened, its magnitude did not). Both increment bad_samples() and,
/// when the histogram lives in a MetricRegistry, the registry's
/// `obs.error.bad_sample` counter.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};

    /// Bit-wise equality; meaningful because every mutation is
    /// deterministic double arithmetic, so replayed runs produce
    /// bit-equal snapshots.
    friend bool operator==(const Snapshot&, const Snapshot&) = default;

    /// Accumulate `other` into this snapshot (used by window rollups).
    /// count/sum/buckets add; min/max widen to cover both.
    void merge(const Snapshot& other) noexcept;

    /// Quantile estimate (q in [0,1]) from the log2 buckets, linearly
    /// interpolated inside the target bucket and clamped to the exact
    /// [min, max] the histogram tracked.
    ///
    /// Error bound: the answer lies in the same power-of-two bucket as
    /// the true quantile, so it is off by at most the bucket width —
    /// a factor of 2 of the true value (bucket i covers [2^(i-1), 2^i)).
    /// Sanity-checked against util::percentile in the unit tests. Use
    /// util::percentile on raw samples when exact order statistics
    /// matter; this exists for post-hoc reads of exported histograms
    /// whose samples are gone. Returns 0 for an empty histogram.
    [[nodiscard]] double quantile(double q) const noexcept;
  };

  void observe(double v) noexcept;
  [[nodiscard]] Snapshot snapshot() const;
  void reset();

  /// Samples rejected (non-finite) or clamped (negative) so far.
  /// Survives reset() — it is an error tally, not a measurement.
  [[nodiscard]] std::uint64_t bad_samples() const noexcept {
    return bad_count_.load(std::memory_order_relaxed);
  }

  /// Optional shared error counter bumped alongside bad_samples();
  /// MetricRegistry wires its `obs.error.bad_sample` counter in here.
  /// The counter must outlive the histogram.
  void set_bad_sample_counter(Counter* c) noexcept { bad_counter_ = c; }

 private:
  mutable std::mutex mu_;
  Snapshot data_;
  std::atomic<std::uint64_t> bad_count_{0};
  Counter* bad_counter_ = nullptr;
};

/// One coherent point-in-time copy of every metric in a registry, keyed
/// by name. The building block obs::TimeSeries diffs to produce
/// per-window deltas.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;
};

/// Named metric store. Lookup creates on first use; returned references
/// stay valid for the registry's lifetime. A name identifies exactly one
/// kind — asking for `counter("x")` after `gauge("x")` throws.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Read without creating: 0 / 0.0 when the metric does not exist.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;

  /// Zero every metric (names stay registered, references stay valid).
  void reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}, names
  /// sorted, suitable for diffing across runs.
  void write_json(std::ostream& os) const;

  /// Registered metric names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Copy every metric under one lock acquisition — a coherent cut for
  /// window sampling (obs::TimeSeries) and the Prometheus exporter.
  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& find_or_create(std::string_view name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace svo::obs
