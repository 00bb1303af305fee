#include "obs/slo.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "util/error.hpp"

namespace svo::obs {

std::string to_string(SloKind kind) {
  switch (kind) {
    case SloKind::QuantileBelow:
      return "quantile_below";
    case SloKind::RatioBelow:
      return "ratio_below";
    case SloKind::CounterZero:
      return "counter_zero";
  }
  return "unknown";
}

void SloObjective::validate() const {
  detail::require(!name.empty(), "SloObjective: empty name");
  detail::require(!metric.empty(), "SloObjective: empty metric");
  if (kind == SloKind::RatioBelow) {
    detail::require(!denominator.empty(),
                    "SloObjective: RatioBelow needs a denominator");
  }
  if (kind == SloKind::QuantileBelow) {
    detail::require(quantile >= 0.0 && quantile <= 1.0,
                    "SloObjective: quantile must be in [0,1]");
  }
  if (kind != SloKind::CounterZero) {
    detail::require(threshold > 0.0,
                    "SloObjective: threshold must be positive");
  }
  detail::require(error_budget > 0.0 && error_budget <= 1.0,
                  "SloObjective: error_budget must be in (0,1]");
  detail::require(fast_windows > 0, "SloObjective: fast_windows must be > 0");
  detail::require(slow_windows >= fast_windows,
                  "SloObjective: slow_windows must be >= fast_windows");
  detail::require(burn_threshold > 0.0,
                  "SloObjective: burn_threshold must be positive");
}

SloTracker::SloTracker(std::vector<SloObjective> objectives,
                       MetricRegistry* surface)
    : objectives_(std::move(objectives)), surface_(surface) {
  for (const SloObjective& o : objectives_) o.validate();
  status_.resize(objectives_.size());
  recent_.resize(objectives_.size());
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    status_[i].name = objectives_[i].name;
  }
}

namespace {

/// Did this window violate the objective? No data = no violation — an
/// idle window burns no budget.
bool window_violates(const SloObjective& o, const Window& w) {
  switch (o.kind) {
    case SloKind::QuantileBelow: {
      const Histogram::Snapshot s = w.histogram(o.metric);
      if (s.count == 0) return false;
      return s.quantile(o.quantile) >= o.threshold;
    }
    case SloKind::RatioBelow: {
      const std::uint64_t denom = w.counter(o.denominator);
      if (denom == 0) return false;
      const double rate = static_cast<double>(w.counter(o.metric)) /
                          static_cast<double>(denom);
      return rate >= o.threshold;
    }
    case SloKind::CounterZero:
      return w.counter(o.metric) > 0;
  }
  return false;
}

/// Burn rate over the newest `span` verdicts: the observed violation
/// fraction as a multiple of the budgeted fraction. 1.0 = spending the
/// budget exactly as fast as allowed. Uses the windows seen so far when
/// fewer than `span` exist — early breaches should not hide behind a
/// warm-up period.
double burn_rate(const std::vector<bool>& recent, std::size_t span,
                 double budget) {
  if (recent.empty()) return 0.0;
  const std::size_t n = std::min(span, recent.size());
  std::size_t bad = 0;
  for (std::size_t i = recent.size() - n; i < recent.size(); ++i) {
    if (recent[i]) ++bad;
  }
  return static_cast<double>(bad) / static_cast<double>(n) / budget;
}

}  // namespace

const std::vector<SloStatus>& SloTracker::evaluate(const Window& window) {
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    const SloObjective& o = objectives_[i];
    SloStatus& st = status_[i];
    const bool violated = window_violates(o, window);

    std::vector<bool>& ring = recent_[i];
    ring.push_back(violated);
    if (ring.size() > o.slow_windows) ring.erase(ring.begin());

    ++st.windows;
    if (violated) ++st.violations;
    st.violated_last = violated;
    st.budget_consumed = static_cast<double>(st.violations) /
                         (static_cast<double>(st.windows) * o.error_budget);
    st.fast_burn = burn_rate(ring, o.fast_windows, o.error_budget);
    st.slow_burn = burn_rate(ring, o.slow_windows, o.error_budget);
    const bool breached =
        st.fast_burn >= o.burn_threshold && st.slow_burn >= o.burn_threshold;
    const bool onset = breached && !st.breached;
    if (onset) ++st.breach_onsets;
    st.breached = breached;

    if (surface_ != nullptr) {
      const std::string prefix = "slo." + o.name;
      if (violated) surface_->counter(prefix + ".violations").add();
      if (onset) surface_->counter(prefix + ".breaches").add();
      surface_->gauge(prefix + ".violated").set(violated ? 1.0 : 0.0);
      surface_->gauge(prefix + ".budget_consumed").set(st.budget_consumed);
      surface_->gauge(prefix + ".fast_burn").set(st.fast_burn);
      surface_->gauge(prefix + ".slow_burn").set(st.slow_burn);
      surface_->gauge(prefix + ".breached").set(breached ? 1.0 : 0.0);
    }
  }
  return status_;
}

bool SloTracker::any_breached() const noexcept {
  return std::any_of(status_.begin(), status_.end(),
                     [](const SloStatus& s) { return s.breached; });
}

}  // namespace svo::obs
