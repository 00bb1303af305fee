#include "util/rng.hpp"

#include <cmath>
#include <algorithm>
#include <limits>
#include <numbers>

namespace svo::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  // Expand the seed through SplitMix64 as recommended by the authors;
  // guarantees the all-zero state (the one invalid state) never occurs.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Xoshiro256 Xoshiro256::split() noexcept {
  std::uint64_t mix = (*this)();
  mix ^= std::rotl((*this)(), 31);
  return Xoshiro256(splitmix64(mix));
}

double Xoshiro256::uniform() noexcept {
  // 53 high bits -> double in [0,1) with full mantissa resolution.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Xoshiro256::uniform(double lo, double hi) {
  detail::require(lo <= hi, "Xoshiro256::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Xoshiro256::uniform_int(std::int64_t lo, std::int64_t hi) {
  detail::require(lo <= hi, "Xoshiro256::uniform_int: lo > hi");
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  return lo + static_cast<std::int64_t>(index(span));
}

std::size_t Xoshiro256::index(std::size_t n) {
  detail::require(n > 0, "Xoshiro256::index: n == 0");
  // Classic rejection sampling: discard the first (2^64 mod n) values so
  // the retained range is an exact multiple of n -> unbiased for every n.
  // That threshold is below n, so a draw r >= n is always kept and the
  // threshold's division is only paid for the rare r < n.
  const std::uint64_t bound = n;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= bound || r >= (0 - bound) % bound) {
      return static_cast<std::size_t>(r % bound);
    }
  }
}

bool Xoshiro256::bernoulli(double p) {
  detail::require(p >= 0.0 && p <= 1.0, "Xoshiro256::bernoulli: p not in [0,1]");
  return uniform() < p;
}

double Xoshiro256::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; guard against log(0).
  double u1 = uniform();
  while (u1 <= std::numeric_limits<double>::min()) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Xoshiro256::normal(double mean, double sigma) {
  detail::require(sigma >= 0.0, "Xoshiro256::normal: sigma < 0");
  return mean + sigma * normal();
}

double Xoshiro256::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Xoshiro256::exponential(double lambda) {
  detail::require(lambda > 0.0, "Xoshiro256::exponential: lambda <= 0");
  double u = uniform();
  while (u <= std::numeric_limits<double>::min()) u = uniform();
  return -std::log(u) / lambda;
}

double Xoshiro256::gamma(double shape, double scale) {
  detail::require(shape > 0.0 && scale > 0.0,
                  "Xoshiro256::gamma: shape and scale must be > 0");
  // Marsaglia & Tsang (2000). For shape < 1, sample Gamma(shape+1) and
  // multiply by U^(1/shape) (the boosting identity).
  if (shape < 1.0) {
    const double u = std::max(uniform(), std::numeric_limits<double>::min());
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v * scale;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t state = seed ^ (0x5851f42d4c957f2dULL * (stream + 1));
  (void)splitmix64(state);
  return splitmix64(state);
}

}  // namespace svo::util
