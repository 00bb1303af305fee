/// \file rng.hpp
/// Deterministic pseudo-random number generation for simulations.
///
/// Every experiment in this repository is reproducible from a single
/// 64-bit seed. We implement xoshiro256** (Blackman & Vigna) seeded via
/// SplitMix64, plus `split()` so independent substreams can be handed to
/// parallel workers without sharing state. The engine satisfies
/// std::uniform_random_bit_generator and can drive <random> distributions,
/// but the members below (uniform/uniform_int/...) are preferred: they are
/// implementation-pinned, so results do not drift across standard libraries.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace svo::util {

/// SplitMix64 step: used for seeding and as a cheap stateless mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG. 256-bit state, period 2^256-1, passes BigCrush.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed (expanded through SplitMix64).
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next 64 random bits. Inline: ip/local_search's swap pass draws one
  /// per sampled partner, tens of thousands per paper-scale solve.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Derive an independent generator (jump-free splitting: reseeds a child
  /// from two draws mixed through SplitMix64; collisions are negligible).
  [[nodiscard]] Xoshiro256 split() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n). Requires n > 0. Unbiased (rejection method).
  [[nodiscard]] std::size_t index(std::size_t n);

  /// Bernoulli draw with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);

  /// Standard normal via Box-Muller (implementation-pinned).
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean and standard deviation (sigma >= 0).
  [[nodiscard]] double normal(double mean, double sigma);

  /// Log-normal: exp(N(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma);

  /// Exponential with rate lambda > 0.
  [[nodiscard]] double exponential(double lambda);

  /// Gamma(shape, scale), shape > 0, scale > 0 (Marsaglia-Tsang squeeze
  /// for shape >= 1; boosting for shape < 1).
  [[nodiscard]] double gamma(double shape, double scale);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[index(i)]);
    }
  }

  /// Sample one element uniformly. Requires non-empty.
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& v) {
    detail::require(!v.empty(), "Xoshiro256::pick: empty vector");
    return v[index(v.size())];
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Derive a child seed for a named substream. Deterministic in
/// (seed, stream): lets experiment code give each (repetition, module)
/// pair its own independent generator.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream) noexcept;

}  // namespace svo::util
