/// \file pin_hash.hpp
/// The one FNV-1a every golden pin in tests/ folds a series with. An
/// integer is hashed as one 64-bit word, byte by byte, least significant
/// byte first; a floating-point value as the 64 bits of its double; a
/// string as its length (one word) and then its bytes. Integers and
/// floating-point values each match only their own overload, so an enum
/// has to be converted at the call site.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <string_view>

namespace svo::pin {

/// The bits of `x`, for pinning a double exactly.
[[nodiscard]] inline std::uint64_t bits(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x);
}

class Fnv1a {
 public:
  static constexpr std::uint64_t kBasis = 14695981039346656037ULL;

  template <std::integral T>
  Fnv1a& add(T word) noexcept {
    const auto w = static_cast<std::uint64_t>(word);
    for (int byte = 0; byte < 8; ++byte) mix((w >> (8 * byte)) & 0xffU);
    return *this;
  }

  template <std::floating_point T>
  Fnv1a& add(T x) noexcept {
    return add(bits(static_cast<double>(x)));
  }

  Fnv1a& add(std::string_view s) noexcept {
    add(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(std::uint64_t byte) noexcept {
    h_ ^= byte;
    h_ *= 1099511628211ULL;
  }

  std::uint64_t h_ = kBasis;
};

/// FNV-1a over every element of `values`, in order.
template <typename Range>
[[nodiscard]] std::uint64_t fnv1a(const Range& values) {
  Fnv1a h;
  for (const auto& v : values) h.add(v);
  return h.value();
}

}  // namespace svo::pin
