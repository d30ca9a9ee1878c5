#include "hdc/hash.hpp"

#include <bit>
#include <cstddef>

namespace factorhd::hdc {

namespace {

constexpr std::size_t kLanes = 4;

// xxHash64's accumulator round (Collet, BSD-2). For a fixed lane state it
// is a bijection of the word (odd multiply, add, rotate, odd multiply), so
// changing any word always changes its lane.
inline std::uint64_t lane_round(std::uint64_t lane, std::uint64_t word) noexcept {
  lane += word * 0xC2B2AE3D27D4EB4FULL;
  return std::rotl(lane, 31) * 0x9E3779B185EBCA87ULL;
}

// Components p[0], p[1] as one word of their two 32-bit patterns: built
// arithmetically, so the word is the same on every host byte order.
inline std::uint64_t pair_word(const std::int32_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p[1])) << 32);
}

}  // namespace

std::uint64_t hash_mix(std::uint64_t x) noexcept {
  // splitmix64 finalizer (public domain, Vigna): full avalanche, bijective.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_hypervector(const Hypervector& v,
                               std::uint64_t seed) noexcept {
  // Absorb the dimension first so a vector and its zero-padded extension
  // hash differently, and seed the lanes from it. Lane l absorbs component
  // pairs 4k + l; the sub-block tail goes pair by pair to lanes 0, 1, 2 and
  // a last odd component, sign-extended, to the next lane.
  const std::size_t n = v.dim();
  std::uint64_t h = hash_mix(seed ^ (0x5109bba9bdbb9d5dULL + n));
  std::uint64_t lane[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) lane[l] = hash_mix(h + l);
  const std::int32_t* p = v.data();
  std::size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane[l] = lane_round(lane[l], pair_word(p + i + 2 * l));
    }
  }
  std::size_t l = 0;
  for (; i + 2 <= n; i += 2, ++l) lane[l] = lane_round(lane[l], pair_word(p + i));
  if (i < n) {
    lane[l] = lane_round(
        lane[l], static_cast<std::uint64_t>(static_cast<std::int64_t>(p[i])));
  }
  // Each fold step is a bijection of h for a fixed lane value (and of the
  // lane for a fixed h), and the final hash_mix avalanches the low bits
  // the cache shards on.
  for (const std::uint64_t x : lane) h = hash_mix(h ^ x);
  return h;
}

}  // namespace factorhd::hdc
