// Content hashing of hypervectors.
//
// The serving layer's ResultCache keys requests by the *content* of the
// target HV (two requests carrying equal vectors must collide), so the hash
// must be a pure function of (dim, components) — independent of storage
// alphabet, platform, or process. hash_hypervector provides that: the
// dimension and seed are absorbed first (so prefixes and zero-padded
// variants of a vector hash differently), then four independent lanes each
// absorb one 64-bit word of two components per round (xxHash64's
// accumulator round, bijective in the word), and the lanes are folded with
// the splitmix64 avalanche hash_mix. The lanes run in parallel: a D=2048
// target costs about 1 µs.
//
// 64 bits is a fingerprint, not a proof of equality: consumers that need
// bit-identical semantics (the ResultCache does) verify candidate hits with
// a full component comparison and treat a mismatch as a miss.
#pragma once

#include <cstdint>

#include "hdc/hypervector.hpp"

namespace factorhd::hdc {

/// Seed/state mixer behind hash_hypervector — one splitmix64 avalanche
/// round. Exposed for composing hashes of aggregate keys (the service layer
/// mixes an options fingerprint into the target hash with it).
/// \param x Input state.
/// \return Avalanched state (bijective on u64).
[[nodiscard]] std::uint64_t hash_mix(std::uint64_t x) noexcept;

/// Order-dependent 64-bit content hash of `v` over (dim, components).
/// Deterministic across processes and platforms; equal vectors always hash
/// equal, distinct vectors collide with ~2^-64 probability per pair.
///
/// A word carries each component as its 32-bit two's-complement pattern,
/// and a last odd component is sign-extended to 64 bits; both encodings are
/// injective, so -1 and 0xffffffff stay distinct inputs however the value
/// is cast. Every step after a word is absorbed is a bijection of the
/// state, so two vectors of the same dim that differ in exactly one
/// component never hash equal.
///
/// \par Contract (fingerprint, not identity)
/// The return value is a *fingerprint*: equality of hashes is necessary
/// but never sufficient for equality of vectors. Consumers that must not
/// act on a false positive are required to verify candidate matches with
/// a full `(dim, components)` comparison and treat any mismatch as
/// "different" — i.e. collision ⇒ miss, never a wrong answer. The serving
/// layer's `service::ResultCache` is the canonical consumer and implements
/// exactly this discipline (`service/result_cache.hpp`); the stability
/// guarantee (no dependence on process, platform, or storage alphabet) is
/// what makes the fingerprint usable as a cross-restart cache key.
///
/// \param v Hypervector to fingerprint (the empty HV has a defined hash).
/// \param seed Optional domain-separation seed.
/// \return The 64-bit fingerprint.
[[nodiscard]] std::uint64_t hash_hypervector(const Hypervector& v,
                                             std::uint64_t seed = 0) noexcept;

}  // namespace factorhd::hdc
