#ifndef COANE_COMMON_FNV_H_
#define COANE_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>

namespace coane {

/// 64-bit FNV-1a, the one hash behind every fingerprint on disk: config,
/// plan, attribute mask, graph, mutation chain and stream fingerprints.
/// Start from kFnvBasis (or an existing fingerprint to extend it) and
/// mix values in order; the known-answer tests pin the results.
inline constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001B3ull;

/// Mixes `size` bytes at `data`, in memory order.
inline uint64_t FnvMixBytes(uint64_t h, const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Mixes the 8 bytes of `value`, least significant first, on any host.
inline uint64_t FnvMixU64(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace coane

#endif  // COANE_COMMON_FNV_H_
