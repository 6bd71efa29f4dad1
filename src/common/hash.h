#pragma once
// Small deterministic hashing utilities. Everything here is a pure
// function of its inputs — no platform, thread-count or iteration-order
// dependence — so hashes are stable across runs.
//
// Two hashes, split by purpose:
//   - xxh64 is the bulk integrity check: the wire payload checksum
//     (comm::wire_checksum) and the checkpoint file checksum. It reads
//     eight bytes per step over four independent lanes (~8 GB/s on one
//     x86-64 core), where byte-serial FNV-1a runs at ~0.6 GB/s. Its
//     values are never committed: wire buffers live for one round, and
//     checkpoint files carry a format version that names the hash.
//   - fnv1a64 serves keys and every committed value: the sweep trace
//     checksums in the golden files, stream_seed keys (scenario ids,
//     chaos salts), the chaos streams and the checkpoint config hash.
//     Changing it would change those goldens and every seeded stream, so
//     it stays FNV-1a; its inputs are small or are hashed once per round.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace signguard::common {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// FNV-1a over raw bytes, resumable via the `state` parameter so a running
// checksum can fold many buffers (e.g. one per round) into one value.
inline std::uint64_t fnv1a64(const void* data, std::size_t len,
                             std::uint64_t state = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    state ^= p[i];
    state *= kFnvPrime;
  }
  return state;
}

inline std::uint64_t fnv1a64(std::string_view s,
                             std::uint64_t state = kFnvOffsetBasis) {
  return fnv1a64(s.data(), s.size(), state);
}

namespace detail {

inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

// Native-endian loads: the spec reads little-endian words, which every
// supported target is (the wire codecs memcpy float32 payloads likewise).
inline std::uint64_t load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline std::uint32_t load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t lane_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kP2, 31) * kP1;
}

inline std::uint64_t merge_round(std::uint64_t h, std::uint64_t lane) {
  return (h ^ lane_round(0, lane)) * kP1 + kP4;
}

}  // namespace detail

// XXH64 with seed 0, per the published xxHash specification: four lanes
// over 32-byte stripes, then 8-, 4- and 1-byte tails and the final
// avalanche. Any alignment of `data` is fine.
inline std::uint64_t xxh64(const void* data, std::size_t len) {
  using namespace detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  std::uint64_t h = kP5;
  if (len >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = lane_round(v1, load64(p));
      v2 = lane_round(v2, load64(p + 8));
      v3 = lane_round(v3, load64(p + 16));
      v4 = lane_round(v4, load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  }
  h += len;
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ lane_round(0, load64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = std::rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

// Finalizing mix from the splitmix64 generator: a cheap bijective
// scrambler used to turn structured keys (hashes, indices) into
// well-distributed seeds for independent RNG streams.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The seed of stream `key` under root seed `root` — the single stream
// derivation shared by Rng::stream and the sweep engine's per-scenario
// seeds. Two splitmix64 rounds keep adjacent (root, key) pairs (the
// common case: scenario grids) decorrelated.
inline std::uint64_t stream_seed(std::uint64_t root, std::uint64_t key) {
  return splitmix64(splitmix64(root) ^ key);
}

}  // namespace signguard::common
