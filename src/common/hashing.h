#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace smartflux {

/// splitmix64 finalizer — a strong 64-bit bit mixer.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless hash of up to four coordinates — the basis of the pure
/// (call-order-independent) synthetic data generators: the same
/// (seed, a, b, c, d) always yields the same value, so the adaptive run and
/// its synchronous shadow see identical streams.
constexpr std::uint64_t hash64(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                               std::uint64_t c = 0, std::uint64_t d = 0) noexcept {
  std::uint64_t h = mix64(seed ^ 0x2545f4914f6cdd1dULL);
  h = mix64(h ^ a);
  h = mix64(h ^ b);
  h = mix64(h ^ c);
  h = mix64(h ^ d);
  return h;
}

/// Uniform double in [0, 1) from a stateless hash.
constexpr double hash_unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                           std::uint64_t c = 0, std::uint64_t d = 0) noexcept {
  return static_cast<double>(hash64(seed, a, b, c, d) >> 11) * 0x1.0p-53;
}

/// Stateless byte-string hash (FNV-1a accumulation, splitmix64 finalizer):
/// the row-key hash the datastore's consistent-hashing shard ring is built
/// on. Seedable so distinct rings draw independent placements; the same
/// (seed, key) always lands on the same point, which is what makes shard
/// routing stable across processes and restarts.
constexpr std::uint64_t hash64_bytes(std::string_view s, std::uint64_t seed = 0) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ mix64(seed);
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

namespace detail {
/// Slice-by-1 CRC32C (Castagnoli) lookup table, built at compile time.
struct Crc32cTable {
  std::uint32_t entry[256] = {};
  constexpr Crc32cTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
      }
      entry[i] = c;
    }
  }
};
inline constexpr Crc32cTable kCrc32cTable{};

/// The portable table-driven CRC32C (usable in constant evaluation).
constexpr std::uint32_t crc32c_table(const char* data, std::size_t n,
                                     std::uint32_t seed) noexcept {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c = kCrc32cTable.entry[(c ^ static_cast<unsigned char>(data[i])) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

/// Run-time CRC32C: the CPU's crc32 instruction (x86-64 SSE4.2) when there
/// is one, crc32c_table otherwise. Same inputs, same result.
std::uint32_t crc32c_runtime(const char* data, std::size_t n, std::uint32_t seed) noexcept;
}  // namespace detail

/// CRC32C (Castagnoli polynomial, the checksum HBase/LevelDB/etc. frame WAL
/// records with). At run time it uses the CPU's crc32 instruction when there
/// is one — an order of magnitude faster than the table, which matters
/// because every WAL byte is checksummed on the write path; the portable
/// table otherwise. Chainable: pass a previous result as `seed` to checksum
/// data split across buffers.
constexpr std::uint32_t crc32c(const char* data, std::size_t n,
                               std::uint32_t seed = 0) noexcept {
  if (std::is_constant_evaluated()) return detail::crc32c_table(data, n, seed);
  return detail::crc32c_runtime(data, n, seed);
}

inline std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed = 0) noexcept {
  return crc32c(static_cast<const char*>(data), n, seed);
}

/// Piecewise-linear "smooth noise" in [-1, 1]: interpolates hash values at
/// knots every `knot_period` waves, so consecutive waves vary gently (used to
/// emulate the paper's smoothly varying sensor fields, §5.1).
constexpr double smooth_noise(std::uint64_t seed, std::uint64_t stream, std::uint64_t wave,
                              std::uint64_t knot_period) noexcept {
  const std::uint64_t k = wave / knot_period;
  const double frac =
      static_cast<double>(wave % knot_period) / static_cast<double>(knot_period);
  const double a = 2.0 * hash_unit(seed, stream, k) - 1.0;
  const double b = 2.0 * hash_unit(seed, stream, k + 1) - 1.0;
  return a * (1.0 - frac) + b * frac;
}

}  // namespace smartflux
