#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "common/hashing.h"

namespace smartflux {
namespace {

TEST(Hashing, DeterministicAcrossCalls) {
  EXPECT_EQ(hash64(1, 2, 3, 4, 5), hash64(1, 2, 3, 4, 5));
  EXPECT_EQ(hash_unit(9, 8, 7), hash_unit(9, 8, 7));
}

TEST(Hashing, CoordinatesMatter) {
  EXPECT_NE(hash64(1, 2, 3), hash64(1, 3, 2));
  EXPECT_NE(hash64(1, 2), hash64(2, 2));
  EXPECT_NE(hash64(1, 2, 0, 0, 1), hash64(1, 2, 0, 1, 0));
}

TEST(Hashing, UnitRange) {
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const double u = hash_unit(123, i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Hashing, UnitRoughlyUniform) {
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++buckets[static_cast<int>(hash_unit(7, static_cast<std::uint64_t>(i)) * 10)];
  }
  for (int b : buckets) EXPECT_NEAR(b, n / 10, n / 100);
}

TEST(Hashing, FewCollisionsOverRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 20000; ++i) seen.insert(hash64(5, i));
  EXPECT_EQ(seen.size(), 20000u);
}

TEST(Crc32c, RuntimeMatchesTheTableOnEveryLengthAndAlignment) {
  // The standard check value, folded at compile time through the table.
  static_assert(crc32c("123456789", 9) == 0xe3069283u);
  const char* check = "123456789";
  EXPECT_EQ(crc32c(check, 9), 0xe3069283u);
  std::string bytes(300, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(hash64(5, i) & 0xffu);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; offset + n <= bytes.size(); n += 7) {
      const char* data = bytes.data() + offset;
      EXPECT_EQ(crc32c(data, n), detail::crc32c_table(data, n, 0)) << offset << "+" << n;
      EXPECT_EQ(crc32c(data, n, 0x1234u), detail::crc32c_table(data, n, 0x1234u));
    }
  }
  // Chaining over a split buffer equals one pass.
  EXPECT_EQ(crc32c(bytes.data() + 100, 200, crc32c(bytes.data(), 100)),
            crc32c(bytes.data(), 300));
}

TEST(SmoothNoise, BoundedByOne) {
  for (std::uint64_t w = 0; w < 5000; ++w) {
    const double v = smooth_noise(11, 3, w, 6);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(SmoothNoise, ContinuousBetweenKnots) {
  // Within one knot period the function is linear: consecutive-wave
  // differences are small and constant.
  const std::uint64_t period = 10;
  for (std::uint64_t w = 0; w + 2 < 50; ++w) {
    const double d1 = smooth_noise(13, 1, w + 1, period) - smooth_noise(13, 1, w, period);
    EXPECT_LE(std::abs(d1), 2.0 / static_cast<double>(period) + 1e-12);
  }
}

TEST(SmoothNoise, HitsKnotValuesExactly) {
  // At wave = k * period the value equals the knot's hash value.
  const std::uint64_t period = 8;
  for (std::uint64_t k = 0; k < 20; ++k) {
    const double expected = 2.0 * hash_unit(17, 4, k) - 1.0;
    EXPECT_NEAR(smooth_noise(17, 4, k * period, period), expected, 1e-12);
  }
}

TEST(SmoothNoise, StreamsIndependent) {
  double same = 0.0;
  for (std::uint64_t w = 0; w < 100; ++w) {
    if (smooth_noise(19, 1, w, 6) == smooth_noise(19, 2, w, 6)) same += 1.0;
  }
  EXPECT_LT(same, 3.0);
}

TEST(Mix64, AvalanchesSingleBitFlips) {
  // Flipping one input bit should flip roughly half the output bits.
  const std::uint64_t base = mix64(0x123456789abcdefULL);
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t other = mix64(0x123456789abcdefULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(base ^ other);
  }
  EXPECT_NEAR(total_flips / 64.0, 32.0, 6.0);
}

}  // namespace
}  // namespace smartflux
