#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/hashing.h"

namespace smartflux::ds {

/// Sharding configuration of a DataStore. Every shard count runs the same
/// code: `shards = 1` (the default) is the one-shard case of the sharded
/// store, with one lock domain per table and one WAL family named
/// `wal-s0-%06d.sflog`. Only the per-shard metric series stay off at one
/// shard (they would duplicate the store-wide ones).
struct ShardOptions {
  /// Number of shards each table (and the WAL) is partitioned into. Rows are
  /// routed by consistent hashing of the row key; all writes for one row
  /// always land in the same shard.
  std::size_t shards = 1;
};

/// Virtual nodes per shard on the hash ring. More vnodes smooth the key
/// distribution across shards; 64 is plenty for <= 64 shards.
inline constexpr std::size_t kVnodesPerShard = 64;
/// Seed of the ring's placement hash ("smartfx"). Fixed, so every store
/// routes a row to the same shard for a given shard count — recovery
/// re-routes every replayed row anyway.
inline constexpr std::uint64_t kRingSeed = 0x736d6172746678ULL;
/// Batches of at least this many ops apply their per-shard sub-batches
/// concurrently on the process-wide helper_pool(); smaller ones apply them
/// one after another on the calling thread — the fan-out must be amortized
/// over enough cells to beat waking a helper.
inline constexpr std::size_t kParallelBatchMinOps = 256;

/// Consistent-hashing ring mapping row keys to shard indices: each shard
/// owns `kVnodesPerShard` points placed by a stateless hash; a key belongs
/// to the first point clockwise from its own hash (murmur-style point hash +
/// virtual nodes, the classic memcached/chash layout). Deterministic in the
/// shard count, so the same key routes to the same shard across runs,
/// processes, and recoveries.
///
/// Virtual nodes matter for the *stability* property: when a store is
/// reopened with one more shard, only the keys whose arc the new shard's
/// vnodes claim move — roughly 1/N of them — instead of the (N-1)/N a
/// modulo split would reshuffle.
class ShardRing {
 public:
  ShardRing() : ShardRing(ShardOptions{}) {}

  explicit ShardRing(const ShardOptions& options) : shards_(options.shards) {
    SF_CHECK(options.shards >= 1, "ShardOptions::shards must be >= 1");
    if (shards_ == 1) return;  // every key routes to shard 0; no ring needed
    points_.reserve(shards_ * kVnodesPerShard);
    for (std::size_t shard = 0; shard < shards_; ++shard) {
      for (std::size_t vnode = 0; vnode < kVnodesPerShard; ++vnode) {
        points_.push_back(
            Point{hash64(kRingSeed, shard, vnode), static_cast<std::uint32_t>(shard)});
      }
    }
    std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
      // Owner breaks hash ties so the ring is a deterministic function of the
      // shard count even in the astronomically unlikely collision case.
      return a.hash != b.hash ? a.hash < b.hash : a.owner < b.owner;
    });
    // About four buckets per point, so a bucket rarely holds more than one.
    const int bits = std::min(16, static_cast<int>(std::bit_width(points_.size())) + 2);
    shift_ = 64 - bits;
    first_.resize(std::size_t{1} << bits);
    std::uint32_t p = 0;
    for (std::size_t b = 0; b < first_.size(); ++b) {
      const std::uint64_t start = static_cast<std::uint64_t>(b) << shift_;
      while (p < points_.size() && points_[p].hash < start) ++p;
      first_[b] = p;
    }
  }

  std::size_t shards() const noexcept { return shards_; }

  /// Shard owning `row`: the owner of the first point at or after the
  /// row's hash, wrapping past the top. The bucket of the hash's top bits
  /// gives the first candidate point, so the lookup is O(1) expected and
  /// sits on every write's path (a put_batch routes each of its ops).
  /// shards()==1 short-circuits to 0 without hashing.
  std::size_t shard_of(std::string_view row) const noexcept {
    if (shards_ == 1) return 0;
    const std::uint64_t h = hash64_bytes(row, kRingSeed);
    std::size_t i = first_[h >> shift_];
    while (i < points_.size() && points_[i].hash < h) ++i;
    return points_[i == points_.size() ? 0 : i].owner;
  }

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t owner;
  };

  std::size_t shards_;
  std::vector<Point> points_;  ///< empty when shards_ == 1
  /// first_[b]: index of the first point whose hash is >= b << shift_.
  std::vector<std::uint32_t> first_;
  int shift_ = 64;
};

}  // namespace smartflux::ds
