#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/hashing.h"
#include "datastore/client.h"
#include "datastore/datastore.h"
#include "datastore/shard_ring.h"

namespace smartflux::ds {
namespace {

std::string row_name(std::size_t i) { return "row" + std::to_string(i); }

/// Canonical dump (same shape as the durability tests'): table -> cells in
/// scan order with full version history.
std::string dump_store(const DataStore& store) {
  std::ostringstream os;
  os.precision(17);
  for (const TableName& table : store.table_names()) {
    os << "table " << table << '\n';
    store.scan_container(ContainerRef::whole_table(table),
                         [&](const RowKey& row, const ColumnKey& column, double) {
                           os << "  " << row << '|' << column << " =";
                           for (const CellVersion& v : store.cell_versions(table, row, column)) {
                             os << ' ' << v.timestamp << ':' << v.value;
                           }
                           os << '\n';
                         });
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Ring properties

TEST(ShardRingTest, RoutingIsDeterministicAcrossInstances) {
  ShardOptions so;
  so.shards = 4;
  const ShardRing a(so);
  const ShardRing b(so);
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::string row = row_name(i);
    EXPECT_EQ(a.shard_of(row), b.shard_of(row)) << row;
  }
}

/// The ring's bucketed lookup against the definition it implements: the
/// owner of the first (hash, owner)-ordered point at or after the row hash,
/// wrapping past the top.
TEST(ShardRingTest, LookupMatchesTheFirstPointClockwise) {
  for (const std::size_t shards : {2u, 4u, 8u, 37u}) {
    const ShardRing ring(ShardOptions{.shards = shards});
    std::vector<std::pair<std::uint64_t, std::size_t>> points;
    for (std::size_t shard = 0; shard < shards; ++shard) {
      for (std::size_t vnode = 0; vnode < kVnodesPerShard; ++vnode) {
        points.emplace_back(hash64(kRingSeed, shard, vnode), shard);
      }
    }
    std::sort(points.begin(), points.end());
    for (std::size_t i = 0; i < 20000; ++i) {
      const std::string row = row_name(i);
      const std::uint64_t h = hash64_bytes(row, kRingSeed);
      auto it = std::lower_bound(points.begin(), points.end(), std::make_pair(h, std::size_t{0}));
      if (it == points.end()) it = points.begin();
      ASSERT_EQ(ring.shard_of(row), it->second) << shards << " shards, " << row;
    }
  }
}

TEST(ShardRingTest, SingleShardShortCircuitsToZero) {
  const ShardRing ring{ShardOptions{}};
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(ring.shard_of(row_name(i)), 0u);
}

TEST(ShardRingTest, KeysSpreadAcrossAllShards) {
  ShardOptions so;
  so.shards = 8;
  const ShardRing ring(so);
  std::vector<std::size_t> counts(so.shards, 0);
  const std::size_t keys = 20000;
  for (std::size_t i = 0; i < keys; ++i) ++counts[ring.shard_of(row_name(i))];
  const double mean = static_cast<double>(keys) / static_cast<double>(so.shards);
  for (std::size_t s = 0; s < so.shards; ++s) {
    // Consistent hashing with 64 vnodes/shard is not perfectly uniform, but
    // no shard should be starved or grossly overloaded.
    EXPECT_GT(counts[s], static_cast<std::size_t>(mean * 0.5)) << "shard " << s;
    EXPECT_LT(counts[s], static_cast<std::size_t>(mean * 1.7)) << "shard " << s;
  }
}

TEST(ShardRingTest, GrowingTheRingMovesOnlyAMinorityOfKeys) {
  ShardOptions before;
  before.shards = 4;
  ShardOptions after = before;
  after.shards = 5;
  const ShardRing old_ring(before);
  const ShardRing new_ring(after);
  const std::size_t keys = 20000;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys; ++i) {
    const std::string row = row_name(i);
    if (old_ring.shard_of(row) != new_ring.shard_of(row)) ++moved;
  }
  // Consistent hashing moves ~1/5 of keys to the new shard; a modulo split
  // would reshuffle ~4/5. Leave headroom for vnode placement variance.
  EXPECT_LT(moved, keys * 2 / 5) << "moved " << moved << " of " << keys;
  EXPECT_GT(moved, 0u);
}

// ---------------------------------------------------------------------------
// Split-batch equivalence

/// Applies the same op sequence to a sharded store (batches large enough for
/// the parallel split path) and a one-shard one, and compares full state and
/// observer streams — split application must be invisible to every read
/// surface.
TEST(ShardEquivalence, SplitBatchMatchesSerialBatchExactly) {
  ShardOptions so;
  so.shards = 4;
  DataStore sharded(3, so);
  DataStore plain(3);

  using Observed = std::tuple<MutationKind, TableName, RowKey, ColumnKey, Timestamp, double,
                              double, bool>;
  std::vector<Observed> sharded_seen, plain_seen;
  sharded.subscribe([&](const Mutation& m) {
    sharded_seen.emplace_back(m.kind, m.table, m.row, m.column, m.timestamp, m.new_value,
                              m.old_value, m.had_old_value);
  });
  plain.subscribe([&](const Mutation& m) {
    plain_seen.emplace_back(m.kind, m.table, m.row, m.column, m.timestamp, m.new_value,
                            m.old_value, m.had_old_value);
  });

  for (Timestamp wave = 1; wave <= 3; ++wave) {
    std::vector<std::string> rows;
    for (std::size_t i = 0; i < kParallelBatchMinOps / 2; ++i) rows.push_back(row_name(i));
    std::vector<PutOp> ops;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ops.push_back({rows[i], "a", static_cast<double>(wave * 1000 + i)});
      ops.push_back({rows[i], "b", static_cast<double>(i) * 0.5});
    }
    ASSERT_GE(ops.size(), kParallelBatchMinOps);
    sharded.put_batch("t", wave, ops);
    plain.put_batch("t", wave, ops);
  }

  EXPECT_EQ(dump_store(sharded), dump_store(plain));
  // Observer streams match element-for-element: same cells, same order
  // (original op order), same old/new values.
  EXPECT_EQ(sharded_seen, plain_seen);
}

/// The production configuration: default ShardOptions, so a batch above the
/// threshold fans out on the process-wide helper pool. State, observer
/// streams and the replayed WAL must all equal the unsharded store's.
TEST(ShardEquivalence, DefaultHelperPoolFanOutMatchesUnshardedStoreAndItsReplay) {
  ShardOptions so;
  so.shards = 4;
  const std::string sharded_dir = testing::TempDir() + "sf_shard_fanout_sharded";
  const std::string plain_dir = testing::TempDir() + "sf_shard_fanout_plain";
  std::filesystem::remove_all(sharded_dir);
  std::filesystem::remove_all(plain_dir);
  DurabilityOptions durability;
  durability.flush = WalFlushPolicy::kEveryWave;

  std::string live_dump;
  {
    DataStore sharded(3, so);
    DataStore plain(3);
    sharded.enable_durability(sharded_dir, durability);
    plain.enable_durability(plain_dir, durability);

    using Observed = std::tuple<MutationKind, TableName, RowKey, ColumnKey, Timestamp, double,
                                double, bool>;
    std::vector<Observed> sharded_seen, plain_seen;
    sharded.subscribe([&](const Mutation& m) {
      sharded_seen.emplace_back(m.kind, m.table, m.row, m.column, m.timestamp, m.new_value,
                                m.old_value, m.had_old_value);
    });
    plain.subscribe([&](const Mutation& m) {
      plain_seen.emplace_back(m.kind, m.table, m.row, m.column, m.timestamp, m.new_value,
                              m.old_value, m.had_old_value);
    });

    std::vector<std::string> rows;
    for (std::size_t i = 0; i < 200; ++i) rows.push_back(row_name(i));
    for (Timestamp wave = 1; wave <= 3; ++wave) {
      std::vector<PutOp> ops;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ops.push_back({rows[i], "a", static_cast<double>(wave * 1000 + i)});
        ops.push_back({rows[i], "b", static_cast<double>(i) * 0.5});
      }
      // The same cell twice in one batch: the later op must win, as in a
      // put() loop.
      ops.push_back({rows[7], "a", -1.0 * static_cast<double>(wave)});
      ASSERT_GE(ops.size(), kParallelBatchMinOps);
      sharded.put_batch("t", wave, ops);
      plain.put_batch("t", wave, ops);
      sharded.commit_wave(wave);
      plain.commit_wave(wave);
    }
    live_dump = dump_store(plain);
    EXPECT_EQ(dump_store(sharded), live_dump);
    EXPECT_EQ(sharded_seen, plain_seen);
  }

  RecoveryInfo info;
  const auto replayed = DataStore::recover(sharded_dir, {}, 3, &info, so);
  EXPECT_EQ(info.last_durable_wave, std::optional<Timestamp>{3});
  EXPECT_EQ(dump_store(*replayed), live_dump);
  // Routing is recomputed on replay, so the sharded log also reloads into an
  // unsharded store unchanged.
  EXPECT_EQ(dump_store(*DataStore::recover(sharded_dir, {}, 3)), live_dump);
  std::filesystem::remove_all(sharded_dir);
  std::filesystem::remove_all(plain_dir);
}

TEST(ShardEquivalence, ScanOrderAndSnapshotMatchUnshardedStore) {
  ShardOptions so;
  so.shards = 4;
  DataStore sharded(2, so);
  DataStore plain(2);
  for (std::size_t i = 0; i < 200; ++i) {
    sharded.put("t", row_name(i * 7), "c", 1, static_cast<double>(i));
    plain.put("t", row_name(i * 7), "c", 1, static_cast<double>(i));
  }

  std::vector<std::pair<std::string, std::string>> sharded_order, plain_order;
  sharded.scan_container(ContainerRef::whole_table("t"),
                         [&](const RowKey& r, const ColumnKey& c, double) {
                           sharded_order.emplace_back(r, c);
                         });
  plain.scan_container(ContainerRef::whole_table("t"),
                       [&](const RowKey& r, const ColumnKey& c, double) {
                         plain_order.emplace_back(r, c);
                       });
  EXPECT_EQ(sharded_order, plain_order);  // merged scan keeps (row, col) order

  const FlatSnapshot ss = sharded.snapshot_flat(ContainerRef::whole_table("t"));
  const FlatSnapshot ps = plain.snapshot_flat(ContainerRef::whole_table("t"));
  ASSERT_EQ(ss.size(), ps.size());
  for (auto s_it = ss.begin(), p_it = ps.begin(); s_it != ss.end(); ++s_it, ++p_it) {
    EXPECT_EQ(*s_it->row, *p_it->row);
    EXPECT_EQ(*s_it->col, *p_it->col);
    EXPECT_EQ(s_it->value, p_it->value);
  }
  // Interned keys are stable per shard: a later snapshot of either store
  // holds the very same key pointers, so compute_change's pointer fast path
  // holds at any shard count.
  const FlatSnapshot ss2 = sharded.snapshot_flat(ContainerRef::whole_table("t"));
  const FlatSnapshot ps2 = plain.snapshot_flat(ContainerRef::whole_table("t"));
  ASSERT_EQ(ss2.size(), ss.size());
  ASSERT_EQ(ps2.size(), ps.size());
  for (auto s2 = ss2.begin(), s1 = ss.begin(), p2 = ps2.begin(), p1 = ps.begin();
       s1 != ss.end(); ++s2, ++s1, ++p2, ++p1) {
    EXPECT_EQ(s2->row, s1->row);
    EXPECT_EQ(s2->col, s1->col);
    EXPECT_EQ(p2->row, p1->row);
    EXPECT_EQ(p2->col, p1->col);
  }
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan target: cross-shard writers, readers, scanners)

TEST(ShardConcurrency, ConcurrentCrossShardWritersReadersAndScanners) {
  ShardOptions so;
  so.shards = 4;
  DataStore store(2, so);

  constexpr std::size_t kWriters = 4;
  // Batches of one op per row: at the fan-out threshold, so the parallel
  // split path runs under TSan.
  constexpr std::size_t kRowsPerWriter = kParallelBatchMinOps;
  constexpr std::size_t kWaves = 12;
  std::atomic<bool> stop{false};

  std::vector<std::jthread> threads;
  // Writers: disjoint row ranges (cells are single-writer; the shards they
  // land in interleave freely).
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      for (Timestamp wave = 1; wave <= kWaves; ++wave) {
        std::vector<std::string> rows;
        std::vector<PutOp> ops;
        for (std::size_t i = 0; i < kRowsPerWriter; ++i) {
          rows.push_back(row_name(w * kRowsPerWriter + i));
        }
        for (std::size_t i = 0; i < kRowsPerWriter; ++i) {
          ops.push_back({rows[i], "v", static_cast<double>(wave)});
        }
        store.put_batch("grid", wave, ops);
        store.put("solo", row_name(w), "v", wave, static_cast<double>(wave * 10 + w));
      }
    });
  }
  // Readers/scanners race the writers across every shard.
  std::vector<std::jthread> readers;
  for (std::size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&store, &stop, r] {
      std::size_t laps = 0;
      while (!stop.load(std::memory_order_acquire) || laps < 1) {
        ++laps;
        double sink = 0.0;
        store.scan_container(ContainerRef::whole_table("grid"),
                             [&sink](const RowKey&, const ColumnKey&, double v) { sink += v; });
        const auto v = store.get("grid", row_name(r * 17 % (kWriters * kRowsPerWriter)), "v");
        if (v) sink += *v;
        (void)store.cell_count("grid");
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Every cell converged to its final wave.
  for (std::size_t i = 0; i < kWriters * kRowsPerWriter; ++i) {
    EXPECT_EQ(store.get("grid", row_name(i), "v"),
              std::optional<double>{static_cast<double>(kWaves)});
  }
  for (std::size_t w = 0; w < kWriters; ++w) {
    EXPECT_EQ(store.get("solo", row_name(w), "v"),
              std::optional<double>{static_cast<double>(kWaves * 10 + w)});
  }
}

/// Writers whose batches fan out on the helper pool race a wave committer
/// whose fsyncs fan out on the same pool, on a 4-shard durable store. The
/// TSan target for both fan-outs; afterwards the log must replay to exactly
/// the live state.
TEST(ShardConcurrency, FannedOutBatchWritersRaceWaveCommitsOnDurableStore) {
  ShardOptions so;
  so.shards = 4;
  const std::string dir = testing::TempDir() + "sf_shard_fanout_race";
  std::filesystem::remove_all(dir);
  DurabilityOptions durability;
  durability.flush = WalFlushPolicy::kEveryWave;

  constexpr std::size_t kWriters = 3;
  constexpr std::size_t kRowsPerWriter = 300;  // above kParallelBatchMinOps
  constexpr Timestamp kWaves = 8;
  std::string live_dump;
  {
    DataStore store(2, so);
    store.enable_durability(dir, durability);
    // The table exists before the threads start: the race under test is
    // the write path against the commit barrier, not table creation.
    store.put("grid", "origin", "v", 1, 0.0);
    std::atomic<bool> writing{true};
    {
      std::jthread committer([&store, &writing] {
        Timestamp wave = 1;
        while (writing.load(std::memory_order_acquire)) store.commit_wave(wave++);
      });
      std::vector<std::jthread> writers;
      for (std::size_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([&store, w] {
          std::vector<std::string> rows;
          for (std::size_t i = 0; i < kRowsPerWriter; ++i) {
            rows.push_back(row_name(w * kRowsPerWriter + i));
          }
          for (Timestamp wave = 1; wave <= kWaves; ++wave) {
            std::vector<PutOp> ops;
            for (const std::string& row : rows) {
              ops.push_back({row, "v", static_cast<double>(wave)});
            }
            store.put_batch("grid", wave, ops);
          }
        });
      }
      writers.clear();  // joins
      writing.store(false, std::memory_order_release);
    }
    const Timestamp last = store.last_committed_wave().value_or(0) + 1;
    store.commit_wave(last);
    for (std::size_t i = 0; i < kWriters * kRowsPerWriter; ++i) {
      EXPECT_EQ(store.get("grid", row_name(i), "v"),
                std::optional<double>{static_cast<double>(kWaves)});
    }
    live_dump = dump_store(store);
  }
  RecoveryInfo info;
  const auto replayed = DataStore::recover(dir, {}, 2, &info, so);
  EXPECT_TRUE(info.last_durable_wave.has_value());
  EXPECT_EQ(dump_store(*replayed), live_dump);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// As-of-wave reads (what makes pipelined ingest invisible to older waves)

TEST(AsOfReads, ClientBoundToAWaveIsBlindToNewerIngest) {
  ShardOptions so;
  so.shards = 4;
  DataStore store(/*max_versions=*/3, so);
  store.put("t", "r", "c", 1, 10.0);
  store.put("t", "r", "c", 2, 20.0);

  Client old_wave(store, 2);
  Client new_wave(store, 3);
  // Wave 3's feed lands while wave 2 is (conceptually) still computing.
  new_wave.put("t", "r", "c", 30.0);

  EXPECT_EQ(old_wave.get("t", "r", "c"), std::optional<double>{20.0});
  EXPECT_EQ(old_wave.get_previous("t", "r", "c"), std::optional<double>{10.0});
  EXPECT_EQ(new_wave.get("t", "r", "c"), std::optional<double>{30.0});
  EXPECT_EQ(new_wave.get_previous("t", "r", "c"), std::optional<double>{20.0});

  double old_sum = 0.0, new_sum = 0.0;
  old_wave.scan(ContainerRef::whole_table("t"),
                [&](const RowKey&, const ColumnKey&, double v) { old_sum += v; });
  new_wave.scan(ContainerRef::whole_table("t"),
                [&](const RowKey&, const ColumnKey&, double v) { new_sum += v; });
  EXPECT_EQ(old_sum, 20.0);
  EXPECT_EQ(new_sum, 30.0);

  // A cell first written after the bound wave does not exist for it yet.
  new_wave.put("t", "fresh", "c", 1.0);
  EXPECT_EQ(old_wave.get("t", "fresh", "c"), std::nullopt);
  EXPECT_EQ(new_wave.get("t", "fresh", "c"), std::optional<double>{1.0});
}

TEST(AsOfReads, HistoryDeeperThanRetentionIsGone) {
  DataStore store(/*max_versions=*/2);
  store.put("t", "r", "c", 1, 1.0);
  store.put("t", "r", "c", 2, 2.0);
  store.put("t", "r", "c", 3, 3.0);  // evicts version 1
  EXPECT_EQ(store.get_at("t", "r", "c", 3), std::optional<double>{3.0});
  EXPECT_EQ(store.get_at("t", "r", "c", 2), std::optional<double>{2.0});
  // Version 1 fell out of the retained window: reads as-of wave 1 see nothing
  // (this is why pipeline depth d needs max_versions >= d + 1).
  EXPECT_EQ(store.get_at("t", "r", "c", 1), std::nullopt);
}

}  // namespace
}  // namespace smartflux::ds
