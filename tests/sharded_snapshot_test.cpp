// Partitioned flat snapshots: a FlatSnapshot holds one sorted run per table
// slot, iterates them merged into global (row, column) order, and
// compute_change joins two snapshots of one table run by run. These tests
// pin the merged order and the run-by-run change metric against the
// map-based reference (DataStore::snapshot + compute_change(map)) at 1, 3
// and 8 shards.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hashing.h"
#include "core/change_metric.h"
#include "datastore/datastore.h"
#include "datastore/shard_ring.h"

namespace smartflux::core {
namespace {

using ds::ContainerRef;
using ds::DataStore;
using ds::FlatEntry;
using ds::FlatSnapshot;

/// Records every update in call order; `compute` returns n + Σx′.
class RecordingMetric final : public ChangeMetric {
 public:
  std::vector<std::pair<double, double>> updates;

  void reset() noexcept override { updates.clear(); }
  void update(double current, double previous) noexcept override {
    updates.emplace_back(current, previous);
  }
  double compute(std::size_t total_elements, double previous_total_sum) const noexcept override {
    return static_cast<double>(total_elements) + previous_total_sum;
  }
  std::unique_ptr<ChangeMetric> clone() const override {
    return std::make_unique<RecordingMetric>();
  }
  std::string name() const override { return "Recording"; }
};

std::vector<std::unique_ptr<ChangeMetric>> builtin_metrics() {
  std::vector<std::unique_ptr<ChangeMetric>> out;
  out.push_back(make_impact_metric(ImpactKind::kMagnitudeCount));
  out.push_back(make_impact_metric(ImpactKind::kRelative));
  out.push_back(make_error_metric(ErrorKind::kRelative));
  out.push_back(make_error_metric(ErrorKind::kRmse, 100.0));
  return out;
}

std::string row_key(std::size_t i) {
  std::string s = std::to_string(i);
  return "r" + std::string(4 - std::min<std::size_t>(4, s.size()), '0') + s;
}

/// Values spread over six decades, so summation order shows in the bits.
double value_at(std::uint64_t wave, std::size_t i) {
  const double u = hash_unit(0x5eed, wave, static_cast<std::uint64_t>(i));
  return std::pow(10.0, 6.0 * u - 3.0);
}

const char* const kColumns[] = {"a", "b", "c"};

/// Wave 1: 300 rows x 3 columns.
void write_wave1(DataStore& store) {
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      store.put("t", row_key(i), kColumns[c], 1, value_at(1, i * 3 + c));
    }
  }
}

/// Wave 2: modifies every third cell, rewrites some unchanged, inserts rows
/// 300..359. No deletes, so an as-of read at wave 1 sees exactly wave 1.
void write_wave2(DataStore& store) {
  for (std::size_t i = 0; i < 300; i += 3) store.put("t", row_key(i), "b", 2, value_at(2, i));
  for (std::size_t i = 1; i < 300; i += 7) {
    store.put("t", row_key(i), "a", 2, value_at(1, i * 3));  // same value: unchanged
  }
  for (std::size_t i = 300; i < 360; ++i) store.put("t", row_key(i), "c", 2, value_at(2, i));
}

/// Wave 3: deletes and fresh modifies.
void write_wave3(DataStore& store) {
  for (std::size_t i = 0; i < 360; i += 11) store.erase("t", row_key(i), "c", 3);
  for (std::size_t i = 2; i < 300; i += 17) store.erase("t", row_key(i), "b", 3);
  for (std::size_t i = 5; i < 300; i += 13) store.put("t", row_key(i), "a", 3, value_at(3, i));
}

std::vector<ContainerRef> containers() {
  return {ContainerRef::whole_table("t"), ContainerRef::column("t", "b"),
          ContainerRef("t", "", "r01")};
}

std::string container_name(const ContainerRef& c) {
  return "column='" + c.column_key() + "' prefix='" + c.row_prefix() + "'";
}

using Cells = std::vector<std::tuple<std::string, std::string, double>>;

Cells from_map(const std::map<std::string, double>& map) {
  Cells out;
  for (const auto& [key, value] : map) {
    const std::size_t sep = key.find('\x1f');
    out.emplace_back(key.substr(0, sep), key.substr(sep + 1), value);
  }
  return out;
}

Cells from_snapshot(const FlatSnapshot& snap) {
  Cells out;
  for (const FlatEntry& e : snap) out.emplace_back(*e.row, *e.col, e.value);
  return out;
}

Cells from_scan(const DataStore& store, const ContainerRef& c) {
  Cells out;
  store.scan_container(c, [&](const std::string& r, const std::string& col, double v) {
    out.emplace_back(r, col, v);
  });
  return out;
}

Cells from_scan_at(const DataStore& store, const ContainerRef& c, ds::Timestamp ts) {
  Cells out;
  store.scan_container_at(c, ts, [&](const std::string& r, const std::string& col, double v) {
    out.emplace_back(r, col, v);
  });
  return out;
}

class ShardedSnapshot : public ::testing::TestWithParam<std::size_t> {
 protected:
  ShardedSnapshot() : store_(2, ds::ShardOptions{GetParam()}) {}
  std::size_t shards() const { return GetParam(); }

  /// Values agree exactly at one shard and to 1e-12 relative beyond.
  void expect_value(double flat, double map, const std::string& what) const {
    if (shards() == 1) {
      EXPECT_EQ(flat, map) << what;
    } else {
      EXPECT_NEAR(flat, map, 1e-12 * std::max(1.0, std::abs(map))) << what;
    }
  }

  DataStore store_;
};

TEST_P(ShardedSnapshot, RunsAreSortedPerSlotAndEmptyRunsAreKept) {
  write_wave1(store_);
  const ds::ShardRing ring(ds::ShardOptions{shards()});
  for (const auto& c : containers()) {
    const FlatSnapshot snap = store_.snapshot_flat(c);
    ASSERT_EQ(snap.runs().size(), shards()) << container_name(c);
    std::size_t total = 0;
    for (std::size_t r = 0; r < snap.runs().size(); ++r) {
      const auto run = snap.runs()[r];
      total += run.size();
      for (std::size_t i = 0; i < run.size(); ++i) {
        EXPECT_EQ(ring.shard_of(*run[i].row), r) << container_name(c);
        if (i > 0) {
          EXPECT_LT(ds::compare_entries(run[i - 1], run[i]), 0) << container_name(c);
        }
      }
    }
    EXPECT_EQ(total, snap.size()) << container_name(c);
  }
  // A container nothing matches still has one (empty) run per slot.
  const FlatSnapshot none = store_.snapshot_flat(ContainerRef("t", "", "zzz"));
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.runs().size(), shards());
  EXPECT_TRUE(none.begin() == none.end());
}

TEST_P(ShardedSnapshot, IterationOrderEqualsMapOrder) {
  write_wave1(store_);
  std::vector<std::map<std::string, double>> wave1;
  for (const auto& c : containers()) wave1.push_back(store_.snapshot(c));
  write_wave2(store_);
  write_wave3(store_);
  const auto cs = containers();
  for (std::size_t k = 0; k < cs.size(); ++k) {
    const ContainerRef& c = cs[k];
    const Cells expected = from_map(store_.snapshot(c));
    ASSERT_FALSE(expected.empty()) << container_name(c);
    EXPECT_EQ(from_snapshot(store_.snapshot_flat(c)), expected) << container_name(c);
    EXPECT_EQ(from_scan(store_, c), expected) << container_name(c);
    EXPECT_EQ(from_scan_at(store_, c, 3), expected) << container_name(c);
  }
  // As of wave 1 (wave 3 erased some of those cells, so compare a store that
  // only saw waves 1 and 2).
  DataStore two_waves(2, ds::ShardOptions{shards()});
  write_wave1(two_waves);
  write_wave2(two_waves);
  for (std::size_t k = 0; k < cs.size(); ++k) {
    EXPECT_EQ(from_scan_at(two_waves, cs[k], 1), from_map(wave1[k])) << container_name(cs[k]);
  }
}

TEST_P(ShardedSnapshot, RunByRunChangeMatchesMapPath) {
  const auto cs = containers();
  std::vector<FlatSnapshot> prev_flat;
  std::vector<std::map<std::string, double>> prev_map;
  for (const auto& c : cs) {
    // No table yet: a default snapshot, so wave 1 (all inserts) takes the
    // merged walk and waves 2 and 3 the run-by-run join.
    prev_flat.push_back(store_.snapshot_flat(c));
    prev_map.push_back(store_.snapshot(c));
  }
  for (int wave = 1; wave <= 3; ++wave) {
    if (wave == 1) write_wave1(store_);
    if (wave == 2) write_wave2(store_);
    if (wave == 3) write_wave3(store_);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      const std::string what = container_name(cs[k]) + " wave " + std::to_string(wave);
      const FlatSnapshot cur_flat = store_.snapshot_flat(cs[k]);
      const auto cur_map = store_.snapshot(cs[k]);
      if (wave > 1) {
        ASSERT_EQ(cur_flat.source(), prev_flat[k].source()) << what;
      }

      RecordingMetric flat_rec, map_rec;
      expect_value(compute_change(cur_flat, prev_flat[k], flat_rec),
                   compute_change(cur_map, prev_map[k], map_rec), what);
      EXPECT_FALSE(map_rec.updates.empty()) << what;
      auto flat_updates = flat_rec.updates;
      auto map_updates = map_rec.updates;
      if (shards() == 1) {
        EXPECT_EQ(flat_updates, map_updates) << what;  // same order too
      }
      std::sort(flat_updates.begin(), flat_updates.end());
      std::sort(map_updates.begin(), map_updates.end());
      EXPECT_EQ(flat_updates, map_updates) << what;

      for (const auto& metric : builtin_metrics()) {
        expect_value(compute_change(cur_flat, prev_flat[k], *metric),
                     compute_change(cur_map, prev_map[k], *metric), what + " " + metric->name());
      }
      prev_flat[k] = cur_flat;
      prev_map[k] = cur_map;
    }
  }
}

TEST_P(ShardedSnapshot, ConcurrentIteratorsOverOneSnapshotAgree) {
  write_wave1(store_);
  write_wave2(store_);
  const FlatSnapshot snap = store_.snapshot_flat(ContainerRef::whole_table("t"));
  const Cells expected = from_map(store_.snapshot(ContainerRef::whole_table("t")));
  std::vector<Cells> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&snap, &seen, t] {
      for (int pass = 0; pass < 20; ++pass) seen[t] = from_snapshot(snap);
    });
  }
  for (auto& th : threads) th.join();
  for (const Cells& cells : seen) EXPECT_EQ(cells, expected);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedSnapshot, ::testing::Values(1, 3, 8));

TEST(ShardedSnapshotCrossStore, FourShardsAgainstOneShardTakesTheMergedOrder) {
  // Snapshots of two stores with different rings: run r of one holds other
  // rows than run r of the other, so compute_change must join the merged
  // global orders. That walk visits elements in map order, so even the
  // update sequence and the doubles equal the map path's.
  DataStore four(2, ds::ShardOptions{4});
  DataStore one(2);
  write_wave1(four);
  write_wave2(four);
  write_wave1(one);
  write_wave3(one);
  for (const auto& c : containers()) {
    const FlatSnapshot fresh = four.snapshot_flat(c);
    const FlatSnapshot stale = one.snapshot_flat(c);
    ASSERT_NE(fresh.source(), stale.source());
    ASSERT_NE(fresh.runs().size(), stale.runs().size());
    const auto fresh_map = four.snapshot(c);
    const auto stale_map = one.snapshot(c);

    RecordingMetric flat_rec, map_rec;
    EXPECT_EQ(compute_change(fresh, stale, flat_rec),
              compute_change(fresh_map, stale_map, map_rec))
        << container_name(c);
    EXPECT_FALSE(map_rec.updates.empty()) << container_name(c);
    EXPECT_EQ(flat_rec.updates, map_rec.updates) << container_name(c);
    for (const auto& metric : builtin_metrics()) {
      EXPECT_EQ(compute_change(fresh, stale, *metric),
                compute_change(fresh_map, stale_map, *metric))
          << container_name(c) << " " << metric->name();
    }
  }
  // A default (empty) snapshot on either side also takes the merged walk.
  const FlatSnapshot fresh = four.snapshot_flat(ContainerRef::whole_table("t"));
  const auto fresh_map = four.snapshot(ContainerRef::whole_table("t"));
  for (const auto& metric : builtin_metrics()) {
    EXPECT_EQ(compute_change(fresh, FlatSnapshot{}, *metric),
              compute_change(fresh_map, {}, *metric));
    EXPECT_EQ(compute_change(FlatSnapshot{}, fresh, *metric),
              compute_change({}, fresh_map, *metric));
  }
}

}  // namespace
}  // namespace smartflux::core
