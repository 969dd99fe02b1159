#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace smartflux::ds {

/// One element of a FlatSnapshot. `row`/`col` point into the source
/// table's interner storage and stay valid for as long as the owning
/// snapshot (its keepalive handle) lives.
struct FlatEntry {
  const std::string* row = nullptr;
  const std::string* col = nullptr;
  double value = 0.0;
};

/// Three-way (row, column) string order of two entries. Pointer-equal keys
/// are the same element (see FlatSnapshot), so that case touches no string.
inline int compare_entries(const FlatEntry& a, const FlatEntry& b) noexcept {
  if (a.row == b.row && a.col == b.col) return 0;
  if (const int r = a.row->compare(*b.row); r != 0) return r;
  return a.col->compare(*b.col);
}

/// Allocation-light container snapshot, stored as one sorted run per table
/// slot: the entries of slot r, in (row, column) string order, are
/// `runs()[r]`. Empty runs are kept, so two snapshots of the same table
/// line up slot by slot. Taking one costs a single vector fill under the
/// table's shared locks: no per-cell string concatenation, no tree
/// insertion and no cross-slot sort.
///
/// Iteration (`begin()`/`end()`) walks global (row, column) order — the
/// order `scan_container` visits and `/scan` prints — through a k-way merge
/// cursor over the run heads (k = shards, O(log k) compares per step).
/// Nothing ordered is materialized. A row lives in exactly one slot, so with one
/// shard the single run *is* the global order.
///
/// Element identity across snapshots: a key is interned once per table
/// shard and never moved or freed while the table lives, so two live
/// snapshots whose entries hold pointer-equal `row` and `col` hold the same
/// key. Unequal pointers say nothing (another table or store); compare the
/// strings. Two snapshots with the same `source()` come from one table
/// entry, so run r of each holds the rows of the same slot;
/// `core::compute_change` merge-joins such pairs run by run.
class FlatSnapshot {
 public:
  /// Forward iterator over the entries in global (row, column) order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = const FlatEntry*;
    using reference = const FlatEntry&;

    const_iterator() = default;  ///< the end position

    reference operator*() const noexcept { return *cur_; }
    pointer operator->() const noexcept { return cur_; }
    const_iterator& operator++() {
      Head head = heads_.front();
      if (++head.next == head.end) {
        heads_.erase(heads_.begin());
      } else {
        // Re-place the advanced head among the others (kept in head order):
        // a binary search, so log2(k) compares per element.
        const auto pos = std::upper_bound(heads_.begin() + 1, heads_.end(), head, before);
        std::move(heads_.begin() + 1, pos, heads_.begin());
        *(pos - 1) = head;
      }
      cur_ = heads_.empty() ? nullptr : heads_.front().next;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator prev = *this;
      ++*this;
      return prev;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) noexcept {
      return a.cur_ == b.cur_;
    }

   private:
    friend class FlatSnapshot;
    /// The unconsumed rest of one non-empty run.
    struct Head {
      const FlatEntry* next;
      const FlatEntry* end;
    };

    static bool before(const Head& a, const Head& b) noexcept {
      return compare_entries(*a.next, *b.next) < 0;
    }

    explicit const_iterator(const FlatSnapshot& snapshot) {
      heads_.reserve(snapshot.run_ends_.size());
      std::size_t begin = 0;
      for (const std::size_t end : snapshot.run_ends_) {
        if (end > begin) {
          const Head head{snapshot.entries_.data() + begin, snapshot.entries_.data() + end};
          heads_.insert(std::upper_bound(heads_.begin(), heads_.end(), head, before), head);
        }
        begin = end;
      }
      if (!heads_.empty()) cur_ = heads_.front().next;
    }

    /// The non-empty runs' unconsumed rests, ordered by their first entry;
    /// the front one holds the current element.
    std::vector<Head> heads_;
    const FlatEntry* cur_ = nullptr;  ///< nullptr at the end
  };

  /// Slot-ordered view of the runs: `size()` runs, `operator[]` is a span.
  class Runs {
   public:
    explicit Runs(const FlatSnapshot& snapshot) noexcept : snapshot_(&snapshot) {}
    std::size_t size() const noexcept { return snapshot_->run_ends_.size(); }
    std::span<const FlatEntry> operator[](std::size_t r) const noexcept {
      const std::size_t begin = r == 0 ? 0 : snapshot_->run_ends_[r - 1];
      return {snapshot_->entries_.data() + begin, snapshot_->run_ends_[r] - begin};
    }

   private:
    const FlatSnapshot* snapshot_;
  };

  FlatSnapshot() = default;
  /// `entries` is the concatenation of the runs, each sorted by (row,
  /// column); run r ends at `run_ends[r]` (non-decreasing, the last equal
  /// to `entries.size()`).
  FlatSnapshot(std::shared_ptr<const void> keepalive, std::vector<FlatEntry> entries,
               std::vector<std::size_t> run_ends)
      : keepalive_(std::move(keepalive)),
        entries_(std::move(entries)),
        run_ends_(std::move(run_ends)) {}

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  Runs runs() const noexcept { return Runs(*this); }
  /// Identity of the table entry the snapshot was taken from (nullptr for a
  /// default-constructed snapshot).
  const void* source() const noexcept { return keepalive_.get(); }

  const_iterator begin() const { return const_iterator(*this); }
  const_iterator end() const noexcept { return {}; }

 private:
  /// Keeps the source table (and with it the interned key strings the
  /// entries point into) alive even if the store drops the table.
  std::shared_ptr<const void> keepalive_;
  std::vector<FlatEntry> entries_;
  std::vector<std::size_t> run_ends_;
};

}  // namespace smartflux::ds
