#pragma once

#include <cstddef>
#include <memory>
#include <string>
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

/// Allocation-light container snapshot: one contiguous vector of entries
/// sorted by (row, column) string order — the same order `scan_container`
/// visits — replacing the `std::map<std::string, double>` keyed by
/// "row\x1f column" that monitoring used to rebuild every wave. Taking one
/// costs a single vector fill under the table's shared locks; no per-cell
/// string concatenation or tree insertion.
///
/// Element identity across snapshots: a key is interned once per table
/// shard and never moved or freed while the table lives, so two live
/// snapshots whose entries hold pointer-equal `row` and `col` hold the same
/// key, at any shard count. Unequal pointers say nothing (another table or
/// store); compare the strings. `core::compute_change` uses the pointer
/// test as its fast path.
class FlatSnapshot {
 public:
  FlatSnapshot() = default;
  FlatSnapshot(std::shared_ptr<const void> keepalive, std::vector<FlatEntry> entries)
      : keepalive_(std::move(keepalive)), entries_(std::move(entries)) {}

  const std::vector<FlatEntry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  auto begin() const noexcept { return entries_.begin(); }
  auto end() const noexcept { return entries_.end(); }

 private:
  /// Keeps the source table (and with it the interned key strings the
  /// entries point into) alive even if the store drops the table.
  std::shared_ptr<const void> keepalive_;
  std::vector<FlatEntry> entries_;
};

}  // namespace smartflux::ds
