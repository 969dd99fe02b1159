#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "datastore/container_ref.h"
#include "datastore/durability.h"
#include "datastore/flat_snapshot.h"
#include "datastore/shard_ring.h"
#include "datastore/table.h"
#include "datastore/types.h"

namespace smartflux::obs {
class MetricsRegistry;
class Tracer;
}  // namespace smartflux::obs

namespace smartflux::ds {

/// Observer callback invoked synchronously for every mutation, equivalent to
/// the paper's data-store-level Observer / adapted client-library options for
/// making SmartFlux aware of all updates (§4).
///
/// Reentrancy rule: observers run *outside* every store lock (the mutation is
/// already applied and the table lock released), so an observer may read from
/// the store — including the table that just changed. Observers must not
/// *write* to the store: a write would re-enter notification and can recurse
/// without bound. A slow observer delays only its own writer thread, never
/// concurrent readers or writers to other tables.
using MutationObserver = std::function<void(const Mutation&)>;

/// Soft memory ceiling for the store. Crossing soft_limit_bytes at a wave
/// commit flips the pressure gauge and triggers relief: a checkpoint (on the
/// first pressured wave only — it rotates the WAL and bounds recovery debt)
/// followed by trimming superseded cell versions down to
/// trim_keep_versions. The ceiling is *soft*: the SoA tables keep their
/// version slots inline, so trimming shrinks the logical history (as-of
/// reads, checkpoints) rather than freeing bytes — the hard bound on
/// footprint is the caller's admission control (bounded key universe +
/// backpressured ingest), which the pressure gauge exists to drive.
struct MemoryOptions {
  /// Tracked-bytes ceiling; 0 disables the whole mechanism.
  std::size_t soft_limit_bytes = 0;
  /// Versions each cell keeps after a pressure trim. Must cover the deepest
  /// in-flight as-of read window (pipelined waves!).
  std::size_t trim_keep_versions = 1;
  /// Checkpoint when pressure is first entered (durable stores only).
  bool checkpoint_on_pressure = true;

  bool enabled() const noexcept { return soft_limit_bytes > 0; }
};

/// Ceiling bookkeeping, readable without a metrics registry.
struct MemoryStats {
  std::size_t tracked_bytes = 0;       ///< last sample (wave-commit cadence)
  std::size_t peak_tracked_bytes = 0;
  std::size_t pressure_events = 0;     ///< transitions into pressure
  std::size_t versions_trimmed = 0;
};

/// In-process, versioned, column-oriented key-value store standing in for
/// HBase. Tables are created lazily on first write. All public operations
/// are thread-safe. Concurrency model:
///
///  - Each table is partitioned into ShardOptions::shards lock domains by
///    consistent hashing of the row key (one domain total with the default
///    shards = 1): readers of a shard run concurrently with each other and
///    with writers to *other* shards; only a write to the same shard
///    excludes. With durability on, each shard also owns its own WAL segment
///    family, so concurrent writers to different shards never contend on one
///    log mutex and fsyncs amortize per shard.
///  - The table registry is RCU-style (an immutable map snapshot, swapped
///    under a leaf mutex), and point ops read it through a per-thread cache
///    validated by one atomic load, so they never touch a registry mutex
///    while the registry is unchanged; only table creation/drop serializes
///    on one.
///  - The observer list is copy-on-write: writers grab an immutable
///    snapshot of it per op (or once per batch) with a single atomic load.
///  - Lock order (asserted in debug builds, see common/lock_rank.h):
///    registry -> table shard slot -> WAL shard family -> durability meta;
///    same-rank locks in shard-index order.
class DataStore {
 public:
  explicit DataStore(std::size_t max_versions = 2, ShardOptions shard_options = {});
  ~DataStore();

  DataStore(const DataStore&) = delete;
  DataStore& operator=(const DataStore&) = delete;

  /// Attaches observability sinks (neither owned; pass nullptr to detach).
  /// Counts every get/put/erase/scan under sf_ds_ops_total{op=...}; latencies
  /// go to sf_ds_op_duration_seconds{op=...}, sampled 1-in-2^sample_shift for
  /// point ops (scans, being rare and heavy, are always timed and — when a
  /// tracer is attached — also recorded as "ds_scan:<table>" spans; batches
  /// are always timed whole under op="put_batch"). Not thread-safe against
  /// in-flight operations: attach before use.
  void set_instrumentation(obs::MetricsRegistry* registry, obs::Tracer* tracer = nullptr,
                           unsigned latency_sample_shift = 6);

  /// Writes a cell, notifying observers. Creates the table if needed.
  void put(const TableName& table, const RowKey& row, const ColumnKey& column, Timestamp ts,
           double value);

  /// Writes a batch of cells into one table under a single exclusive lock
  /// acquisition, with the observer list snapshotted once for the whole
  /// batch. Equivalent to a put() loop cell for cell (same versioning, same
  /// per-mutation observer callbacks in batch order), but writers pay the
  /// lock, registry lookup and observer-list load once instead of per cell.
  /// Observers fire after the whole batch has been applied, so an observer
  /// reading the store may already see later cells of the same batch.
  void put_batch(const TableName& table, Timestamp ts, std::span<const PutOp> ops);

  /// Deletes a cell (all versions), notifying observers if it existed.
  void erase(const TableName& table, const RowKey& row, const ColumnKey& column, Timestamp ts);

  std::optional<double> get(const TableName& table, const RowKey& row,
                            const ColumnKey& column) const;
  std::optional<double> get_previous(const TableName& table, const RowKey& row,
                                     const ColumnKey& column) const;

  /// As-of-wave reads: the newest version with timestamp <= ts (and the one
  /// before it). The isolation primitive pipelined wave execution is built
  /// on — a client bound to wave w reads through these, so wave w+1's
  /// concurrently ingested versions are invisible to it. Identical to
  /// get/get_previous when nothing newer than ts has been written.
  std::optional<double> get_at(const TableName& table, const RowKey& row,
                               const ColumnKey& column, Timestamp ts) const;
  std::optional<double> get_previous_at(const TableName& table, const RowKey& row,
                                        const ColumnKey& column, Timestamp ts) const;

  /// Visits the latest value of every cell inside `container`, in
  /// (row, column) order.
  ///
  /// Deadlock contract: the visitor runs under the table's *shared* lock.
  /// It therefore must not write to the store for the same table (the
  /// exclusive lock would wait on the scan) and must not re-enter any
  /// locking read of the same table either (recursively taking a shared
  /// lock is undefined behavior and can deadlock once a writer queues in
  /// between). Reads of *other* tables are safe. When the visitor needs to
  /// touch the store — or just run for a while without blocking writers —
  /// take a `snapshot_flat()` and iterate that instead: it copies the
  /// container out under the lock and releases it before you look at the
  /// data.
  void scan_container(const ContainerRef& container,
                      const std::function<void(const RowKey&, const ColumnKey&, double)>& visit)
      const;

  /// As-of-wave scan_container: visits each cell's value as of `ts`,
  /// skipping cells that only exist after it. Same deadlock contract.
  void scan_container_at(
      const ContainerRef& container, Timestamp ts,
      const std::function<void(const RowKey&, const ColumnKey&, double)>& visit) const;

  /// Flat snapshot of a container: contiguous entries in (row, column)
  /// order with interner-backed zero-copy key views — the cheap path
  /// monitoring harvests through. The snapshot stays valid after
  /// `drop_table`/`clear` (it keeps the source table alive).
  FlatSnapshot snapshot_flat(const ContainerRef& container) const;

  /// Dense snapshot of a container keyed by "row\x1f column". Kept for
  /// compatibility; new code should prefer `snapshot_flat` (no per-cell
  /// string concatenation or tree insertion).
  std::map<std::string, double> snapshot(const ContainerRef& container) const;

  /// Full retained version history of one cell, newest first (empty if the
  /// cell does not exist). The exact-state primitive the crash-matrix tests
  /// and checkpoints compare/serialize with.
  std::vector<CellVersion> cell_versions(const TableName& table, const RowKey& row,
                                         const ColumnKey& column) const;

  std::size_t cell_count(const TableName& table) const;
  std::size_t container_cell_count(const ContainerRef& container) const;
  bool has_table(const TableName& table) const;
  std::vector<TableName> table_names() const;
  void drop_table(const TableName& table);
  void clear();

  // --- Durability (WAL + checkpoints + crash-consistent recovery) ----------

  /// Turns on write-ahead logging into `dir` (created if missing). Every
  /// mutation from here on is appended as a checksummed record; the
  /// DurabilityOptions flush policy decides the fsync cadence. The store
  /// must still be empty and `dir` must not already hold WAL/checkpoint
  /// files — attach to an existing data dir with recover() instead.
  void enable_durability(const std::string& dir, DurabilityOptions options = {});

  /// Crash-consistent recovery: loads the newest checkpoint in `dir` (if
  /// any), replays the WAL suffix — truncating a torn trailing record, a
  /// mid-log checksum error is a hard Error — and returns a store that
  /// continues durable logging into the same dir (a fresh segment). An
  /// empty/missing dir yields a fresh durable store. `info`, when non-null,
  /// receives what was found (incl. the last durable wave for the
  /// wave-boundary consistency rule).
  /// `shard_options` shapes the *recovered* store; the dir may have been
  /// written with any shard count (legacy and sharded segment names both
  /// replay, with every row re-routed through the new ring).
  static std::unique_ptr<DataStore> recover(const std::string& dir,
                                            DurabilityOptions options = {},
                                            std::size_t max_versions = 2,
                                            RecoveryInfo* info = nullptr,
                                            ShardOptions shard_options = {});

  /// Stamps the wave boundary: appends a wave-commit record and fsyncs (the
  /// durability point of the kEveryWave policy, and the data half of the
  /// "wave recovered iff data + journal record on disk" rule). Triggers an
  /// automatic checkpoint every checkpoint_every_waves commits. No-op when
  /// durability is disabled. The workflow engine calls this after each
  /// completed wave, before appending the wave's journal record.
  void commit_wave(Timestamp wave);

  /// On-demand checkpoint: serializes every table (full version history) to
  /// a new checkpoint file, rotates the WAL to a fresh segment, and deletes
  /// the segments + older checkpoints the new one replaces, bounding
  /// recovery cost. Writers are blocked for the in-memory capture only (the
  /// file write happens outside all locks). Throws StateError when
  /// durability is disabled.
  void checkpoint();

  /// Flushes and fsyncs the WAL regardless of policy. No-op when disabled.
  void sync_wal();

  bool durable() const noexcept { return durability_ != nullptr; }
  /// Newest wave stamped via commit_wave (or found durable by recover()).
  std::optional<Timestamp> last_committed_wave() const;
  /// Data directory, empty when durability is disabled.
  std::string data_dir() const;

  // --- Soft memory ceiling --------------------------------------------------

  /// Installs (or disables, with a default-constructed value) the soft
  /// memory ceiling. Checked at every commit_wave — including on
  /// non-durable stores, where commit_wave is otherwise a no-op.
  void set_memory_options(MemoryOptions options);
  const MemoryOptions& memory_options() const noexcept { return memory_options_; }

  /// Rough tracked heap footprint across every table and shard (capacities
  /// of the SoA arrays + interned keys). Takes each slot's shared lock in
  /// turn, so the figure is a consistent-per-slot approximation.
  std::size_t approx_memory_bytes() const;

  /// True while the last ceiling check found tracked bytes above the limit.
  bool memory_pressure() const noexcept {
    return memory_pressure_.load(std::memory_order_relaxed);
  }

  /// Trims every cell of every table to at most `keep_versions` retained
  /// versions (see Table::trim_versions for the read-window caution).
  /// Returns the number of versions dropped.
  std::size_t trim_superseded(std::size_t keep_versions);

  MemoryStats memory_stats() const;

  /// Registers a mutation observer; returns a token for unsubscribe.
  /// See MutationObserver for the reentrancy rule.
  std::size_t subscribe(MutationObserver observer);
  void unsubscribe(std::size_t token);

  std::size_t max_versions() const noexcept { return max_versions_; }
  std::size_t shards() const noexcept { return ring_.shards(); }
  const ShardOptions& shard_options() const noexcept { return shard_options_; }
  /// Shard owning `row` — exposed for tests and benchmarks.
  std::size_t shard_of(const RowKey& row) const noexcept { return ring_.shard_of(row); }

 private:
  /// One lock domain of a table: with N shards each table is a vector of N
  /// slots, a row always living in slots[ring.shard_of(row)]. Slots are
  /// heap-separated so the shared_mutexes of adjacent shards never share a
  /// cache line.
  struct Slot {
    mutable std::shared_mutex mutex;
    Table table;
    explicit Slot(std::size_t max_versions) : table(max_versions) {}
  };
  struct TableEntry {
    std::vector<std::unique_ptr<Slot>> slots;
    TableEntry(std::size_t max_versions, std::size_t shards) {
      slots.reserve(shards);
      for (std::size_t i = 0; i < shards; ++i) {
        slots.push_back(std::make_unique<Slot>(max_versions));
      }
    }
  };
  using TableMap = std::map<TableName, std::shared_ptr<TableEntry>>;
  using ObserverList = std::vector<std::pair<std::size_t, MutationObserver>>;
  struct StoreObs;     ///< pre-resolved metric handles (datastore.cpp)
  struct Durability;   ///< WAL writer + checkpoint bookkeeping (datastore.cpp)

  /// The current registry snapshot / publishes a new one (create, drop and
  /// clear publish under registry_mutex_).
  std::shared_ptr<const TableMap> tables_snapshot() const;
  void publish_tables(std::shared_ptr<const TableMap> next);
  /// Existing entry or nullptr, via the per-thread registry cache.
  std::shared_ptr<TableEntry> find_entry(const TableName& table) const;
  /// Existing entry, or creates one (copy-on-write registry swap), logging a
  /// create-table record (broadcast to every WAL family) when durable.
  std::shared_ptr<TableEntry> entry_for(const TableName& table);
  /// Applies one shard's sub-batch to its slot and WAL family, recording
  /// previous values at the ops' original batch positions (`origin[j]` is
  /// the batch index of `sub[j]`).
  void apply_shard_batch(const TableName& table, TableEntry& entry, std::size_t shard,
                         Timestamp ts, std::span<const PutOp> sub,
                         std::span<const std::uint32_t> origin,
                         std::vector<std::pair<double, bool>>* previous);
  /// Merged as-of scan across every slot of a table (shards > 1 path):
  /// locks all slots shared, gathers matches, restores (row, column) order.
  void scan_slots_merged(const TableEntry& entry, const ContainerRef& container,
                         std::optional<Timestamp> at,
                         const std::function<void(const RowKey&, const ColumnKey&, double)>&
                             visit) const;
  /// Installs an open WAL + bookkeeping (shared by enable_durability and
  /// recover). Wires the WAL metric handles when instrumentation is on.
  void attach_durability(std::unique_ptr<Durability> durability);
  /// Ceiling check + relief, run at the tail of every commit_wave outside
  /// all locks (checkpoint() and trim_superseded() take their own).
  void maybe_relieve_memory();
  /// Replays one WAL record into this (not-yet-durable) store.
  void replay_record(const struct WalRecord& record);
  std::shared_ptr<const ObserverList> observer_snapshot() const {
    return observers_.load(std::memory_order_acquire);
  }

  std::size_t max_versions_;
  ShardOptions shard_options_;
  ShardRing ring_;
  std::unique_ptr<StoreObs> obs_;  ///< null unless set_instrumentation attached one
  /// Null unless durability is enabled. The per-family WAL mutexes inside
  /// serialize appends; they are always taken *after* a table/registry lock
  /// (see the lock-rank order above), so log order matches apply order per
  /// shard.
  std::unique_ptr<Durability> durability_;

  mutable std::mutex registry_mutex_;  ///< serializes table create/drop/clear only
  /// Leaf lock held only to copy or swap `tables_` (an immutable snapshot).
  /// A plain mutex rather than std::atomic<std::shared_ptr>: GCC 12's
  /// libstdc++ implements that with an internal lock ThreadSanitizer cannot
  /// see, so every concurrent table creation reported a race.
  mutable std::mutex tables_mutex_;
  std::shared_ptr<const TableMap> tables_;  ///< guarded by tables_mutex_
  /// Globally unique stamp of the current `tables_` snapshot (bumped on every
  /// create/drop/clear). Point ops validate a per-thread registry cache
  /// against it with one lock-free load, skipping the locked snapshot copy
  /// while the registry is unchanged (find_entry).
  std::atomic<std::uint64_t> registry_gen_;

  MemoryOptions memory_options_;
  std::atomic<bool> memory_pressure_{false};
  mutable std::mutex memory_mutex_;  ///< guards memory_stats_
  MemoryStats memory_stats_;

  std::mutex observers_mutex_;  ///< serializes subscribe/unsubscribe only
  std::atomic<std::shared_ptr<const ObserverList>> observers_;
  /// Mirror of observers_->size(): lets writers skip the observer-list
  /// snapshot load entirely on the (common) unobserved store.
  std::atomic<std::size_t> observer_count_{0};
  std::size_t next_token_ = 1;  ///< guarded by observers_mutex_
};

}  // namespace smartflux::ds
