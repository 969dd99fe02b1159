#include "datastore/datastore.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <shared_mutex>
#include <utility>

#include "common/error.h"
#include "common/lock_rank.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "datastore/checkpoint.h"
#include "datastore/wal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smartflux::ds {

const char* wal_flush_policy_name(WalFlushPolicy policy) noexcept {
  switch (policy) {
    case WalFlushPolicy::kEveryOp: return "every_op";
    case WalFlushPolicy::kEveryBatch: return "every_batch";
    case WalFlushPolicy::kEveryWave: return "every_wave";
  }
  return "?";
}

/// WAL families + checkpoint bookkeeping. One Family per shard: its mutex
/// serializes appends to that shard's segment and is always acquired after
/// the mutating thread's slot lock (lock rank kLockRankWal), so WAL order
/// equals apply order per shard; across shards the store-global lsn in every
/// record reconstructs a valid linearization at recovery. `meta_mutex`
/// (rank kLockRankDurabilityMeta) guards the rotation/commit bookkeeping and
/// is the innermost lock of all.
struct DataStore::Durability {
  struct Family {
    std::mutex mutex;                   ///< rank kLockRankWal
    std::unique_ptr<WalWriter> writer;  ///< guarded by mutex
    WalObs obs;  ///< records/bytes/syncs shared store-wide; shard_bytes own
  };

  std::string dir;
  DurabilityOptions options;
  std::size_t shards = 1;
  std::vector<std::unique_ptr<Family>> families;  ///< size == shards
  /// Store-global lsn counter shared by every family (shards > 1 only; the
  /// unsharded store keeps the writer's internal record count as its lsn so
  /// the legacy fault-injection seq space is unchanged).
  std::atomic<std::uint64_t> next_lsn{0};

  std::mutex meta_mutex;                    ///< rank kLockRankDurabilityMeta
  std::uint64_t segment_seq = 1;            ///< guarded by meta_mutex
  std::optional<Timestamp> committed_wave;  ///< guarded by meta_mutex
  std::size_t waves_since_checkpoint = 0;   ///< guarded by meta_mutex

  // Metric handles (null = no registry attached). Wired from
  // set_instrumentation's registry, falling back to options.metrics.
  obs::Counter* wave_commits = nullptr;
  obs::Histogram* wave_commit_duration = nullptr;
  obs::Counter* checkpoints = nullptr;
  obs::Histogram* checkpoint_duration = nullptr;
  bool metrics_wired = false;

  std::atomic<std::uint64_t>* lsn_source() noexcept {
    return shards == 1 ? nullptr : &next_lsn;
  }
  /// Disk-fault schedule tag of one family: the legacy "wal" for the
  /// unsharded store, "wal-s<k>" per shard otherwise.
  std::string fault_tag(std::size_t shard) const {
    return shards == 1 ? std::string("wal") : "wal-s" + std::to_string(shard);
  }
  std::string segment_path(std::size_t shard, std::uint64_t seq) const {
    const std::string name =
        shards == 1 ? wal_segment_name(seq) : sharded_wal_segment_name(shard, seq);
    return (std::filesystem::path(dir) / name).string();
  }
  std::string checkpoint_path(std::uint64_t cut) const {
    return (std::filesystem::path(dir) / checkpoint_file_name(cut)).string();
  }

  /// Opens one writer per shard at segment `seq`. `first_record_seq` only
  /// matters for the unsharded store (lsn continuity across recovery).
  void open_writers(std::uint64_t seq, std::uint64_t first_record_seq) {
    families.clear();
    families.reserve(shards);
    for (std::size_t shard = 0; shard < shards; ++shard) {
      auto family = std::make_unique<Family>();
      family->writer = std::make_unique<WalWriter>(segment_path(shard, seq), options.flush,
                                                   options.fault_injector, first_record_seq,
                                                   lsn_source(), fault_tag(shard));
      families.push_back(std::move(family));
    }
  }

  /// Appends one structural record (create/drop/clear) to EVERY family under
  /// all family mutexes (index order), with one shared lsn, so replay can
  /// dedupe the copies. `append_one(writer, lsn)` runs per family; a throw
  /// mid-broadcast leaves a partial set of same-lsn copies, which recovery
  /// applies exactly once (structural replay is idempotent).
  template <typename AppendOne>
  void broadcast(AppendOne&& append_one) {
    LockRankScope rank(kLockRankWal);
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(families.size());
    for (auto& family : families) locks.emplace_back(family->mutex);
    const std::optional<std::uint64_t> lsn =
        shards == 1 ? std::nullopt
                    : std::optional<std::uint64_t>(
                          next_lsn.fetch_add(1, std::memory_order_relaxed));
    for (auto& family : families) append_one(*family->writer, lsn);
  }

  void wire_metrics(obs::MetricsRegistry& reg) {
    auto* records = &reg.counter("sf_ds_wal_records_total", {}, "WAL records appended");
    auto* bytes =
        &reg.counter("sf_ds_wal_bytes_total", {}, "WAL bytes appended (incl. framing)");
    auto* syncs = &reg.counter("sf_ds_wal_syncs_total", {}, "WAL fsync calls");
    auto* fsync_duration =
        &reg.histogram("sf_ds_wal_fsync_duration_seconds", obs::duration_buckets(), {},
                       "WAL fsync latency");
    for (std::size_t shard = 0; shard < families.size(); ++shard) {
      Family& family = *families[shard];
      family.obs.records = records;
      family.obs.bytes = bytes;
      family.obs.syncs = syncs;
      family.obs.fsync_duration = fsync_duration;
      // Per-shard byte series only when actually sharded: one series per
      // shard is bounded cardinality, but the unsharded default would just
      // duplicate sf_ds_wal_bytes_total (see DESIGN.md §9).
      family.obs.shard_bytes =
          shards == 1 ? nullptr
                      : &reg.counter("sf_ds_wal_shard_bytes_total",
                                     {{"shard", std::to_string(shard)}},
                                     "WAL bytes appended per shard family");
      if (family.writer) family.writer->set_obs(&family.obs);
    }
    wave_commits =
        &reg.counter("sf_ds_wave_commits_total", {}, "Wave-commit records stamped");
    // The whole barrier (family locks, commit records, fsyncs, stamp): with
    // the families syncing concurrently, the fsync histogram no longer sums
    // to the commit time.
    wave_commit_duration =
        &reg.histogram("sf_ds_wave_commit_duration_seconds", obs::duration_buckets(), {},
                       "commit_wave barrier duration");
    checkpoints = &reg.counter("sf_ds_checkpoints_total", {}, "Checkpoints written");
    checkpoint_duration =
        &reg.histogram("sf_ds_checkpoint_duration_seconds", obs::duration_buckets(), {},
                       "Checkpoint capture + write duration");
    metrics_wired = true;
  }

  void unwire_metrics() {
    for (auto& family : families) {
      family->obs = WalObs{};
      if (family->writer) family->writer->set_obs(nullptr);
    }
    wave_commits = nullptr;
    wave_commit_duration = nullptr;
    checkpoints = nullptr;
    checkpoint_duration = nullptr;
    metrics_wired = false;
  }
};

/// Handles resolved at attach time. Point ops (get/put/erase) always bump a
/// counter; latency observation is sampled 1-in-2^shift so the per-cell hot
/// path stays two relaxed atomics in the common case. Scans and batches are
/// rare and heavy: always timed, and scans traced when a tracer is attached.
struct DataStore::StoreObs {
  obs::Counter* gets = nullptr;
  obs::Counter* puts = nullptr;
  obs::Counter* batches = nullptr;
  obs::Counter* erases = nullptr;
  obs::Counter* scans = nullptr;
  obs::Histogram* get_latency = nullptr;
  obs::Histogram* put_latency = nullptr;
  obs::Histogram* batch_latency = nullptr;
  obs::Histogram* scan_latency = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* registry = nullptr;  ///< for late durability wiring
  std::uint64_t sample_mask = 63;
  /// Per-shard routed-op counters + imbalance gauge (max/mean of the shard
  /// op counts, refreshed at each wave commit). Empty/null on the unsharded
  /// default — no extra series unless sharding is actually on (§9 note).
  std::vector<obs::Counter*> shard_ops;
  obs::Gauge* shard_imbalance = nullptr;
  /// Soft memory ceiling series (registered eagerly; cheap, and the gauges
  /// only move when a ceiling is actually configured).
  obs::Gauge* tracked_bytes = nullptr;
  obs::Gauge* memory_pressure = nullptr;
  obs::Counter* pressure_events = nullptr;
  obs::Counter* versions_trimmed = nullptr;

  StoreObs(obs::MetricsRegistry& registry, obs::Tracer* tr, unsigned shift, std::size_t shards)
      : tracer(tr), registry(&registry) {
    sample_mask = (std::uint64_t{1} << shift) - 1;
    if (shards > 1) {
      shard_ops.reserve(shards);
      for (std::size_t shard = 0; shard < shards; ++shard) {
        shard_ops.push_back(&registry.counter("sf_ds_shard_ops_total",
                                              {{"shard", std::to_string(shard)}},
                                              "Datastore ops routed to each shard"));
      }
      shard_imbalance = &registry.gauge(
          "sf_ds_shard_imbalance", {},
          "Max-over-mean of per-shard routed op counts (1.0 = perfectly even)");
    }
    auto op_counter = [&registry](const char* op) {
      return &registry.counter("sf_ds_ops_total", {{"op", op}},
                               "Datastore operations by kind");
    };
    auto op_latency = [&registry](const char* op) {
      return &registry.histogram("sf_ds_op_duration_seconds", obs::duration_buckets(),
                                 {{"op", op}},
                                 "Datastore op latency (point ops sampled 1-in-2^shift)");
    };
    tracked_bytes = &registry.gauge("sf_ds_tracked_bytes", {},
                                    "Approximate store heap footprint (wave-commit cadence)");
    memory_pressure = &registry.gauge("sf_ds_memory_pressure", {},
                                      "1 while tracked bytes exceed the soft ceiling");
    pressure_events = &registry.counter("sf_ds_memory_pressure_events_total", {},
                                        "Transitions into memory pressure");
    versions_trimmed = &registry.counter("sf_ds_trimmed_versions_total", {},
                                         "Superseded cell versions dropped under pressure");
    gets = op_counter("get");
    puts = op_counter("put");
    batches = op_counter("put_batch");
    erases = op_counter("erase");
    scans = op_counter("scan");
    get_latency = op_latency("get");
    put_latency = op_latency("put");
    batch_latency = op_latency("put_batch");
    scan_latency = op_latency("scan");
  }

  /// Bumps the op counter and decides latency sampling off its pre-increment
  /// value — one atomic per point op, and each op kind samples its own
  /// stream (every 2^shift-th get, every 2^shift-th put, ...).
  bool count_and_sample(obs::Counter& op) noexcept {
    return (op.fetch_inc() & sample_mask) == 0;
  }

  static double seconds_since(std::chrono::steady_clock::time_point t0) noexcept {
    return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count()) *
           1e-9;
  }
};

namespace {
/// Registry-generation stamps are unique across all DataStore instances and
/// never repeat, so a per-thread cache entry can never validate against a
/// different store that happens to reuse the same address.
std::uint64_t next_registry_gen() noexcept {
  static std::atomic<std::uint64_t> gen{1};
  return gen.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

DataStore::DataStore(std::size_t max_versions, ShardOptions shard_options)
    : max_versions_(max_versions), shard_options_(shard_options), ring_(shard_options) {
  SF_CHECK(max_versions >= 1, "DataStore must retain at least one version");
  publish_tables(std::make_shared<const TableMap>());
  registry_gen_.store(next_registry_gen(), std::memory_order_release);
  observers_.store(std::make_shared<const ObserverList>(), std::memory_order_release);
}

DataStore::~DataStore() = default;

void DataStore::set_instrumentation(obs::MetricsRegistry* registry, obs::Tracer* tracer,
                                    unsigned latency_sample_shift) {
  SF_CHECK(latency_sample_shift < 32, "latency_sample_shift out of range");
  if (registry == nullptr) {
    obs_.reset();
    if (durability_) durability_->unwire_metrics();
    return;
  }
  obs_ = std::make_unique<StoreObs>(*registry, tracer, latency_sample_shift, shards());
  if (durability_) durability_->wire_metrics(*registry);
}

std::shared_ptr<const DataStore::TableMap> DataStore::tables_snapshot() const {
  std::lock_guard lock(tables_mutex_);
  return tables_;
}

void DataStore::publish_tables(std::shared_ptr<const TableMap> next) {
  std::shared_ptr<const TableMap> old;  // a dropped table is freed outside the lock
  std::lock_guard lock(tables_mutex_);
  old = std::exchange(tables_, std::move(next));
}

std::shared_ptr<DataStore::TableEntry> DataStore::find_entry(const TableName& table) const {
  // Per-thread registry cache: while the registry is unchanged (by far the
  // common case — tables are created once and live forever), a point op pays
  // one lock-free uint64 load instead of the locked, refcounted snapshot
  // copy. The gen is read *before* the map, so a cached map can never be
  // older than the gen it is stamped with; a concurrent registry change just
  // invalidates the entry on the next op. The cached shared_ptr keeps the map
  // snapshot alive until this thread touches another store or generation,
  // which is safe (snapshots are immutable) and bounded (one map per thread).
  struct Cache {
    const DataStore* store = nullptr;
    std::uint64_t gen = 0;
    std::shared_ptr<const TableMap> map;
  };
  static thread_local Cache cache;
  const auto gen = registry_gen_.load(std::memory_order_acquire);
  if (cache.store != this || cache.gen != gen) {
    cache.map = tables_snapshot();
    cache.store = this;
    cache.gen = gen;
  }
  const auto it = cache.map->find(table);
  return it == cache.map->end() ? nullptr : it->second;
}

std::shared_ptr<DataStore::TableEntry> DataStore::entry_for(const TableName& table) {
  if (auto entry = find_entry(table)) return entry;
  LockRankScope rank(kLockRankRegistry);
  std::lock_guard lock(registry_mutex_);
  // Re-check under the writer lock: another thread may have created it
  // between our lock-free lookup and here.
  auto snap = tables_snapshot();
  if (const auto it = snap->find(table); it != snap->end()) return it->second;
  auto next = std::make_shared<TableMap>(*snap);
  auto entry = std::make_shared<TableEntry>(max_versions_, shards());
  next->emplace(table, entry);
  if (durability_) {
    // Logged before the new registry snapshot is published, so the create
    // record precedes every put record for this table in each family's log.
    // If the append throws, the table was never created.
    durability_->broadcast([&table](WalWriter& writer, std::optional<std::uint64_t> lsn) {
      writer.append_create_table(table, lsn);
    });
  }
  publish_tables(std::shared_ptr<const TableMap>(std::move(next)));
  registry_gen_.store(next_registry_gen(), std::memory_order_release);
  return entry;
}

void DataStore::put(const TableName& table, const RowKey& row, const ColumnKey& column,
                    Timestamp ts, double value) {
  std::chrono::steady_clock::time_point t0;
  bool timed = false;
  if (obs_) {
    timed = obs_->count_and_sample(*obs_->puts);
    if (timed) t0 = std::chrono::steady_clock::now();
  }
  const auto entry = entry_for(table);
  const std::size_t shard = ring_.shard_of(row);
  if (obs_ && !obs_->shard_ops.empty()) obs_->shard_ops[shard]->inc();
  Slot& slot = *entry->slots[shard];
  std::optional<double> previous;
  {
    LockRankScope table_rank(kLockRankTable);
    std::unique_lock lock(slot.mutex);
    previous = slot.table.put(row, column, ts, value);
    if (durability_) {
      // Log under the slot lock so WAL order matches apply order for this
      // shard; the family mutex ranks below every table lock (see
      // Durability).
      auto& family = *durability_->families[shard];
      LockRankScope wal_rank(kLockRankWal);
      std::lock_guard wal_lock(family.mutex);
      family.writer->append_put(table, row, column, ts, value);
    }
  }
  if (observer_count_.load(std::memory_order_acquire) != 0) {
    const auto observers = observer_snapshot();
    Mutation m;
    m.kind = MutationKind::kPut;
    m.table = table;
    m.row = row;
    m.column = column;
    m.timestamp = ts;
    m.new_value = value;
    m.old_value = previous.value_or(0.0);
    m.had_old_value = previous.has_value();
    for (const auto& [_, observe] : *observers) observe(m);
  }
  if (timed) obs_->put_latency->observe(StoreObs::seconds_since(t0));
}

void DataStore::put_batch(const TableName& table, Timestamp ts, std::span<const PutOp> ops) {
  if (ops.empty()) return;
  std::chrono::steady_clock::time_point t0;
  if (obs_) {
    obs_->puts->inc(ops.size());
    obs_->batches->inc();
    t0 = std::chrono::steady_clock::now();
  }
  const auto entry = entry_for(table);
  std::shared_ptr<const ObserverList> observers;
  if (observer_count_.load(std::memory_order_acquire) != 0) observers = observer_snapshot();
  const bool want_mutations = observers != nullptr && !observers->empty();
  // (old value, had old) per op, at the op's ORIGINAL index — sub-batches of
  // different shards write disjoint slots of it concurrently.
  std::vector<std::pair<double, bool>> previous;
  if (want_mutations) previous.resize(ops.size());

  if (shards() == 1) {
    // Unsharded fast path: one lock, one WAL record — byte-identical
    // behavior (and log) to the pre-sharding store.
    Slot& slot = *entry->slots[0];
    LockRankScope table_rank(kLockRankTable);
    std::unique_lock lock(slot.mutex);
    std::size_t applied = 0;
    try {
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto prev = slot.table.put(ops[i].row, ops[i].column, ts, ops[i].value);
        ++applied;
        if (want_mutations) previous[i] = {prev.value_or(0.0), prev.has_value()};
      }
    } catch (...) {
      // A mid-batch failure (timestamp regression) leaves a prefix applied;
      // log exactly that prefix so replay reproduces the in-memory state.
      if (durability_ && applied > 0) {
        auto& family = *durability_->families[0];
        LockRankScope wal_rank(kLockRankWal);
        std::lock_guard wal_lock(family.mutex);
        family.writer->append_batch(table, ts, ops.first(applied));
      }
      throw;
    }
    if (durability_) {
      auto& family = *durability_->families[0];
      LockRankScope wal_rank(kLockRankWal);
      std::lock_guard wal_lock(family.mutex);
      family.writer->append_batch(table, ts, ops);
    }
  } else {
    // Split by shard with a stable counting sort, on the calling thread:
    // original order within each sub-batch, so the same-cell-twice-in-one-
    // batch case keeps its order (equal rows always share a shard). Each
    // sub-batch applies under its own slot lock and logs ONE record to its
    // own WAL family; whoever applies it only reads these arrays, so the
    // helpers allocate nothing.
    const std::size_t n_shards = shards();
    std::vector<std::uint32_t> route(ops.size());
    std::vector<std::size_t> begin(n_shards + 1, 0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      route[i] = static_cast<std::uint32_t>(ring_.shard_of(ops[i].row));
      ++begin[route[i] + 1];
    }
    for (std::size_t shard = 0; shard < n_shards; ++shard) begin[shard + 1] += begin[shard];
    std::vector<PutOp> sorted(ops.size());
    std::vector<std::uint32_t> origin(ops.size());  // sorted position -> op index
    {
      std::vector<std::size_t> next(begin.begin(), begin.end() - 1);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const std::size_t at = next[route[i]]++;
        sorted[at] = ops[i];
        origin[at] = static_cast<std::uint32_t>(i);
      }
    }
    std::vector<std::size_t> hit;  // shards with a non-empty sub-batch
    for (std::size_t shard = 0; shard < n_shards; ++shard) {
      if (begin[shard + 1] > begin[shard]) hit.push_back(shard);
    }
    if (obs_ && !obs_->shard_ops.empty()) {
      for (const std::size_t shard : hit) {
        obs_->shard_ops[shard]->inc(begin[shard + 1] - begin[shard]);
      }
    }
    auto* previous_out = want_mutations ? &previous : nullptr;
    const auto apply = [&](std::size_t shard) {
      const std::size_t first = begin[shard];
      const std::size_t count = begin[shard + 1] - first;
      apply_shard_batch(table, *entry, shard, ts,
                        std::span<const PutOp>(sorted).subspan(first, count),
                        std::span<const std::uint32_t>(origin).subspan(first, count), previous_out);
    };
    if (hit.size() > 1 && ops.size() >= shard_options_.parallel_batch_min_ops) {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(hit.size());
      for (const std::size_t shard : hit) tasks.push_back([&apply, shard] { apply(shard); });
      // Caller-participating run_all: safe even when the calling step itself
      // runs on a pool. Rethrows the first failure in shard order; other
      // shards' sub-batches still complete (each one applied + logged
      // atomically, so WAL and memory stay in agreement).
      helper_pool().run_all(std::move(tasks));
    } else {
      for (const std::size_t shard : hit) apply(shard);
    }
  }

  if (want_mutations) {
    Mutation m;
    m.kind = MutationKind::kPut;
    m.table = table;
    m.timestamp = ts;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      m.row.assign(ops[i].row);
      m.column.assign(ops[i].column);
      m.new_value = ops[i].value;
      m.old_value = previous[i].first;
      m.had_old_value = previous[i].second;
      for (const auto& [_, observe] : *observers) observe(m);
    }
  }
  if (obs_) obs_->batch_latency->observe(StoreObs::seconds_since(t0));
}

void DataStore::apply_shard_batch(const TableName& table, TableEntry& entry, std::size_t shard,
                                  Timestamp ts, std::span<const PutOp> sub,
                                  std::span<const std::uint32_t> origin,
                                  std::vector<std::pair<double, bool>>* previous) {
  // `sub` is both the apply order and the ONE WAL record for this shard, so
  // replaying the family reproduces exactly what this slot applied.
  Slot& slot = *entry.slots[shard];
  LockRankScope table_rank(kLockRankTable);
  std::unique_lock lock(slot.mutex);
  std::size_t applied = 0;
  try {
    for (std::size_t j = 0; j < sub.size(); ++j) {
      const auto prev = slot.table.put(sub[j].row, sub[j].column, ts, sub[j].value);
      ++applied;
      if (previous != nullptr) {
        (*previous)[origin[j]] = {prev.value_or(0.0), prev.has_value()};
      }
    }
  } catch (...) {
    // Same prefix rule as the unsharded batch, per shard: log exactly what
    // this slot applied before the failure.
    if (durability_ && applied > 0) {
      auto& family = *durability_->families[shard];
      LockRankScope wal_rank(kLockRankWal);
      std::lock_guard wal_lock(family.mutex);
      family.writer->append_batch(table, ts, sub.first(applied));
    }
    throw;
  }
  if (durability_) {
    auto& family = *durability_->families[shard];
    LockRankScope wal_rank(kLockRankWal);
    std::lock_guard wal_lock(family.mutex);
    family.writer->append_batch(table, ts, sub);
  }
}

void DataStore::erase(const TableName& table, const RowKey& row, const ColumnKey& column,
                      Timestamp ts) {
  if (obs_) obs_->erases->inc();
  const auto entry = find_entry(table);
  if (entry == nullptr) return;
  const std::size_t shard = ring_.shard_of(row);
  if (obs_ && !obs_->shard_ops.empty()) obs_->shard_ops[shard]->inc();
  Slot& slot = *entry->slots[shard];
  std::optional<double> removed;
  {
    LockRankScope table_rank(kLockRankTable);
    std::unique_lock lock(slot.mutex);
    removed = slot.table.erase(row, column);
    if (removed && durability_) {
      // Erasing an absent cell is not a mutation, so it is not logged.
      auto& family = *durability_->families[shard];
      LockRankScope wal_rank(kLockRankWal);
      std::lock_guard wal_lock(family.mutex);
      family.writer->append_erase(table, row, column, ts);
    }
  }
  if (!removed) return;
  if (observer_count_.load(std::memory_order_acquire) == 0) return;
  const auto observers = observer_snapshot();
  if (observers->empty()) return;
  Mutation m;
  m.kind = MutationKind::kDelete;
  m.table = table;
  m.row = row;
  m.column = column;
  m.timestamp = ts;
  m.old_value = *removed;
  m.had_old_value = true;
  for (const auto& [_, observe] : *observers) observe(m);
}

std::optional<double> DataStore::get(const TableName& table, const RowKey& row,
                                     const ColumnKey& column) const {
  std::chrono::steady_clock::time_point t0;
  bool timed = false;
  if (obs_) {
    timed = obs_->count_and_sample(*obs_->gets);
    if (timed) t0 = std::chrono::steady_clock::now();
  }
  const auto entry = find_entry(table);
  std::optional<double> out;
  if (entry != nullptr) {
    const std::size_t shard = ring_.shard_of(row);
    if (obs_ && !obs_->shard_ops.empty()) obs_->shard_ops[shard]->inc();
    Slot& slot = *entry->slots[shard];
    LockRankScope table_rank(kLockRankTable);
    std::shared_lock lock(slot.mutex);
    out = slot.table.get(row, column);
  }
  if (timed) obs_->get_latency->observe(StoreObs::seconds_since(t0));
  return out;
}

std::optional<double> DataStore::get_previous(const TableName& table, const RowKey& row,
                                              const ColumnKey& column) const {
  // Folded into the "get" op label: same access shape, older version.
  if (obs_) obs_->gets->inc();
  const auto entry = find_entry(table);
  if (entry == nullptr) return std::nullopt;
  Slot& slot = *entry->slots[ring_.shard_of(row)];
  LockRankScope table_rank(kLockRankTable);
  std::shared_lock lock(slot.mutex);
  return slot.table.get_previous(row, column);
}

std::optional<double> DataStore::get_at(const TableName& table, const RowKey& row,
                                        const ColumnKey& column, Timestamp ts) const {
  if (obs_) obs_->gets->inc();
  const auto entry = find_entry(table);
  if (entry == nullptr) return std::nullopt;
  Slot& slot = *entry->slots[ring_.shard_of(row)];
  LockRankScope table_rank(kLockRankTable);
  std::shared_lock lock(slot.mutex);
  return slot.table.get_at(row, column, ts);
}

std::optional<double> DataStore::get_previous_at(const TableName& table, const RowKey& row,
                                                 const ColumnKey& column, Timestamp ts) const {
  if (obs_) obs_->gets->inc();
  const auto entry = find_entry(table);
  if (entry == nullptr) return std::nullopt;
  Slot& slot = *entry->slots[ring_.shard_of(row)];
  LockRankScope table_rank(kLockRankTable);
  std::shared_lock lock(slot.mutex);
  return slot.table.get_previous_at(row, column, ts);
}

void DataStore::scan_slots_merged(
    const TableEntry& entry, const ContainerRef& container, std::optional<Timestamp> at,
    const std::function<void(const RowKey&, const ColumnKey&, double)>& visit) const {
  // Lock every slot shared in index order (same-rank order rule), gather the
  // matches, then restore global (row, column) order — each slot only holds
  // its own arc of the ring, so the merged order is not free like it is for
  // one slot. Sorting the union keeps the slot critical sections short.
  struct Hit {
    const std::string* row;
    const std::string* col;
    double value;
  };
  std::vector<Hit> hits;
  const bool unfiltered = !container.has_column() && !container.has_row_prefix();
  {
    LockRankScope table_rank(kLockRankTable);
    std::vector<std::shared_lock<std::shared_mutex>> locks;
    locks.reserve(entry.slots.size());
    for (const auto& slot : entry.slots) locks.emplace_back(slot->mutex);
    for (const auto& slot : entry.slots) {
      const auto gather = [&](const Table::CellView& cv) {
        if (unfiltered || container.matches_cell(*cv.row, *cv.col)) {
          hits.push_back(Hit{cv.row, cv.col, cv.value});
        }
      };
      if (at) {
        slot->table.scan_cells_at(*at, gather);
      } else {
        slot->table.scan_cells(gather);
      }
    }
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    const int cmp = a.row->compare(*b.row);
    return cmp != 0 ? cmp < 0 : a.col->compare(*b.col) < 0;
  });
  for (const Hit& hit : hits) visit(*hit.row, *hit.col, hit.value);
}

void DataStore::scan_container(
    const ContainerRef& container,
    const std::function<void(const RowKey&, const ColumnKey&, double)>& visit) const {
  std::chrono::steady_clock::time_point t0;
  if (obs_) {
    obs_->scans->inc();
    t0 = std::chrono::steady_clock::now();
  }
  const auto entry = find_entry(container.table());
  if (entry != nullptr) {
    if (entry->slots.size() == 1) {
      const bool unfiltered = !container.has_column() && !container.has_row_prefix();
      Slot& slot = *entry->slots[0];
      LockRankScope table_rank(kLockRankTable);
      std::shared_lock lock(slot.mutex);
      slot.table.scan_cells([&](const Table::CellView& cv) {
        if (unfiltered || container.matches_cell(*cv.row, *cv.col)) {
          visit(*cv.row, *cv.col, cv.value);
        }
      });
    } else {
      scan_slots_merged(*entry, container, std::nullopt, visit);
    }
  }
  if (obs_) {
    obs_->scan_latency->observe(StoreObs::seconds_since(t0));
    if (obs_->tracer != nullptr) {
      obs_->tracer->record("ds_scan:" + container.table(), "ds", 0, t0,
                           std::chrono::steady_clock::now() - t0);
    }
  }
}

void DataStore::scan_container_at(
    const ContainerRef& container, Timestamp ts,
    const std::function<void(const RowKey&, const ColumnKey&, double)>& visit) const {
  if (obs_) obs_->scans->inc();
  const auto entry = find_entry(container.table());
  if (entry == nullptr) return;
  if (entry->slots.size() == 1) {
    const bool unfiltered = !container.has_column() && !container.has_row_prefix();
    Slot& slot = *entry->slots[0];
    LockRankScope table_rank(kLockRankTable);
    std::shared_lock lock(slot.mutex);
    slot.table.scan_cells_at(ts, [&](const Table::CellView& cv) {
      if (unfiltered || container.matches_cell(*cv.row, *cv.col)) {
        visit(*cv.row, *cv.col, cv.value);
      }
    });
  } else {
    scan_slots_merged(*entry, container, ts, visit);
  }
}

FlatSnapshot DataStore::snapshot_flat(const ContainerRef& container) const {
  std::chrono::steady_clock::time_point t0;
  if (obs_) {
    obs_->scans->inc();
    t0 = std::chrono::steady_clock::now();
  }
  const auto entry = find_entry(container.table());
  FlatSnapshot out;
  if (entry != nullptr) {
    const bool unfiltered = !container.has_column() && !container.has_row_prefix();
    std::vector<FlatEntry> entries;
    if (entry->slots.size() == 1) {
      Slot& slot = *entry->slots[0];
      {
        LockRankScope table_rank(kLockRankTable);
        std::shared_lock lock(slot.mutex);
        entries.reserve(slot.table.cell_count());
        slot.table.scan_cells([&](const Table::CellView& cv) {
          if (unfiltered || container.matches_cell(*cv.row, *cv.col)) {
            entries.push_back(FlatEntry{cv.id, cv.row, cv.col, cv.value});
          }
        });
      }
      out = FlatSnapshot(entry, &slot.table, std::move(entries));
    } else {
      {
        LockRankScope table_rank(kLockRankTable);
        std::vector<std::shared_lock<std::shared_mutex>> locks;
        locks.reserve(entry->slots.size());
        for (const auto& slot : entry->slots) locks.emplace_back(slot->mutex);
        for (const auto& slot : entry->slots) {
          slot->table.scan_cells([&](const Table::CellView& cv) {
            if (unfiltered || container.matches_cell(*cv.row, *cv.col)) {
              entries.push_back(FlatEntry{cv.id, cv.row, cv.col, cv.value});
            }
          });
        }
      }
      std::sort(entries.begin(), entries.end(), [](const FlatEntry& a, const FlatEntry& b) {
        const int cmp = a.row->compare(*b.row);
        return cmp != 0 ? cmp < 0 : a.col->compare(*b.col) < 0;
      });
      // keyspace = nullptr: packed interner ids are only unique per slot, so
      // the id fast path (pointer-equal keyspaces) must not engage across
      // differently sharded snapshots; consumers fall back to string keys.
      out = FlatSnapshot(entry, nullptr, std::move(entries));
    }
  }
  if (obs_) {
    obs_->scan_latency->observe(StoreObs::seconds_since(t0));
    if (obs_->tracer != nullptr) {
      obs_->tracer->record("ds_scan:" + container.table(), "ds", 0, t0,
                           std::chrono::steady_clock::now() - t0);
    }
  }
  return out;
}

std::map<std::string, double> DataStore::snapshot(const ContainerRef& container) const {
  std::map<std::string, double> out;
  scan_container(container, [&out](const RowKey& row, const ColumnKey& column, double value) {
    std::string key;
    key.reserve(row.size() + 1 + column.size());
    key.append(row).push_back('\x1f');
    key.append(column);
    // Scan order is (row, column) order, which matches the concatenated-key
    // order for ordinary keys, so the end hint is almost always right.
    out.emplace_hint(out.end(), std::move(key), value);
  });
  return out;
}

std::size_t DataStore::cell_count(const TableName& table) const {
  const auto entry = find_entry(table);
  if (entry == nullptr) return 0;
  LockRankScope table_rank(kLockRankTable);
  std::size_t n = 0;
  for (const auto& slot : entry->slots) {
    std::shared_lock lock(slot->mutex);
    n += slot->table.cell_count();
  }
  return n;
}

std::size_t DataStore::container_cell_count(const ContainerRef& container) const {
  std::size_t n = 0;
  scan_container(container, [&n](const RowKey&, const ColumnKey&, double) { ++n; });
  return n;
}

bool DataStore::has_table(const TableName& table) const { return find_entry(table) != nullptr; }

std::vector<TableName> DataStore::table_names() const {
  const auto snap = tables_snapshot();
  std::vector<TableName> out;
  out.reserve(snap->size());
  for (const auto& [name, _] : *snap) out.push_back(name);
  return out;
}

void DataStore::drop_table(const TableName& table) {
  LockRankScope rank(kLockRankRegistry);
  std::lock_guard lock(registry_mutex_);
  const auto snap = tables_snapshot();
  if (!snap->contains(table)) return;
  auto next = std::make_shared<TableMap>(*snap);
  next->erase(table);
  if (durability_) {
    durability_->broadcast([&table](WalWriter& writer, std::optional<std::uint64_t> lsn) {
      writer.append_drop_table(table, lsn);
    });
  }
  publish_tables(std::shared_ptr<const TableMap>(std::move(next)));
  registry_gen_.store(next_registry_gen(), std::memory_order_release);
}

void DataStore::clear() {
  LockRankScope rank(kLockRankRegistry);
  std::lock_guard lock(registry_mutex_);
  if (durability_) {
    durability_->broadcast([](WalWriter& writer, std::optional<std::uint64_t> lsn) {
      writer.append_clear(lsn);
    });
  }
  publish_tables(std::make_shared<const TableMap>());
  registry_gen_.store(next_registry_gen(), std::memory_order_release);
}

std::vector<CellVersion> DataStore::cell_versions(const TableName& table, const RowKey& row,
                                                  const ColumnKey& column) const {
  const auto entry = find_entry(table);
  if (entry == nullptr) return {};
  Slot& slot = *entry->slots[ring_.shard_of(row)];
  LockRankScope table_rank(kLockRankTable);
  std::shared_lock lock(slot.mutex);
  return slot.table.versions(row, column);
}

namespace {

/// WAL segment files (both namings, as (shard, seq) plus the actual file
/// name, sorted by (seq, shard)) and checkpoint cuts found in a data dir.
struct FoundSegment {
  WalSegmentId id;
  std::string name;
};
struct DirScan {
  std::vector<FoundSegment> segments;
  std::vector<std::uint64_t> checkpoints;
};

DirScan scan_data_dir(const std::string& dir, bool remove_tmp) {
  DirScan out;
  std::error_code ec;
  for (const auto& dirent : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = dirent.path().filename().string();
    if (const auto id = parse_any_wal_segment_name(name)) {
      out.segments.push_back(FoundSegment{*id, name});
    } else if (const auto cut = parse_checkpoint_file_name(name)) {
      out.checkpoints.push_back(*cut);
    } else if (remove_tmp && name.ends_with(".tmp")) {
      // Leftover from a crash mid-checkpoint-write: never valid, never
      // referenced.
      std::error_code rm_ec;
      std::filesystem::remove(dirent.path(), rm_ec);
    }
  }
  if (ec) throw Error("cannot scan data dir '" + dir + "': " + ec.message());
  std::sort(out.segments.begin(), out.segments.end(),
            [](const FoundSegment& a, const FoundSegment& b) {
              return a.id.seq != b.id.seq ? a.id.seq < b.id.seq : a.id.shard < b.id.shard;
            });
  std::sort(out.checkpoints.begin(), out.checkpoints.end());
  return out;
}

/// Best-effort deletion of everything a durable checkpoint at `cut`
/// supersedes: WAL segments <= cut (either naming — a store reopened with a
/// different shard count leaves the other family behind) and older
/// checkpoints.
void remove_superseded(const std::string& dir, std::uint64_t cut) {
  std::error_code ec;
  for (const auto& dirent : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = dirent.path().filename().string();
    bool superseded = false;
    if (const auto id = parse_any_wal_segment_name(name)) superseded = id->seq <= cut;
    if (const auto ck = parse_checkpoint_file_name(name)) superseded = *ck < cut;
    if (superseded) {
      std::error_code rm_ec;
      std::filesystem::remove(dirent.path(), rm_ec);
    }
  }
}

}  // namespace

void DataStore::enable_durability(const std::string& dir, DurabilityOptions options) {
  SF_CHECK(durability_ == nullptr, "durability is already enabled on this store");
  SF_CHECK(tables_snapshot()->empty(),
           "enable_durability requires an empty store; attach to an existing data dir "
           "with DataStore::recover");
  std::filesystem::create_directories(dir);
  const DirScan found = scan_data_dir(dir, /*remove_tmp=*/false);
  if (!found.segments.empty() || !found.checkpoints.empty()) {
    throw InvalidArgument("data dir '" + dir +
                          "' already holds WAL/checkpoint files; use DataStore::recover");
  }
  auto durability = std::make_unique<Durability>();
  durability->dir = dir;
  durability->options = options;
  durability->shards = shards();
  durability->segment_seq = 1;
  durability->open_writers(/*seq=*/1, /*first_record_seq=*/0);
  attach_durability(std::move(durability));
}

void DataStore::attach_durability(std::unique_ptr<Durability> durability) {
  durability_ = std::move(durability);
  obs::MetricsRegistry* registry =
      obs_ != nullptr ? obs_->registry : durability_->options.metrics;
  if (registry != nullptr) durability_->wire_metrics(*registry);
}

void DataStore::replay_record(const WalRecord& record) {
  switch (record.kind) {
    case WalRecordKind::kPut:
      put(record.table, record.row, record.column, record.ts, record.value);
      break;
    case WalRecordKind::kPutBatch: {
      std::vector<PutOp> ops;
      ops.reserve(record.batch.size());
      for (const WalRecord::BatchOp& op : record.batch) {
        ops.push_back(PutOp{op.row, op.column, op.value});
      }
      put_batch(record.table, record.ts, ops);
      break;
    }
    case WalRecordKind::kErase:
      erase(record.table, record.row, record.column, record.ts);
      break;
    case WalRecordKind::kCreateTable:
      entry_for(record.table);
      break;
    case WalRecordKind::kDropTable:
      drop_table(record.table);
      break;
    case WalRecordKind::kClear:
      clear();
      break;
    case WalRecordKind::kWaveCommit:
      break;  // tracked by recover() itself
  }
}

std::unique_ptr<DataStore> DataStore::recover(const std::string& dir, DurabilityOptions options,
                                              std::size_t max_versions, RecoveryInfo* info,
                                              ShardOptions shard_options) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryInfo local;
  std::filesystem::create_directories(dir);
  const DirScan found = scan_data_dir(dir, /*remove_tmp=*/true);

  auto store = std::make_unique<DataStore>(max_versions, shard_options);
  std::uint64_t cut = 0;
  std::optional<Timestamp> last_wave;

  if (!found.checkpoints.empty()) {
    cut = found.checkpoints.back();
    const std::string path = (std::filesystem::path(dir) / checkpoint_file_name(cut)).string();
    const auto image = load_checkpoint_file(path);
    if (!image) {
      // Hard error by design: the segments this checkpoint replaced were
      // deleted when it became durable, so there is nothing to fall back to.
      throw Error("checkpoint '" + path + "' is corrupt; recovery cannot proceed");
    }
    SF_CHECK(image->max_versions >= 1, "checkpoint max_versions invalid");
    store->max_versions_ = image->max_versions;
    for (const CheckpointTable& table : image->tables) {
      const auto entry = store->entry_for(table.name);
      for (const CheckpointTable::Cell& cell : table.cells) {
        // Each row is re-routed through THIS store's ring — checkpoints are
        // shard-agnostic, so a dir written with any shard count reloads into
        // any other.
        Slot& slot = *entry->slots[store->ring_.shard_of(cell.row)];
        std::unique_lock lock(slot.mutex);
        // Versions are stored newest first; re-put oldest first.
        for (auto it = cell.versions.rbegin(); it != cell.versions.rend(); ++it) {
          slot.table.put(cell.row, cell.column, it->timestamp, it->value);
        }
      }
    }
    if (image->has_committed_wave) last_wave = image->last_committed_wave;
    local.checkpoint_loaded = true;
  }

  // Post-cut segment files grouped by seq (one group = the families of one
  // rotation generation), seqs contiguous from cut + 1.
  std::map<std::uint64_t, std::vector<const FoundSegment*>> groups;
  for (const FoundSegment& segment : found.segments) {
    if (segment.id.seq > cut) groups[segment.id.seq].push_back(&segment);
  }
  {
    std::uint64_t expect = cut + 1;
    for (const auto& [seq, _] : groups) {
      if (seq != expect) {
        throw Error("WAL segment " + std::to_string(expect) + " is missing from '" + dir +
                    "'; recovery cannot proceed");
      }
      ++expect;
    }
  }
  // Final segment seq per family: the only place a torn tail is legal.
  std::map<std::size_t, std::uint64_t> last_seq_of_shard;
  for (const auto& [seq, segments] : groups) {
    for (const FoundSegment* segment : segments) last_seq_of_shard[segment->id.shard] = seq;
  }

  std::uint64_t max_lsn = 0;
  bool any_records = false;
  for (const auto& [seq, segments] : groups) {
    // Read every family's records at this seq (truncating legal torn tails),
    // then merge them back into mutation order by lsn. Records broadcast to
    // every family (create/drop/clear, wave commits) share one lsn across
    // the copies: they are applied once, and a wave commit only counts as
    // durable when EVERY family of the generation holds it — the two-phase
    // barrier that keeps any one shard from being ahead of the stamp.
    std::vector<std::vector<WalRecord>> logs(segments.size());
    for (std::size_t f = 0; f < segments.size(); ++f) {
      const FoundSegment& segment = *segments[f];
      const std::string path = (std::filesystem::path(dir) / segment.name).string();
      WalReader reader(path);
      WalRecord record;
      for (;;) {
        const WalReader::Next next = reader.next(record);
        if (next == WalReader::Next::kEnd) break;
        if (next == WalReader::Next::kTornTail) {
          if (last_seq_of_shard[segment.id.shard] != seq) {
            // Only a crash mid-append can tear a record, and a family only
            // ever appends to its newest segment.
            throw Error("WAL segment '" + path +
                        "' has a torn record but is not the final segment: corruption");
          }
          std::filesystem::resize_file(path, reader.clean_bytes());
          local.truncated_torn_tail = true;
          break;
        }
        logs[f].push_back(std::move(record));
      }
      ++local.segments_replayed;
    }

    if (logs.size() == 1) {
      // Single family at this seq (unsharded dirs, and the common case of a
      // shard generation of one): file order IS mutation order.
      for (const WalRecord& record : logs[0]) {
        max_lsn = std::max(max_lsn, record.lsn);
        any_records = true;
        if (record.kind == WalRecordKind::kWaveCommit) {
          last_wave = record.wave;
        } else {
          store->replay_record(record);
        }
        ++local.records_replayed;
      }
      continue;
    }

    std::vector<std::size_t> head(logs.size(), 0);
    for (;;) {
      // Lowest lsn among the family heads; per-family order is already lsn
      // order (each family draws under its mutex), so this is a k-way merge.
      std::uint64_t min_lsn = 0;
      bool have = false;
      for (std::size_t f = 0; f < logs.size(); ++f) {
        if (head[f] >= logs[f].size()) continue;
        const std::uint64_t lsn = logs[f][head[f]].lsn;
        if (!have || lsn < min_lsn) min_lsn = lsn;
        have = true;
      }
      if (!have) break;
      const WalRecord* chosen = nullptr;
      std::size_t copies = 0;
      for (std::size_t f = 0; f < logs.size(); ++f) {
        if (head[f] >= logs[f].size() || logs[f][head[f]].lsn != min_lsn) continue;
        if (chosen == nullptr) chosen = &logs[f][head[f]];
        ++copies;
        ++head[f];
      }
      max_lsn = std::max(max_lsn, min_lsn);
      any_records = true;
      if (chosen->kind == WalRecordKind::kWaveCommit) {
        // Durable only when every family of the generation has the stamp on
        // disk; a partial broadcast (crash between the two phases) leaves
        // the wave un-durable even though some shards logged it.
        if (copies == segments.size()) last_wave = chosen->wave;
      } else {
        store->replay_record(*chosen);
      }
      ++local.records_replayed;
    }
  }

  // A crash between "checkpoint durable" and "old artifacts deleted" leaves
  // superseded files behind; finish the job now that replay is done.
  if (local.checkpoint_loaded) remove_superseded(dir, cut);

  const std::uint64_t next_seq = (groups.empty() ? cut : groups.rbegin()->first) + 1;
  auto durability = std::make_unique<Durability>();
  durability->dir = dir;
  durability->options = options;
  durability->shards = store->shards();
  durability->segment_seq = next_seq;
  durability->committed_wave = last_wave;
  // Sharded stores continue the store-global lsn sequence past everything on
  // disk; the unsharded store keeps the legacy record-count seq space via
  // first_record_seq below.
  durability->next_lsn.store(any_records ? max_lsn + 1 : 0, std::memory_order_relaxed);
  durability->open_writers(next_seq, /*first_record_seq=*/local.records_replayed);
  store->attach_durability(std::move(durability));

  local.last_durable_wave = last_wave;
  local.duration_seconds = StoreObs::seconds_since(t0);
  if (options.metrics != nullptr) {
    options.metrics->counter("sf_ds_recoveries_total", {}, "Crash recoveries performed").inc();
    options.metrics
        ->histogram("sf_ds_recovery_duration_seconds", obs::duration_buckets(), {},
                    "Recovery wall-clock duration")
        .observe(local.duration_seconds);
  }
  if (info != nullptr) *info = local;
  return store;
}

void DataStore::commit_wave(Timestamp wave) {
  if (!durability_) {
    // Non-durable stores still honor the memory ceiling at wave boundaries.
    maybe_relieve_memory();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  bool checkpoint_due = false;
  {
    LockRankScope wal_rank(kLockRankWal);
    std::vector<std::unique_lock<std::mutex>> family_locks;
    family_locks.reserve(durability_->families.size());
    for (auto& family : durability_->families) family_locks.emplace_back(family->mutex);
    if (durability_->shards == 1) {
      // Legacy single-call path: append + fsync in one step, identical log
      // and fsync cadence to the unsharded store.
      durability_->families[0]->writer->append_wave_commit(wave);
    } else {
      // Two-phase all-shards barrier. Phase 1 writes the same-lsn commit
      // record into EVERY family's file (flushed, not yet synced); phase 2
      // fsyncs each family. Recovery only honors the stamp when all families
      // hold it, so no shard's durable state can be ahead of the wave
      // boundary regardless of where a crash lands.
      const std::uint64_t lsn =
          durability_->next_lsn.fetch_add(1, std::memory_order_relaxed);
      for (auto& family : durability_->families) {
        family->writer->append_wave_commit(wave, lsn, /*sync_now=*/false);
      }
      // The families' fsyncs overlap on the helper pool. This thread still
      // holds every family mutex, so nothing else touches a writer while a
      // helper syncs it; run_all rethrows the first failure (family order)
      // only after every sync has finished, and the stamp below is skipped.
      std::vector<std::function<void()>> syncs;
      syncs.reserve(durability_->families.size());
      for (auto& family : durability_->families) {
        syncs.push_back([writer = family->writer.get()] { writer->sync(); });
      }
      helper_pool().run_all(std::move(syncs));
    }
    LockRankScope meta_rank(kLockRankDurabilityMeta);
    std::lock_guard meta(durability_->meta_mutex);
    durability_->committed_wave = wave;
    if (durability_->wave_commits != nullptr) {
      durability_->wave_commits->inc();
      durability_->wave_commit_duration->observe(StoreObs::seconds_since(t0));
    }
    if (durability_->options.checkpoint_every_waves > 0 &&
        ++durability_->waves_since_checkpoint >= durability_->options.checkpoint_every_waves) {
      checkpoint_due = true;
    }
  }
  if (obs_ && obs_->shard_imbalance != nullptr) {
    // Wave boundaries are the natural cadence for the imbalance gauge: cheap
    // (reads N counters once per wave) and aligned with how operators reason
    // about the workload.
    std::uint64_t total = 0;
    std::uint64_t max_ops = 0;
    for (const obs::Counter* counter : obs_->shard_ops) {
      const std::uint64_t v = counter->value();
      total += v;
      max_ops = std::max(max_ops, v);
    }
    if (total > 0) {
      const double mean =
          static_cast<double>(total) / static_cast<double>(obs_->shard_ops.size());
      obs_->shard_imbalance->set(static_cast<double>(max_ops) / mean);
    }
  }
  if (checkpoint_due) checkpoint();
  maybe_relieve_memory();
}

void DataStore::set_memory_options(MemoryOptions options) {
  SF_CHECK(options.trim_keep_versions >= 1 || !options.enabled(),
           "trim_keep_versions must be >= 1");
  memory_options_ = options;
  if (!options.enabled()) {
    memory_pressure_.store(false, std::memory_order_relaxed);
    if (obs_) obs_->memory_pressure->set(0.0);
  }
}

std::size_t DataStore::approx_memory_bytes() const {
  const auto snap = tables_snapshot();
  std::size_t total = 0;
  LockRankScope table_rank(kLockRankTable);
  for (const auto& [name, entry] : *snap) {
    for (const auto& slot : entry->slots) {
      std::shared_lock lock(slot->mutex);
      total += slot->table.approx_bytes();
    }
  }
  return total;
}

std::size_t DataStore::trim_superseded(std::size_t keep_versions) {
  const auto snap = tables_snapshot();
  std::size_t dropped = 0;
  LockRankScope table_rank(kLockRankTable);
  for (const auto& [name, entry] : *snap) {
    for (const auto& slot : entry->slots) {
      std::unique_lock lock(slot->mutex);
      dropped += slot->table.trim_versions(keep_versions);
    }
  }
  return dropped;
}

MemoryStats DataStore::memory_stats() const {
  std::lock_guard lock(memory_mutex_);
  return memory_stats_;
}

void DataStore::maybe_relieve_memory() {
  if (!memory_options_.enabled()) return;
  const std::size_t bytes = approx_memory_bytes();
  {
    std::lock_guard lock(memory_mutex_);
    memory_stats_.tracked_bytes = bytes;
    memory_stats_.peak_tracked_bytes = std::max(memory_stats_.peak_tracked_bytes, bytes);
  }
  if (obs_) obs_->tracked_bytes->set(static_cast<double>(bytes));
  if (bytes <= memory_options_.soft_limit_bytes) {
    memory_pressure_.store(false, std::memory_order_relaxed);
    if (obs_) obs_->memory_pressure->set(0.0);
    return;
  }
  const bool entering = !memory_pressure_.exchange(true, std::memory_order_relaxed);
  if (obs_) obs_->memory_pressure->set(1.0);
  if (entering) {
    {
      std::lock_guard lock(memory_mutex_);
      ++memory_stats_.pressure_events;
    }
    if (obs_) obs_->pressure_events->inc();
    SF_LOG_WARN("ds") << "memory pressure: tracked " << bytes << " bytes > soft limit "
                      << memory_options_.soft_limit_bytes;
    // Checkpoint only on the transition — it is the expensive half of the
    // relief, and repeating it every pressured wave would thrash the disk.
    if (memory_options_.checkpoint_on_pressure && durability_ != nullptr) checkpoint();
  }
  // Trimming is cheap (a linear nver sweep, no allocation), so do it on
  // every pressured wave: newly superseded versions keep being dropped.
  const std::size_t dropped = trim_superseded(memory_options_.trim_keep_versions);
  if (dropped > 0) {
    std::lock_guard lock(memory_mutex_);
    memory_stats_.versions_trimmed += dropped;
  }
  if (obs_ && dropped > 0) obs_->versions_trimmed->inc(dropped);
}

void DataStore::checkpoint() {
  if (durability_ == nullptr) {
    throw StateError("DataStore::checkpoint requires durability (enable_durability/recover)");
  }
  const auto t0 = std::chrono::steady_clock::now();
  CheckpointImage image;
  image.max_versions = max_versions_;
  std::uint64_t cut = 0;
  {
    // Full lock-rank sweep: registry -> every slot (shared) -> every WAL
    // family -> meta, each level in index order — the same global order
    // writers use, so this cannot deadlock. With all writers blocked, no
    // record can land between the cut and the capture: the image contains
    // exactly the effects of segments <= cut, across every family.
    LockRankScope registry_rank(kLockRankRegistry);
    std::lock_guard registry_lock(registry_mutex_);
    const auto snap = tables_snapshot();
    LockRankScope table_rank(kLockRankTable);
    std::vector<std::shared_lock<std::shared_mutex>> table_locks;
    for (const auto& [name, entry] : *snap) {
      for (const auto& slot : entry->slots) table_locks.emplace_back(slot->mutex);
    }
    LockRankScope wal_rank(kLockRankWal);
    std::vector<std::unique_lock<std::mutex>> family_locks;
    family_locks.reserve(durability_->families.size());
    for (auto& family : durability_->families) family_locks.emplace_back(family->mutex);
    LockRankScope meta_rank(kLockRankDurabilityMeta);
    std::lock_guard meta(durability_->meta_mutex);

    cut = durability_->segment_seq;
    for (std::size_t shard = 0; shard < durability_->families.size(); ++shard) {
      auto& family = *durability_->families[shard];
      const std::uint64_t next_record_seq = family.writer->record_seq();
      family.writer.reset();  // flushes; closing this family's segment at the cut
      family.writer = std::make_unique<WalWriter>(
          durability_->segment_path(shard, cut + 1), durability_->options.flush,
          durability_->options.fault_injector, next_record_seq, durability_->lsn_source(),
          durability_->fault_tag(shard));
      if (family.obs.records != nullptr) family.writer->set_obs(&family.obs);
    }
    durability_->segment_seq = cut + 1;
    image.wal_cut_segment = cut;
    image.has_committed_wave = durability_->committed_wave.has_value();
    image.last_committed_wave = durability_->committed_wave.value_or(0);
    durability_->waves_since_checkpoint = 0;

    image.tables.reserve(snap->size());
    for (const auto& [name, entry] : *snap) {
      CheckpointTable table;
      table.name = name;
      for (const auto& slot : entry->slots) {
        table.cells.reserve(table.cells.size() + slot->table.cell_count());
        slot->table.scan_cells([&](const Table::CellView& cv) {
          CheckpointTable::Cell cell;
          cell.row = *cv.row;
          cell.column = *cv.col;
          cell.versions = slot->table.versions(*cv.row, *cv.col);
          table.cells.push_back(std::move(cell));
        });
      }
      image.tables.push_back(std::move(table));
    }
  }
  // The file write happens outside every lock; a crash before the rename
  // leaves the old checkpoint + all segments, which recovery handles.
  write_checkpoint_file(durability_->checkpoint_path(cut), image);
  remove_superseded(durability_->dir, cut);
  if (durability_->checkpoints != nullptr) {
    durability_->checkpoints->inc();
    durability_->checkpoint_duration->observe(StoreObs::seconds_since(t0));
  }
}

void DataStore::sync_wal() {
  if (!durability_) return;
  LockRankScope wal_rank(kLockRankWal);
  for (auto& family : durability_->families) {
    std::lock_guard lock(family->mutex);
    family->writer->sync();
  }
}

std::optional<Timestamp> DataStore::last_committed_wave() const {
  if (!durability_) return std::nullopt;
  LockRankScope meta_rank(kLockRankDurabilityMeta);
  std::lock_guard meta(durability_->meta_mutex);
  return durability_->committed_wave;
}

std::string DataStore::data_dir() const { return durability_ ? durability_->dir : std::string(); }

std::size_t DataStore::subscribe(MutationObserver observer) {
  SF_CHECK(static_cast<bool>(observer), "observer must be callable");
  std::lock_guard lock(observers_mutex_);
  const std::size_t token = next_token_++;
  auto next = std::make_shared<ObserverList>(*observers_.load(std::memory_order_acquire));
  next->emplace_back(token, std::move(observer));
  const std::size_t count = next->size();
  observers_.store(std::shared_ptr<const ObserverList>(std::move(next)),
                   std::memory_order_release);
  observer_count_.store(count, std::memory_order_release);
  return token;
}

void DataStore::unsubscribe(std::size_t token) {
  std::lock_guard lock(observers_mutex_);
  auto next = std::make_shared<ObserverList>(*observers_.load(std::memory_order_acquire));
  std::erase_if(*next, [token](const auto& p) { return p.first == token; });
  const std::size_t count = next->size();
  observers_.store(std::shared_ptr<const ObserverList>(std::move(next)),
                   std::memory_order_release);
  observer_count_.store(count, std::memory_order_release);
}

}  // namespace smartflux::ds
