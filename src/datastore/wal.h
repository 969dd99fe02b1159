#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/fsync.h"
#include "datastore/durability.h"
#include "datastore/types.h"

namespace smartflux::obs {
class Counter;
class Histogram;
}  // namespace smartflux::obs

namespace smartflux::ds {

/// On-disk record framing (all integers little-endian):
///
///   [u32 payload_len][u32 crc32c(payload)][payload]
///   payload = [u8 kind][u64 lsn][kind-specific fields]
///
/// The lsn is a store-global log sequence number: every shard's WAL family
/// draws lsns from one shared counter, so recovery can merge the interleaved
/// per-shard segments back into the single total order the mutations were
/// applied in. Records broadcast to every family
/// (create/drop/clear, wave commits) carry the SAME lsn in each copy, which
/// is how replay deduplicates them and how a wave commit's "present in all
/// shards" barrier is checked.
///
/// Strings are [u32 len][bytes]. A `put_batch` is ONE record holding every
/// cell of the batch, so it replays atomically: either the whole batch made
/// it to disk or none of it did. Recovery scans records in order; a partial
/// *final* record (crash mid-append) is truncated and tolerated, a checksum
/// mismatch anywhere *before* the end of the file is corruption and a hard
/// error.
enum class WalRecordKind : std::uint8_t {
  kPut = 1,
  kPutBatch = 2,
  kErase = 3,
  kCreateTable = 4,
  kDropTable = 5,
  kClear = 6,
  kWaveCommit = 7,
};

/// Sanity cap on one record's payload: anything larger is treated as
/// corruption, not an allocation request.
constexpr std::uint32_t kWalMaxPayloadBytes = 1u << 30;

/// One decoded WAL record (reader side). Only the fields relevant to `kind`
/// are meaningful.
struct WalRecord {
  WalRecordKind kind = WalRecordKind::kPut;
  std::uint64_t lsn = 0;  ///< store-global log sequence number
  std::string table;
  std::string row;
  std::string column;
  Timestamp ts = 0;      ///< kPut / kPutBatch / kErase
  double value = 0.0;    ///< kPut
  Timestamp wave = 0;    ///< kWaveCommit
  struct BatchOp {
    std::string row;
    std::string column;
    double value = 0.0;
  };
  std::vector<BatchOp> batch;  ///< kPutBatch
};

/// WAL family naming: "wal-s3-000042.sflog" = shard 3, segment 42. Segment
/// numbers start at 1 and only grow; rotation happens at checkpoints. Every
/// store writes this name, one family per shard, at any shard count.
std::string sharded_wal_segment_name(std::size_t shard, std::uint64_t seq);
/// (shard, segment) of a WAL file name. The unsharded "wal-000042.sflog"
/// name of older builds still parses, as shard 0, so their data dirs
/// recover (into any shard count — routing is recomputed from the replayed
/// row keys); nothing writes that name any more.
struct WalSegmentId {
  std::size_t shard = 0;
  std::uint64_t seq = 0;
};
std::optional<WalSegmentId> parse_any_wal_segment_name(std::string_view name);
/// "checkpoint-000042.sfck" <-> 42 (the highest segment the checkpoint
/// covers).
std::string checkpoint_file_name(std::uint64_t cut_seq);
std::optional<std::uint64_t> parse_checkpoint_file_name(std::string_view name);

/// Pre-resolved WAL metric handles (owned by the DataStore's Durability).
/// Each family carries its own copy: records/bytes/syncs point at the
/// shared store-wide series, shard_bytes (when set) at the family's own
/// sf_ds_wal_shard_bytes_total{shard=...} series.
struct WalObs {
  obs::Counter* records = nullptr;
  obs::Counter* bytes = nullptr;
  obs::Counter* syncs = nullptr;
  obs::Counter* shard_bytes = nullptr;  ///< per-shard bytes, stores with > 1 shard only
  obs::Histogram* fsync_duration = nullptr;
};

/// Append side of the write-ahead log: one open segment file, records framed
/// as above, fsync cadence governed by WalFlushPolicy. Thread-compatible —
/// the owning DataStore serializes appends under its WAL mutex.
///
/// Fault injection: when a FaultInjector is attached, every append consults
/// the disk-fault schedule (tag = `fault_tag`, "wal-s<k>" for a store's
/// family k; seq = the record's lsn) and every fsync consults the fsync
/// schedule. A fired fault leaves the file exactly as a crash would
/// (nothing, a torn prefix, or everything but the last byte), marks the
/// writer broken, and throws InjectedFault; every later operation on a
/// broken writer throws Error.
///
/// Lsn allocation: put/batch/erase records draw their lsn from `lsn_source`
/// (the owning store's global counter, shared by every family) — the caller
/// must hold the family mutex across the append so per-family lsns are
/// monotone. Broadcast records (create/drop/clear, wave commits) take an
/// explicit pre-drawn lsn instead so every family logs the same one.
class WalWriter {
 public:
  WalWriter(std::string path, WalFlushPolicy policy, FaultInjector* injector,
            std::atomic<std::uint64_t>& lsn_source, std::string fault_tag);
  ~WalWriter();  ///< best-effort flush, no sync (durability points are explicit)

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  void append_put(std::string_view table, std::string_view row, std::string_view column,
                  Timestamp ts, double value);
  void append_batch(std::string_view table, Timestamp ts, std::span<const PutOp> ops);
  void append_erase(std::string_view table, std::string_view row, std::string_view column,
                    Timestamp ts);
  void append_create_table(std::string_view table, std::uint64_t lsn);
  void append_drop_table(std::string_view table, std::uint64_t lsn);
  void append_clear(std::uint64_t lsn);
  /// Writes the commit record and flushes it to the OS, regardless of
  /// policy, without an fsync: phase 1 of the store's two-phase wave commit.
  /// The store then fsyncs every family via sync() (phase 2), so no shard's
  /// stamp reaches stable storage before every shard has it in its file.
  void append_wave_commit(Timestamp wave, std::uint64_t lsn);

  /// Pushes buffered bytes to the OS (no fsync).
  void flush();
  /// flush + fsync.
  void sync();

  const std::string& path() const noexcept { return path_; }
  /// Records appended through this writer.
  std::uint64_t record_seq() const noexcept { return record_seq_; }
  std::uint64_t bytes_appended() const noexcept { return bytes_appended_; }
  std::uint64_t sync_count() const noexcept { return sync_seq_; }
  bool broken() const noexcept { return broken_; }

  void set_obs(const WalObs* obs) noexcept { obs_ = obs; }

 private:
  /// Records are encoded in place: begin_record() checks the writer is
  /// usable, reserves the frame header at the end of pending_ and returns
  /// the record's offset; the caller appends the payload to pending_; then
  /// end_record() fills in the header, applies the fault schedule (keyed by
  /// `lsn`) and the flush policy. `sync_class`: 0 = ride along, 1 = policy
  /// batch boundary, 2 = forced flush without sync (wave commit phase 1).
  std::size_t begin_record();
  void end_record(std::size_t start, int sync_class, std::uint64_t lsn);
  void check_usable() const;

  std::string path_;
  SyncFile file_;
  WalFlushPolicy policy_;
  FaultInjector* injector_;
  std::atomic<std::uint64_t>& lsn_source_;
  std::string fault_tag_;
  /// Framed bytes not yet written to the OS. Records are encoded straight
  /// into it and it keeps its capacity across flushes, so a steady-state
  /// append allocates nothing.
  std::string pending_;
  std::uint64_t record_seq_ = 0;
  std::uint64_t sync_seq_ = 0;
  std::uint64_t bytes_appended_ = 0;
  bool broken_ = false;
  const WalObs* obs_ = nullptr;
};

/// Sequential reader over one WAL segment (loads the file into memory —
/// segments are bounded by checkpoint rotation).
class WalReader {
 public:
  explicit WalReader(const std::string& path);

  enum class Next : std::uint8_t {
    kRecord,    ///< `out` holds the next record
    kEnd,       ///< clean end of log
    kTornTail,  ///< partial/corrupt final record: stop, truncate at clean_bytes()
  };

  /// Advances to the next record. Throws Error on mid-log corruption (a
  /// record that fails its checksum or length sanity with more bytes
  /// following it).
  Next next(WalRecord& out);

  /// Byte offset of the end of the last cleanly read record — the truncation
  /// point when the tail is torn.
  std::uint64_t clean_bytes() const noexcept { return clean_bytes_; }
  std::uint64_t file_bytes() const noexcept { return data_.size(); }
  std::uint64_t records_read() const noexcept { return records_read_; }

 private:
  std::string path_;
  std::string data_;
  std::uint64_t pos_ = 0;
  std::uint64_t clean_bytes_ = 0;
  std::uint64_t records_read_ = 0;
  bool done_ = false;
};

}  // namespace smartflux::ds
