// Copyright (c) GRNN authors.
// Wal: write-ahead log for the stored KNN files.
//
// The live-update path (core::RknnEngine::ApplyUpdate) used to mutate
// stored files through the buffer pool with no durability story: a crash
// lost every acknowledged update since open. The WAL closes that hole
// with the classic redo protocol:
//
//   1. every update appends ONE self-contained record (its logical op
//      plus every list image it wrote) to the log — buffered in memory;
//   2. the update is acknowledged only after Flush() made the record
//      durable (group flush: one Sync covers every record appended
//      since the last flush, across all stores sharing the log);
//   3. the buffer pool never writes a dirty data page to disk before
//      flushing the WAL (BufferPool::AttachWal — the log-before-page
//      discipline), so on-disk data pages only ever contain logged
//      state;
//   4. on reopen, records with lsn greater than the page's stamped LSN
//      are replayed (KnnFile::ReplayBatch); the comparison makes redo
//      idempotent — recovering twice equals recovering once.
//
// On-disk layout (the log lives on its OWN DiskManager, so the
// fault-injection harness can enumerate and tear its writes like any
// other device):
//
//   page 0   WalHeader {magic, version, start_lsn}. Rewritten (and
//            synced) by Checkpoint(), which logically empties the log:
//            records with lsn < start_lsn are dead, and new appends
//            overwrite the record region from its start.
//   page 1+  record stream, packed back to back across page
//            boundaries: WalRecordHeader (24 bytes, CRC over header
//            tail + payload) followed by the payload. A zeroed header,
//            a CRC mismatch, a non-consecutive lsn or a truncated
//            payload all mark the end of the log — Open keeps the
//            valid prefix and positions appends after it
//            (truncate-and-continue), which is exactly what a torn
//            tail write must degrade to.
//
// Thread safety: all methods serialize on one internal mutex, so
// concurrent engine updates (different domains) may append and flush
// through one log; lsn order == append order, and Flush makes every
// record appended before it durable (an acknowledged update can never
// be preceded by an unflushed one).

#ifndef GRNN_STORAGE_WAL_H_
#define GRNN_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/disk_manager.h"

namespace grnn::storage {

class BufferPool;

inline constexpr uint32_t kWalFileMagic = 0x4752574cu;  // "GRWL"
inline constexpr uint32_t kWalFileVersion = 1;

/// First bytes of page 0.
struct WalHeader {
  uint32_t magic = 0;    // kWalFileMagic
  uint32_t version = 0;  // kWalFileVersion
  /// Records with lsn below this are dead (pre-checkpoint); the record
  /// region is scanned from its start and a valid-looking record with
  /// an lsn below start_lsn is a pre-checkpoint leftover = end of log.
  uint64_t start_lsn = 1;
};
static_assert(sizeof(WalHeader) == 16);

/// On-disk framing of one record. The CRC covers bytes [4, 24) of the
/// header plus the payload, so any torn or bit-rotted tail fails
/// verification and recovery truncates there.
struct WalRecordHeader {
  uint32_t crc = 0;
  uint32_t payload_len = 0;
  uint64_t lsn = 0;
  uint16_t type = 0;
  uint16_t flags = 0;
  uint32_t store_id = 0;
};
static_assert(sizeof(WalRecordHeader) == 24);
inline constexpr size_t kWalRecordHeaderBytes = sizeof(WalRecordHeader);

/// Record types understood by the recovery driver (core/durability.h).
/// Type 2 journaled hub-label rewrites and must not be reused: a log
/// holding one fails recovery like any unknown type.
enum class WalRecordType : uint16_t {
  kUpdate = 1,  // one engine update: logical op + KNN list images
};

/// One decoded record, as returned by Open's scan.
struct WalRecord {
  uint64_t lsn = 0;
  uint16_t type = 0;
  uint32_t store_id = 0;
  std::vector<uint8_t> payload;
};

/// Counters for the WAL's own activity (surfaced per update through
/// core::UpdateStats and by perfbench's durable-mixed workload).
struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;  // payload + framing
  uint64_t flushes = 0;         // Flush calls that performed I/O
  uint64_t pages_written = 0;   // page writes issued by flushes
  uint64_t syncs = 0;
  uint64_t checkpoints = 0;
};

/// \brief Append-only redo log over a dedicated DiskManager.
class Wal {
 public:
  /// Formats a fresh log: requires an EMPTY disk (the log owns its
  /// device), allocates and syncs the header page.
  static Result<Wal> Create(DiskManager* disk);

  /// Reopens an existing log: validates the header, scans the record
  /// region for the longest valid prefix (see the layout notes above),
  /// and positions appends after it. A corrupt or torn tail is
  /// truncated, never an error; `tail_truncated()` reports whether one
  /// was found.
  static Result<Wal> Open(DiskManager* disk);

  Wal(Wal&&) = default;
  Wal& operator=(Wal&&) = default;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Buffers one record and assigns its lsn. Nothing is durable until
  /// Flush.
  Result<uint64_t> Append(WalRecordType type, uint32_t store_id,
                          std::span<const uint8_t> payload);

  /// Group flush: writes every buffered byte (allocating log pages as
  /// needed) and syncs the device. Returns true when I/O happened,
  /// false when everything appended was already durable.
  Result<bool> Flush();

  /// Logically empties the log after a clean checkpoint. The CALLER
  /// must first make the data files durable (flush the buffer pool and
  /// sync the data disk — see CheckpointThrough); this then bumps
  /// start_lsn past every assigned lsn, rewrites and syncs the header,
  /// and resets the append position to the start of the record region.
  /// Crash-safe at every point: until the new header is durable,
  /// recovery replays the old records — a no-op against the already
  /// durable pages (page-LSN redo filter).
  Status Checkpoint();

  /// Next lsn Append will assign.
  uint64_t next_lsn() const;
  /// Highest lsn made durable by Flush (0 = none).
  uint64_t durable_lsn() const;
  /// Live bytes in the record region (durable tail + buffered appends).
  /// Checkpoint resets it to zero; checkpoint policies (see
  /// core::DurableKnnStore) compare it against their threshold.
  uint64_t log_bytes() const;
  /// Records recovered by Open, in lsn order (empty after Create).
  const std::vector<WalRecord>& recovered() const { return recovered_; }
  /// True when Open found (and truncated) a corrupt tail.
  bool tail_truncated() const { return tail_truncated_; }
  WalStats stats() const;
  DiskManager* disk() const { return disk_; }

 private:
  explicit Wal(DiskManager* disk)
      : disk_(disk), mu_(std::make_unique<std::mutex>()) {}

  /// Ensures the record region holds at least `pages` pages.
  Status EnsureLogPages(size_t pages);

  DiskManager* disk_ = nullptr;
  /// Behind a pointer so the log stays movable (Result<Wal>).
  std::unique_ptr<std::mutex> mu_;
  uint64_t start_lsn_ = 1;
  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  /// Byte offset of the durable tail within the record region.
  uint64_t tail_off_ = 0;
  /// Full image of the page containing tail_off_ (so partial-page
  /// flushes never read the device back).
  std::vector<uint8_t> tail_page_;
  /// Appended-but-unflushed bytes.
  std::vector<uint8_t> pending_;
  std::vector<WalRecord> recovered_;
  bool tail_truncated_ = false;
  WalStats stats_;
};

/// CRC-32C (Castagnoli), bit-reflected, init/xorout 0xffffffff — the
/// record checksum. Exposed for tests that hand-corrupt log bytes.
uint32_t WalCrc32(const uint8_t* data, size_t len, uint32_t seed = 0);

/// The clean-checkpoint sequence: flush every dirty page of `pool`,
/// sync the data device, then reset `wal`. After it returns, recovery
/// from this state replays nothing.
Status CheckpointThrough(BufferPool& pool, Wal& wal);

}  // namespace grnn::storage

#endif  // GRNN_STORAGE_WAL_H_
