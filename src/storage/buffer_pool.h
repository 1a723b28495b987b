// Copyright (c) GRNN authors.
// BufferPool: fixed-capacity page cache with pluggable replacement policy
// and an optionally sharded pin/latch table.
//
// Reproduces the evaluation environment of the paper (Section 6): a 4 KB
// page store behind an LRU buffer of configurable size (default 1 MB = 256
// pages; Fig 21 sweeps 0..1024 pages). All query-time I/O flows through
// here so SearchStats can report the paper's page-access metric.
//
// Sharding (PR 3): with `num_shards` > 1 the frames, the page table, the
// replacement clock and the I/O counters are partitioned N-way by page id
// (shard = page % N). Pin/unpin/hit bookkeeping then only contends on the
// page's shard mutex, so concurrent query threads and the engine's live
// update path stop serializing on one pool-wide lock. The default of one
// shard preserves the paper's *global* LRU/FIFO order exactly, which the
// figure benches (fault counts) and the replacement-policy tests rely on;
// concurrent serving paths pass kDefaultConcurrentShards.
//
// Pins are short: every reader in the library (adjacency, label, KNN
// and point scans) copies what it needs out of the frame and unpins
// before its call returns, so num_pinned() is zero whenever no call is
// in flight.

#ifndef GRNN_STORAGE_BUFFER_POOL_H_
#define GRNN_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/disk_manager.h"
#include "storage/io_stats.h"

namespace grnn::storage {

enum class ReplacementPolicy {
  kLru,   // evict least-recently-used (paper default)
  kFifo,  // evict oldest-loaded (ablation)
};

/// Shard count used by the concurrent serving paths (mixed read/write
/// engines, the concurrency stress suites). 8 keeps the per-shard frame
/// count useful at the paper's default 256-page capacity while cutting
/// pin-table contention by an order of magnitude.
inline constexpr size_t kDefaultConcurrentShards = 8;

/// Frames per shard a concurrently served stored-graph pool is sized
/// to: perfbench's stored-expand workload divides its pool into shards
/// of this many frames. The library itself reads no such budget — no
/// scan holds a pin past its call, so any non-empty shard serves.
inline constexpr size_t kMinFramesPerShardForLease = 32;

class BufferPool;
class Wal;

/// \brief RAII pin on a page resident in the buffer pool.
///
/// The referenced bytes stay valid until the guard is destroyed or
/// released. Acquiring a page through a zero-capacity pool hands out a
/// private copy (every access is a fault), which models the paper's
/// "buffer size = 0" configuration.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return data_ != nullptr; }
  PageId page_id() const { return page_id_; }

  /// Read-only view of the page bytes.
  const uint8_t* data() const { return data_; }

  /// Mutable view; marks the page dirty so it is written back on eviction
  /// or flush.
  uint8_t* mutable_data();

  /// Drops the pin early.
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, size_t shard, size_t frame, PageId page_id,
            uint8_t* data, std::unique_ptr<uint8_t[]> owned)
      : pool_(pool),
        shard_(shard),
        frame_(frame),
        page_id_(page_id),
        data_(data),
        owned_(std::move(owned)) {}

  BufferPool* pool_ = nullptr;
  size_t shard_ = 0;
  size_t frame_ = SIZE_MAX;  // SIZE_MAX when the guard owns its buffer
  PageId page_id_ = kInvalidPage;
  uint8_t* data_ = nullptr;
  std::unique_ptr<uint8_t[]> owned_;
  // In zero-capacity (unbuffered) mode there is no frame to mark dirty, so
  // the guard itself remembers whether to write through on release.
  bool dirty_passthrough_ = false;
};

/// \brief Page cache in front of a DiskManager.
///
/// Thread-safe for concurrent callers: Acquire / guard release / stats
/// serialize on the *page's shard* mutex (pin bookkeeping, eviction and
/// the disk fault all happen under it), so parallel query threads and the
/// engine's update path may share a pool — see DESIGN.md, "Concurrency
/// model". Two accesses of the same page always hit the same shard, so
/// same-page disk reads/write-backs never race; page-disjoint disk calls
/// may now run concurrently, which the DiskManager contract permits.
/// The bytes of a pinned page are only safe to read concurrently; callers
/// that *write* pages (PageGuard::mutable_data, the KnnStore update path)
/// need external synchronization against readers of the same byte ranges
/// (the engine's per-domain reader-writer locks provide it).
class BufferPool {
 public:
  /// \param disk backing store; must outlive the pool.
  /// \param capacity_pages number of frames; 0 disables caching entirely
  ///        (every acquire is a physical read, Fig 21's leftmost point).
  /// \param num_shards pin-table shards (clamped to [1, capacity_pages]
  ///        when capacity > 0, to 1 when unbuffered). 1 reproduces the
  ///        paper's single global replacement order; the frame budget is
  ///        split as evenly as possible across shards otherwise, and a
  ///        shard evicts / reports ResourceExhausted using only its own
  ///        frames.
  BufferPool(DiskManager* disk, size_t capacity_pages,
             ReplacementPolicy policy = ReplacementPolicy::kLru,
             size_t num_shards = 1);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// Pins page `id` and returns a guard over its bytes. Transient pin
  /// contention on the page's shard is absorbed by a bounded internal
  /// retry; ResourceExhausted only surfaces when the shard's frames
  /// stay pinned across the whole retry window (with one shard: the
  /// whole pool is genuinely pinned down).
  Result<PageGuard> Acquire(PageId id);

  /// Writes back all dirty resident pages.
  Status FlushAll();

  /// Drops every unpinned page (dirty ones are written back first). Useful
  /// for resetting cache state between benchmark runs.
  Status Invalidate();

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  size_t num_resident() const;
  size_t num_pinned() const;
  /// Snapshot of the I/O counters, summed over every shard (by value: the
  /// counters move under concurrent readers). The sum is exact for any
  /// quiescent moment; under concurrent traffic each shard is snapshotted
  /// atomically but the shards are visited in sequence.
  IoStats stats() const;
  /// One shard's counters (shard < num_shards()); the telemetry
  /// collector exports these as pool.shard<N>.* so skew across the
  /// page-id hash is visible.
  IoStats shard_stats(size_t shard) const;
  void ResetStats();
  DiskManager* disk() const { return disk_; }

  /// \brief Enforces the log-before-page-write discipline (PR 7): once
  /// a WAL is attached, every physical write of a dirty page — evicting
  /// in Acquire, FlushAll, Invalidate — first flushes the WAL, so a
  /// data page on disk can never be ahead of the durable log. The
  /// journaled stores only dirty pages AFTER appending the covering
  /// record (core::DurableKnnStore buffers its writes until commit), so
  /// flush-everything is exactly the needed barrier; by commit time the
  /// record is usually already durable and the flush is a no-op.
  ///
  /// Call before serving starts (not concurrency-safe against inflight
  /// Acquires); the WAL must live on a DIFFERENT DiskManager and must
  /// outlive the pool. Unsupported on unbuffered (capacity 0) pools:
  /// they write through on guard release, which would need the page's
  /// covering record flushed mid-update — serve durable stores from a
  /// buffered pool.
  void AttachWal(Wal* wal);
  Wal* wal() const { return wal_; }

 private:
  friend class PageGuard;

  struct Frame {
    PageId page = kInvalidPage;
    uint32_t pins = 0;
    bool dirty = false;
    uint64_t tick = 0;  // LRU: last touch; FIFO: load time
    std::unique_ptr<uint8_t[]> data;
  };

  /// One pin-table partition: everything an Acquire touches for pages
  /// mapping here, guarded by its own mutex.
  struct Shard {
    mutable std::mutex mu;
    std::vector<Frame> frames;
    std::unordered_map<PageId, size_t> page_table;
    uint64_t tick = 0;
    IoStats stats;
  };

  size_t ShardOf(PageId id) const { return id % shards_.size(); }

  void Unpin(size_t shard, size_t frame, bool dirty);
  void MarkDirty(size_t shard, size_t frame);
  void CountPassthroughWrite(PageId page, const uint8_t* data);
  /// Victim frame within `shard` (caller holds the shard mutex).
  Result<size_t> FindVictim(Shard& shard);

  /// Flushes the attached WAL (if any) ahead of a dirty page write.
  Status FlushWalBeforePageWrite();

  DiskManager* disk_;
  size_t capacity_;
  ReplacementPolicy policy_;
  Wal* wal_ = nullptr;
  /// Stable addresses: shards never move after construction.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace grnn::storage

#endif  // GRNN_STORAGE_BUFFER_POOL_H_
