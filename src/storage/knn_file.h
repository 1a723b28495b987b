// Copyright (c) GRNN authors.
// KnnFile: materialized k-nearest-neighbor lists for every node
// (paper Section 4.1). Storage overhead is O(K * |V|), the alternative the
// paper proposes to infeasible full distance materialization.
//
// On-disk layout (v2, PR 7 — self-describing and recoverable):
//
//   header page   KnnFileHeader (magic, num_nodes, k, perm/data page
//                 counts), rest zero. Written once at Create; Open reads
//                 it back, so a file survives the process.
//   perm pages    packed uint32 slot-of-node permutation (present only
//                 when Create was given one), page_size/4 ids per page.
//   data pages    a 16-byte KnnPageHeader followed by fixed slots of K
//                 entries of (point: uint32, dist: double) = 12 bytes.
//                 Slots never straddle a page when K entries fit behind
//                 the header; unused entries hold kInvalidPoint.
//
// The page header's spare 8 bytes carry the page LSN — the WAL lsn of
// the newest update applied to the page. WriteBatch() stamps it;
// redo-on-open (ReplayBatch) re-applies a logged record only to pages
// whose LSN is older than the record's, which makes recovery
// idempotent. The filter is sound only if content and stamp move
// together per (record, page): a record that rewrites several lists on
// ONE page must apply them all before the page can carry its lsn —
// hence the batch entry points, which pin each touched page once and
// write every one of the record's chunks for it under that single
// pin. The struct below is static_assert-pinned so future header
// fields cannot silently collide with the LSN placement.
//
// Reads and writes go through the buffer pool so that eager-M's
// materialization I/O and the Fig 22 update costs are measured.
//
// Concurrency (requires a BUFFERED pool, capacity > 0): slots are
// byte-disjoint, so concurrent Read/Write calls for *different* nodes
// are safe even when the slots share a page (each call pins the shared
// frame and touches only its own byte range; the buffer pool serializes
// the pin bookkeeping). The page-header LSN stamp is the exception: it
// is bytes shared by every slot writer of the page, so WriteBatch must
// be externally serialized against other writers of its pages — the
// engine's per-domain exclusive update locks provide exactly that.
// Read and Write of the *same* node race and need external
// synchronization too. A zero-capacity pool hands every Acquire a
// private page copy and writes the WHOLE page back on release, so
// concurrent same-page writers would clobber each other's slots there:
// serialize all access to an unbuffered pool externally.

#ifndef GRNN_STORAGE_KNN_FILE_H_
#define GRNN_STORAGE_KNN_FILE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace grnn::storage {

/// One materialized entry: the i-th NN of a node and its network distance.
struct NnEntry {
  PointId point = kInvalidPoint;
  Weight dist = kInfinity;

  friend bool operator==(const NnEntry&, const NnEntry&) = default;
};

/// One full list image keyed by its node — the unit the journaled
/// update path buffers, logs, and replays (a WAL record carries one or
/// more of these).
struct NodeListImage {
  NodeId node = kInvalidNode;
  std::vector<NnEntry> entries;
};

inline constexpr size_t kNnEntryBytes = sizeof(uint32_t) + sizeof(double);

inline constexpr uint32_t kKnnFileMagic = 0x47524b31u;  // "GRK1"
inline constexpr uint32_t kKnnPageMagic = 0x47524b32u;  // "GRK2"
inline constexpr uint32_t kKnnFileVersion = 2;

/// First bytes of the header page.
struct KnnFileHeader {
  uint32_t magic = 0;    // kKnnFileMagic
  uint32_t version = 0;  // kKnnFileVersion
  uint32_t num_nodes = 0;
  uint32_t k = 0;
  uint32_t perm_pages = 0;  // 0 = identity slot mapping
  uint32_t reserved = 0;
  uint64_t data_pages = 0;
};
static_assert(sizeof(KnnFileHeader) == 32);

/// Header at the start of every data page. The LSN occupies the spare
/// 8 bytes at offset 8 — pinned here so LSN stamping (WriteBatch/redo) and
/// any future header field can never silently collide.
struct KnnPageHeader {
  uint32_t magic = 0;     // kKnnPageMagic
  uint32_t reserved = 0;  // future use; zero on disk
  uint64_t lsn = 0;       // WAL lsn of the newest applied update
};
static_assert(sizeof(KnnPageHeader) == 16,
              "slot offsets are computed behind a 16-byte page header");
static_assert(offsetof(KnnPageHeader, lsn) == 8,
              "the page LSN lives in the header's spare bytes [8, 16)");
inline constexpr size_t kKnnPageHeaderBytes = sizeof(KnnPageHeader);

/// \brief Fixed-K per-node NN list file.
class KnnFile {
 public:
  /// Allocates and formats slots for `num_nodes` nodes with capacity `k`.
  /// All slots start empty. `slot_of_node` optionally permutes nodes to
  /// slots (e.g. the BFS order used for the adjacency file), so that
  /// spatially close nodes share KNN pages -- without it, an expansion
  /// around a query faults one page per list it reads. The formatting
  /// writes go straight to the disk manager (construction is offline);
  /// sync the device afterwards if the file must survive a crash before
  /// its first checkpoint.
  static Result<KnnFile> Create(
      DiskManager* disk, NodeId num_nodes, uint32_t k,
      const std::vector<NodeId>* slot_of_node = nullptr);

  /// Reopens a file previously written by Create: reads the header and
  /// permutation pages back. `first_page` is the header page id Create
  /// reported through first_page().
  static Result<KnnFile> Open(DiskManager* disk, PageId first_page);

  uint32_t k() const { return k_; }
  NodeId num_nodes() const { return num_nodes_; }
  /// Pages occupied by the whole file (header + permutation + data).
  size_t num_pages() const { return num_pages_; }
  /// Header page id inside the disk manager (pass to Open).
  PageId first_page() const { return first_page_; }

  /// First page of node `n`'s slot (the only page unless a list is larger
  /// than a page). Exposed so concurrency tests and benches can reason
  /// about which buffer-pool shard a node's list lands on.
  PageId FirstPageOf(NodeId n) const;

  /// Reads the (up to k) stored NNs of `n`, nearest first.
  Status Read(BufferPool* pool, NodeId n, std::vector<NnEntry>* out) const;

  /// Replaces the stored list of `n` (entries.size() <= k). Pages are
  /// marked dirty in the pool and written back on eviction/flush; their
  /// LSNs are left alone (journaled writes go through WriteBatch).
  Status Write(BufferPool* pool, NodeId n,
               const std::vector<NnEntry>& entries);

  /// Applies every list image of ONE journaled record under its lsn.
  /// Unlike per-list Write calls, each touched page is pinned exactly
  /// once and receives ALL of the record's chunks for it before the lsn
  /// stamp — so a page evicted mid-commit either lacks the record
  /// entirely (its old lsn makes redo re-apply it) or carries all of it.
  Status WriteBatch(BufferPool* pool, std::span<const NodeListImage> lists,
                    uint64_t lsn);

  /// Redo arm of recovery: re-applies one record's list images directly
  /// via `disk`, but only to pages whose header LSN is older than `lsn`
  /// (already-applied pages are skipped, so replaying a log twice
  /// equals replaying it once). Per page, all of the record's chunks
  /// land in one read-modify-write together with the stamp — the same
  /// (record, page) atomicity WriteBatch keeps on the live path.
  /// Returns the number of pages it wrote. Offline only — must not race
  /// pool traffic over the same pages.
  Result<size_t> ReplayBatch(DiskManager* disk,
                             std::span<const NodeListImage> lists,
                             uint64_t lsn) const;

 private:
  KnnFile() = default;

  /// One contiguous byte run a batch writes into a data page.
  struct BatchChunk {
    size_t data_page = 0;  // data page index (not a PageId)
    size_t in_page = 0;    // byte offset within the page
    size_t image = 0;      // index into the serialized images
    size_t image_off = 0;  // byte offset within that image
    size_t len = 0;
  };
  /// Validates `lists`, serializes each into `images`, and splits them
  /// into per-page chunks (in list order, so a later rewrite of the
  /// same node wins when applied sequentially).
  Status PlanBatch(std::span<const NodeListImage> lists,
                   std::vector<std::vector<uint8_t>>* images,
                   std::vector<BatchChunk>* chunks) const;

  /// Serializes the full slot image (entries + empty padding).
  void SerializeSlot(const std::vector<NnEntry>& entries,
                     std::vector<uint8_t>* bytes) const;
  /// Slot location: data page index and byte offset behind its header.
  void LocateSlot(NodeId n, size_t* data_page, size_t* in_page) const;
  Status ComputeLayout(size_t page_size);

  std::vector<NodeId> slot_of_node_;  // empty = identity
  uint32_t k_ = 0;
  NodeId num_nodes_ = 0;
  size_t page_size_ = 0;
  size_t list_bytes_ = 0;
  size_t usable_bytes_ = 0;    // page_size_ - kKnnPageHeaderBytes
  size_t lists_per_page_ = 0;  // 0 when a list is larger than a page
  size_t stride_pages_ = 0;    // pages per list when lists_per_page_ == 0
  size_t perm_pages_ = 0;
  size_t data_pages_ = 0;
  size_t num_pages_ = 0;
  PageId first_page_ = kInvalidPage;
};

}  // namespace grnn::storage

#endif  // GRNN_STORAGE_KNN_FILE_H_
