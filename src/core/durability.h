// Copyright (c) GRNN authors.
// Durable store wrappers and redo recovery (PR 7).
//
// DurableKnnStore turns the stored maintenance path into a journaled
// one. A maintenance operation (MaterializedInsert / -Delete) reads
// many lists and rewrites a few; the wrapper runs it as a transaction:
//
//   BeginUpdate   opens the transaction with the logical descriptor.
//   Write         is BUFFERED in a pending overlay instead of touching
//                 the file — with read-your-writes, because deletion
//                 maintenance re-reads lists it has just stripped.
//   CommitUpdate  encodes ONE WAL record (descriptor + every buffered
//                 list image), appends and FLUSHES it (the durability
//                 point — the engine acknowledges only after this), and
//                 only then applies the buffered writes to the KnnFile
//                 through the pool, stamping the record's lsn into the
//                 page headers.
//   AbortUpdate   drops the overlay; the file was never touched, so
//                 the engine's logical rollback is all that is needed.
//
// Buffering until commit gives no-steal for free: a pool page can only
// become dirty AFTER its covering record exists, and the pool's
// AttachWal hook flushes the log before any dirty page reaches disk
// (usually a no-op — commit already flushed). Together: every byte on
// the data disk is covered by the durable log, and every acknowledged
// update IS in the durable log. A crash therefore recovers exactly a
// prefix of the committed updates that contains every acknowledged one.
//
// RecoverStores is the redo driver: it decodes the kUpdate records a
// reopened Wal recovered and replays each list image through the
// page-LSN filter (KnnFile::ReplayBatch — pages already carrying the
// update are skipped, so recovering twice equals recovering once). Any
// other record type fails recovery with Corruption. It returns the
// decoded logical descriptors in lsn order; the caller replays those
// onto its point metadata to rebuild the matching logical state.
//
// Hub labels are not journaled: they depend only on the immutable
// graph, so a LabelFile is written once and never patched.

#ifndef GRNN_CORE_DURABILITY_H_
#define GRNN_CORE_DURABILITY_H_

#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/materialize.h"
#include "storage/buffer_pool.h"
#include "storage/knn_file.h"
#include "storage/wal.h"

namespace grnn::core {

/// One journaled list image: the full new list of `node`. The storage
/// layer defines the struct so KnnFile can apply a whole record's
/// images page-atomically (WriteBatch / ReplayBatch).
using JournaledList = storage::NodeListImage;

/// One decoded kUpdate record.
struct JournaledUpdate {
  uint64_t lsn = 0;
  uint32_t store_id = 0;
  UpdateDescriptor desc;
  std::vector<JournaledList> lists;
};

/// Record payload codecs, exposed for the WAL edge-case tests (they
/// hand-corrupt and re-frame payloads).
std::vector<uint8_t> EncodeUpdatePayload(
    const UpdateDescriptor& desc, const std::vector<JournaledList>& lists);
Result<JournaledUpdate> DecodeUpdateRecord(const storage::WalRecord& rec);

/// \brief Journaled KnnStore over a KnnFile + BufferPool + shared Wal.
///
/// Outside a transaction, Read/Write pass straight through (the offline
/// BuildAllNn construction pass is not journaled — checkpoint after
/// it). Multiple stores may share one Wal (its mutex serializes
/// appends); each store journals under its own `store_id`, which
/// recovery uses to route records back. One transaction at a time per
/// store — the engine's per-domain exclusive update lock provides that.
class DurableKnnStore final : public KnnStore {
 public:
  /// \param file, pool, wal must outlive the store. The pool should
  /// have the wal attached (BufferPool::AttachWal) so evictions keep
  /// the log-before-page discipline.
  ///
  /// \param checkpoint_threshold_bytes when non-zero, a committed
  /// update whose log has grown past this many bytes triggers
  /// CheckpointThrough(pool, wal) on the commit path — the log is
  /// logically emptied and recovery restarts from the freshly synced
  /// data pages, bounding both log size and redo time. 0 (default)
  /// keeps the log growing until the caller checkpoints explicitly.
  DurableKnnStore(storage::KnnFile* file, storage::BufferPool* pool,
                  storage::Wal* wal, uint32_t store_id,
                  uint64_t checkpoint_threshold_bytes = 0)
      : file_(file),
        pool_(pool),
        wal_(wal),
        store_id_(store_id),
        checkpoint_threshold_bytes_(checkpoint_threshold_bytes) {
    GRNN_CHECK(file != nullptr);
    GRNN_CHECK(pool != nullptr);
    GRNN_CHECK(wal != nullptr);
  }

  uint32_t k() const override { return file_->k(); }
  NodeId num_nodes() const override { return file_->num_nodes(); }
  Status Read(NodeId n, std::vector<NnEntry>* out) const override;
  Status Write(NodeId n, const std::vector<NnEntry>& entries) override;

  Status BeginUpdate(const UpdateDescriptor& desc) override;
  Status CommitUpdate(UpdateStats* stats) override;
  void AbortUpdate() override;

  uint32_t store_id() const { return store_id_; }
  storage::Wal* wal() const { return wal_; }
  /// Lsn of the last committed update (0 = none yet). The harness uses
  /// it to tie acknowledgements to log positions.
  uint64_t last_commit_lsn() const { return last_commit_lsn_; }
  /// True once an update failed past the point of clean rollback: the
  /// record may reach the log without its logical effect surviving in
  /// the engine (a zombie), or a delete was aborted after the point
  /// left the in-memory set. Journaling on top of either would corrupt
  /// the log's logical history, so BeginUpdate refuses with
  /// FailedPrecondition — reopen and recover instead (the failure modes
  /// are all ones recovery handles exactly).
  bool poisoned() const { return poisoned_; }

 private:
  storage::KnnFile* file_;
  storage::BufferPool* pool_;
  storage::Wal* wal_;
  uint32_t store_id_;
  uint64_t checkpoint_threshold_bytes_ = 0;
  bool in_txn_ = false;
  UpdateDescriptor desc_;
  /// Buffered writes of the open transaction, in first-write order;
  /// rewrites of the same node update the existing image in place.
  std::vector<JournaledList> pending_;
  std::unordered_map<NodeId, size_t> pending_index_;
  uint64_t last_commit_lsn_ = 0;
  bool poisoned_ = false;
};

/// Where a store's recovered records should be replayed: the reopened
/// file plus the raw device to replay through (recovery runs offline,
/// before any pool serves the file).
struct KnnRecoveryTarget {
  storage::KnnFile* file = nullptr;
  storage::DiskManager* disk = nullptr;
};

/// What recovery did, plus the decoded logical history the caller needs
/// to rebuild matching point metadata.
struct RecoveryResult {
  /// Decoded kUpdate records in lsn order — the durable update prefix.
  std::vector<JournaledUpdate> updates;
  size_t records_replayed = 0;
  /// Pages actually rewritten (lists whose pages were already current
  /// are filtered out by the page-LSN check).
  size_t pages_written = 0;
  /// True when the log ended in a torn/corrupt record that was
  /// truncated (mirrors Wal::tail_truncated).
  bool tail_truncated = false;
};

/// \brief Redo pass over a reopened Wal: replays every recovered record
/// into its store and syncs the touched devices. A record of any type
/// but kUpdate, or naming a store_id absent from `knn_stores`, is
/// Corruption (recovery must never silently drop durable state).
/// Idempotent: running it again — e.g. after a crash DURING recovery —
/// converges to the same state.
Result<RecoveryResult> RecoverStores(
    const storage::Wal& wal,
    const std::unordered_map<uint32_t, KnnRecoveryTarget>& knn_stores);

}  // namespace grnn::core

#endif  // GRNN_CORE_DURABILITY_H_
