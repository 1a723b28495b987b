#include "core/durability.h"

#include <cstring>
#include <span>
#include <unordered_set>

#include "common/string_util.h"

namespace grnn::core {

namespace {

// Little-endian-in-memory scalar framing. The repo already stores raw
// structs (page headers, NnEntry images) without byte swapping; the
// record payloads follow the same convention.
template <typename T>
void Put(std::vector<uint8_t>* out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
bool Get(std::span<const uint8_t> in, size_t* off, T* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (*off + sizeof(T) > in.size()) {
    return false;
  }
  std::memcpy(v, in.data() + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

Status Malformed(const char* what, uint64_t lsn) {
  return Status::Corruption(StrPrintf(
      "malformed %s payload in WAL record lsn=%llu", what,
      static_cast<unsigned long long>(lsn)));
}

}  // namespace

std::vector<uint8_t> EncodeUpdatePayload(
    const UpdateDescriptor& desc, const std::vector<JournaledList>& lists) {
  std::vector<uint8_t> out;
  Put(&out, static_cast<uint8_t>(desc.op));
  Put(&out, uint8_t{0});
  Put(&out, uint16_t{0});
  Put(&out, desc.domain);
  Put(&out, desc.node);
  Put(&out, desc.point);
  Put(&out, desc.edge_u);
  Put(&out, desc.edge_v);
  Put(&out, desc.edge_offset);
  Put(&out, static_cast<uint32_t>(lists.size()));
  for (const JournaledList& list : lists) {
    Put(&out, list.node);
    Put(&out, static_cast<uint32_t>(list.entries.size()));
    for (const NnEntry& e : list.entries) {
      Put(&out, e.point);
      Put(&out, e.dist);
    }
  }
  return out;
}

Result<JournaledUpdate> DecodeUpdateRecord(const storage::WalRecord& rec) {
  if (rec.type != static_cast<uint16_t>(storage::WalRecordType::kUpdate)) {
    return Status::InvalidArgument("record is not a kUpdate record");
  }
  JournaledUpdate out;
  out.lsn = rec.lsn;
  out.store_id = rec.store_id;
  std::span<const uint8_t> in(rec.payload);
  size_t off = 0;
  uint8_t op = 0;
  uint8_t pad8 = 0;
  uint16_t pad16 = 0;
  uint32_t num_lists = 0;
  if (!Get(in, &off, &op) || !Get(in, &off, &pad8) ||
      !Get(in, &off, &pad16) || !Get(in, &off, &out.desc.domain) ||
      !Get(in, &off, &out.desc.node) || !Get(in, &off, &out.desc.point) ||
      !Get(in, &off, &out.desc.edge_u) ||
      !Get(in, &off, &out.desc.edge_v) ||
      !Get(in, &off, &out.desc.edge_offset) ||
      !Get(in, &off, &num_lists)) {
    return Malformed("update", rec.lsn);
  }
  if (op > static_cast<uint8_t>(UpdateDescriptor::Op::kDeleteEdgePoint)) {
    return Malformed("update (op)", rec.lsn);
  }
  out.desc.op = static_cast<UpdateDescriptor::Op>(op);
  out.lists.reserve(num_lists);
  for (uint32_t i = 0; i < num_lists; ++i) {
    JournaledList list;
    uint32_t count = 0;
    if (!Get(in, &off, &list.node) || !Get(in, &off, &count)) {
      return Malformed("update (list)", rec.lsn);
    }
    list.entries.resize(count);
    for (uint32_t j = 0; j < count; ++j) {
      if (!Get(in, &off, &list.entries[j].point) ||
          !Get(in, &off, &list.entries[j].dist)) {
        return Malformed("update (entry)", rec.lsn);
      }
    }
    out.lists.push_back(std::move(list));
  }
  if (off != in.size()) {
    return Malformed("update (trailing bytes)", rec.lsn);
  }
  return out;
}

Status DurableKnnStore::Read(NodeId n, std::vector<NnEntry>* out) const {
  if (in_txn_) {
    // Read-your-writes: deletion maintenance re-reads lists it has
    // just stripped, and must see the stripped image.
    auto it = pending_index_.find(n);
    if (it != pending_index_.end()) {
      *out = pending_[it->second].entries;
      return Status::OK();
    }
  }
  return file_->Read(pool_, n, out);
}

Status DurableKnnStore::Write(NodeId n,
                              const std::vector<NnEntry>& entries) {
  if (!in_txn_) {
    // Outside a transaction (the offline BuildAllNn pass): straight
    // through, unjournaled. Checkpoint after construction.
    return file_->Write(pool_, n, entries);
  }
  if (n >= file_->num_nodes()) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  if (entries.size() > file_->k()) {
    return Status::InvalidArgument(
        StrPrintf("list of %zu entries exceeds capacity k=%u",
                  entries.size(), file_->k()));
  }
  auto [it, inserted] = pending_index_.try_emplace(n, pending_.size());
  if (inserted) {
    pending_.push_back(JournaledList{n, entries});
  } else {
    pending_[it->second].entries = entries;
  }
  return Status::OK();
}

Status DurableKnnStore::BeginUpdate(const UpdateDescriptor& desc) {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "durable store needs crash recovery (a previous update failed "
        "past the point of clean rollback)");
  }
  if (in_txn_) {
    return Status::FailedPrecondition(
        "durable store already has an open update");
  }
  desc_ = desc;
  pending_.clear();
  pending_index_.clear();
  in_txn_ = true;
  return Status::OK();
}

Status DurableKnnStore::CommitUpdate(UpdateStats* stats) {
  if (!in_txn_) {
    return Status::FailedPrecondition("no open update to commit");
  }
  // Even a no-list update is journaled: recovery rebuilds the logical
  // point state from the descriptors, so every committed operation must
  // appear in the log.
  const std::vector<uint8_t> payload =
      EncodeUpdatePayload(desc_, pending_);
  // Any failure from here on poisons the store: once the record has
  // been handed to the log it is a ZOMBIE — not acknowledged, but a
  // later group flush (another store sharing the Wal) can still make
  // it durable, and the engine's rollback frees the point id for
  // reuse. Journaling further updates over that divergence would be
  // silent log corruption, so the store refuses new transactions until
  // the caller crash-recovers (the zombie record is self-contained,
  // replaying it is consistent).
  auto lsn_result = wal_->Append(storage::WalRecordType::kUpdate,
                                 store_id_, payload);
  if (!lsn_result.ok()) {
    poisoned_ = true;
    return lsn_result.status();
  }
  const uint64_t lsn = std::move(lsn_result).ValueUnsafe();
  // The durability point: the engine acknowledges the update only after
  // this flush (group commit — one sync may cover several records).
  auto flushed = wal_->Flush();
  if (!flushed.ok()) {
    poisoned_ = true;
    return flushed.status();
  }
  if (stats != nullptr) {
    stats->log_records++;
    stats->log_bytes += payload.size();
    stats->log_flushes += *flushed ? 1 : 0;
  }
  // Only now may data pages go dirty: each carries the record's lsn, so
  // redo can tell whether the page already has this update. The batch
  // write keeps content and stamp atomic per page — lists of one record
  // sharing a page land under a single pin, so an eviction mid-commit
  // can never persist the stamp ahead of the record's other lists.
  const Status written = file_->WriteBatch(pool_, pending_, lsn);
  if (!written.ok()) {
    poisoned_ = true;  // the record is durable, the pages are not
    return written;
  }
  last_commit_lsn_ = lsn;
  pending_.clear();
  pending_index_.clear();
  in_txn_ = false;
  // Log-size-threshold checkpoint policy: once the record region has
  // grown past the configured bound, fold the log into the data file
  // right here on the commit path (flush pool, sync data device, reset
  // the log — CheckpointThrough's clean sequence). The update is
  // already durable and applied, so a checkpoint failure propagates to
  // the caller WITHOUT poisoning the store: nothing diverged, the log
  // simply stayed long, and a later commit retries the fold.
  if (checkpoint_threshold_bytes_ > 0 &&
      wal_->log_bytes() >= checkpoint_threshold_bytes_) {
    GRNN_RETURN_NOT_OK(storage::CheckpointThrough(*pool_, *wal_));
  }
  return Status::OK();
}

void DurableKnnStore::AbortUpdate() {
  // The file was never touched (writes were buffered), so dropping the
  // overlay undoes everything physical. The LOGICAL rollback is not
  // that clean: the engine's insert rollback burns a point id (the
  // sets never recycle ids), and a failed delete leaves the point
  // removed with no record of it — either way the in-memory state has
  // diverged from what replaying the log reproduces, so journaling
  // further updates over it would corrupt the logical history. The
  // aborted transaction therefore poisons the store; the caller
  // reopens and recovers (which replays a history the divergence never
  // entered).
  if (in_txn_) {
    poisoned_ = true;
  }
  pending_.clear();
  pending_index_.clear();
  in_txn_ = false;
}

Result<RecoveryResult> RecoverStores(
    const storage::Wal& wal,
    const std::unordered_map<uint32_t, KnnRecoveryTarget>& knn_stores) {
  RecoveryResult out;
  out.tail_truncated = wal.tail_truncated();
  std::unordered_set<storage::DiskManager*> touched;
  for (const storage::WalRecord& rec : wal.recovered()) {
    if (rec.type !=
        static_cast<uint16_t>(storage::WalRecordType::kUpdate)) {
      return Status::Corruption(StrPrintf(
          "WAL record lsn=%llu has unknown type %u",
          static_cast<unsigned long long>(rec.lsn), rec.type));
    }
    GRNN_ASSIGN_OR_RETURN(JournaledUpdate update, DecodeUpdateRecord(rec));
    auto it = knn_stores.find(rec.store_id);
    if (it == knn_stores.end()) {
      return Status::Corruption(StrPrintf(
          "WAL record lsn=%llu names unknown knn store %u",
          static_cast<unsigned long long>(rec.lsn), rec.store_id));
    }
    GRNN_ASSIGN_OR_RETURN(
        size_t pages,
        it->second.file->ReplayBatch(it->second.disk, update.lists,
                                     rec.lsn));
    out.pages_written += pages;
    touched.insert(it->second.disk);
    out.records_replayed++;
    out.updates.push_back(std::move(update));
  }
  // Make the replayed pages durable before anyone checkpoints the log
  // away on top of them.
  for (storage::DiskManager* disk : touched) {
    GRNN_RETURN_NOT_OK(disk->Sync());
  }
  return out;
}

}  // namespace grnn::core
