// Copyright (c) GRNN authors.
// LabelFile: the hub-label index persisted as a paged file, served
// through the storage::BufferPool / PageGuard machinery.
//
// Layout (all pages contiguous, starting at first_page):
//
//   header page      LabelFileHeader, rest zero.
//   directory pages  one 16-byte LabelDirectoryEntry per node, packed
//                    back to back (byte offset of the node's label blob
//                    within this file's page range, entry count, blob
//                    length). Read and validated once at Open into the
//                    memory-resident node index, exactly like
//                    GraphFile's offsets.
//   data pages       a 16-byte page header carrying the payload bytes
//                    used on the page, then one variable-length blob per
//                    label: the sorted hub ids as LEB128 varint DELTAS
//                    (the first id absolute) followed by the distances as
//                    raw 8-byte doubles. Grid/road labels whose hub ids
//                    cluster by separator take ~9-10 bytes per entry. A
//                    blob that fits one page never straddles a page
//                    boundary, so almost every scan is one pin.
//
// Version 3 is the only format. Labels depend only on the immutable
// graph, so the file is written once (Build) and never patched. Scans
// decode into the LabelCursor's scratch buffer and drop their pins
// before returning: a stored label span never aliases a pool frame.
// Decoding validates every hub id against the node range, so a
// corrupted blob surfaces as Status::Corruption, never as an
// out-of-range hub.

#ifndef GRNN_INDEX_LABEL_FILE_H_
#define GRNN_INDEX_LABEL_FILE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "index/hub_label.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace grnn::index {

inline constexpr uint32_t kLabelFileMagic = 0x47524c31u;   // "GRL1"
inline constexpr uint32_t kLabelPageMagic = 0x47524c32u;   // "GRL2"
inline constexpr uint32_t kLabelFileVersion = 3;

/// First bytes of the header page.
struct LabelFileHeader {
  uint32_t magic = 0;          // kLabelFileMagic
  uint32_t version = 0;        // kLabelFileVersion
  uint32_t num_nodes = 0;
  uint32_t directory_pages = 0;
  uint64_t num_entries = 0;
  uint64_t data_pages = 0;
};
static_assert(sizeof(LabelFileHeader) == 32);

/// One directory record: where a node's label lives inside the file.
struct LabelDirectoryEntry {
  /// Byte offset of the label blob, relative to the file's first page
  /// (page headers included in the count, as in GraphFile).
  uint64_t offset = 0;
  uint32_t count = 0;
  /// Length of the label blob in bytes.
  uint32_t bytes = 0;
};
static_assert(sizeof(LabelDirectoryEntry) == 16);

/// Per-data-page header. The trailing 8 bytes are spare (written as
/// zero).
struct LabelPageHeader {
  uint32_t magic = 0;       // kLabelPageMagic
  uint32_t used_bytes = 0;  // blob bytes stored on this page
  uint64_t reserved = 0;
};
static_assert(sizeof(LabelPageHeader) == 16);
inline constexpr size_t kLabelPageHeaderBytes = sizeof(LabelPageHeader);

/// \brief Paged hub-label file with a memory-resident node index.
class LabelFile {
 public:
  /// Serializes `index` into fresh pages of `disk` (header, directory,
  /// data — written directly, not through a pool: construction is an
  /// offline step, like GraphFile::Build). The page size must hold the
  /// header structs plus at least one encoded entry.
  static Result<LabelFile> Build(const HubLabelIndex& index,
                                 storage::DiskManager* disk);

  /// Reopens a file previously written by Build: reads the header and
  /// directory pages back into the memory-resident index. `first_page`
  /// is the header page id Build reported. Corruption for any other
  /// version, or for a directory entry whose blob does not lie inside
  /// the data pages or whose length cannot encode its entry count.
  static Result<LabelFile> Open(storage::DiskManager* disk,
                                PageId first_page);

  /// Scans the label of `n` through `pool`, charging page I/O. The span
  /// points into `cursor` and stays valid until its next scan; no pin
  /// outlives the call.
  Result<std::span<const HubEntry>> ScanLabel(storage::BufferPool* pool,
                                              NodeId n,
                                              LabelCursor& cursor) const;

  NodeId num_nodes() const { return static_cast<NodeId>(counts_.size()); }
  size_t num_entries() const { return num_entries_; }

  /// Pages occupied by the whole file (header + directory + data).
  size_t num_pages() const { return num_pages_; }
  /// Header page id inside the disk manager (pass to Open).
  PageId first_page() const { return first_page_; }

 private:
  LabelFile() = default;

  Status AssembleStraddling(storage::BufferPool* pool, NodeId n,
                            std::vector<uint8_t>& out) const;

  size_t page_size_ = 0;
  size_t num_entries_ = 0;
  size_t num_pages_ = 0;
  PageId first_page_ = kInvalidPage;
  // Node index (memory-resident): byte offset of each label blob within
  // this file's page range, its length in entries and in bytes.
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> counts_;
  std::vector<uint32_t> bytes_;
};

/// \brief Disk-backed LabelStore over a LabelFile + BufferPool, the
/// stored counterpart of HubLabelIndex (the "stored-label engine" of the
/// differential harness).
class StoredLabelIndex final : public LabelStore {
 public:
  /// \param file, pool must outlive the view.
  StoredLabelIndex(const LabelFile* file, storage::BufferPool* pool)
      : file_(file), pool_(pool) {
    GRNN_CHECK(file != nullptr);
    GRNN_CHECK(pool != nullptr);
  }

  NodeId num_nodes() const override { return file_->num_nodes(); }
  size_t num_entries() const override { return file_->num_entries(); }

  Result<std::span<const HubEntry>> Scan(
      NodeId n, LabelCursor& cursor) const override {
    return file_->ScanLabel(pool_, n, cursor);
  }

  storage::BufferPool* pool() const { return pool_; }
  const LabelFile& file() const { return *file_; }

 private:
  const LabelFile* file_;
  storage::BufferPool* pool_;
};

}  // namespace grnn::index

#endif  // GRNN_INDEX_LABEL_FILE_H_
