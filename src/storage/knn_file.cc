#include "storage/knn_file.h"

#include <cstring>
#include <map>

#include "common/string_util.h"

namespace grnn::storage {

namespace {

/// Serializes one entry at `p`.
void PutEntry(uint8_t* p, const NnEntry& e) {
  std::memcpy(p, &e.point, sizeof(uint32_t));
  std::memcpy(p + sizeof(uint32_t), &e.dist, sizeof(double));
}

void PutPageHeader(uint8_t* page, uint64_t lsn) {
  KnnPageHeader header;
  header.magic = kKnnPageMagic;
  header.lsn = lsn;
  std::memcpy(page, &header, sizeof(header));
}

}  // namespace

Status KnnFile::ComputeLayout(size_t page_size) {
  if (page_size < sizeof(KnnFileHeader) ||
      page_size <= kKnnPageHeaderBytes) {
    return Status::InvalidArgument(
        StrPrintf("page size %zu cannot hold the file headers", page_size));
  }
  page_size_ = page_size;
  usable_bytes_ = page_size_ - kKnnPageHeaderBytes;
  list_bytes_ = static_cast<size_t>(k_) * kNnEntryBytes;
  if (list_bytes_ <= usable_bytes_) {
    lists_per_page_ = usable_bytes_ / list_bytes_;
    stride_pages_ = 0;
    data_pages_ =
        (num_nodes_ + lists_per_page_ - 1) / lists_per_page_;
  } else {
    lists_per_page_ = 0;
    stride_pages_ = (list_bytes_ + usable_bytes_ - 1) / usable_bytes_;
    data_pages_ = static_cast<size_t>(num_nodes_) * stride_pages_;
  }
  perm_pages_ = slot_of_node_.empty()
                    ? 0
                    : (static_cast<size_t>(num_nodes_) * sizeof(uint32_t) +
                       page_size_ - 1) /
                          page_size_;
  num_pages_ = 1 + perm_pages_ + data_pages_;
  return Status::OK();
}

Result<KnnFile> KnnFile::Create(DiskManager* disk, NodeId num_nodes,
                                uint32_t k,
                                const std::vector<NodeId>* slot_of_node) {
  if (disk == nullptr) {
    return Status::InvalidArgument("disk manager is null");
  }
  if (num_nodes == 0 || k == 0) {
    return Status::InvalidArgument("num_nodes and k must be positive");
  }
  KnnFile file;
  if (slot_of_node != nullptr) {
    if (slot_of_node->size() != num_nodes) {
      return Status::InvalidArgument("slot permutation size mismatch");
    }
    std::vector<bool> seen(num_nodes, false);
    for (NodeId s : *slot_of_node) {
      if (s >= num_nodes || seen[s]) {
        return Status::InvalidArgument("slot permutation is not a bijection");
      }
      seen[s] = true;
    }
    file.slot_of_node_ = *slot_of_node;
  }
  file.k_ = k;
  file.num_nodes_ = num_nodes;
  GRNN_RETURN_NOT_OK(file.ComputeLayout(disk->page_size()));

  // Allocate the whole contiguous run up front; formatting writes go
  // straight to the disk manager (construction is offline, not query
  // cost).
  for (size_t i = 0; i < file.num_pages_; ++i) {
    GRNN_ASSIGN_OR_RETURN(PageId id, disk->AllocatePage());
    if (file.first_page_ == kInvalidPage) {
      file.first_page_ = id;
    } else if (id != file.first_page_ + i) {
      return Status::Internal("knn file pages are not contiguous");
    }
  }

  std::vector<uint8_t> page(file.page_size_, 0);

  // Header page.
  KnnFileHeader header;
  header.magic = kKnnFileMagic;
  header.version = kKnnFileVersion;
  header.num_nodes = num_nodes;
  header.k = k;
  header.perm_pages = static_cast<uint32_t>(file.perm_pages_);
  header.data_pages = file.data_pages_;
  std::memcpy(page.data(), &header, sizeof(header));
  GRNN_RETURN_NOT_OK(disk->WritePage(file.first_page_, page.data()));

  // Permutation pages: packed uint32 slot-of-node ids.
  if (!file.slot_of_node_.empty()) {
    const size_t ids_per_page = file.page_size_ / sizeof(uint32_t);
    for (size_t p = 0; p < file.perm_pages_; ++p) {
      std::fill(page.begin(), page.end(), uint8_t{0});
      const size_t first = p * ids_per_page;
      const size_t count =
          std::min(ids_per_page, static_cast<size_t>(num_nodes) - first);
      static_assert(sizeof(NodeId) == sizeof(uint32_t));
      std::memcpy(page.data(), file.slot_of_node_.data() + first,
                  count * sizeof(uint32_t));
      GRNN_RETURN_NOT_OK(disk->WritePage(
          file.first_page_ + 1 + static_cast<PageId>(p), page.data()));
    }
  }

  // Data pages, formatted so every slot reads back as an empty list.
  const PageId data_start =
      file.first_page_ + 1 + static_cast<PageId>(file.perm_pages_);
  const std::vector<NnEntry> no_entries;
  std::vector<uint8_t> empty_list;
  file.SerializeSlot(no_entries, &empty_list);
  if (file.lists_per_page_ > 0) {
    // Fits case: one template page serves every data page — header plus
    // back-to-back empty slots.
    std::fill(page.begin(), page.end(), uint8_t{0});
    PutPageHeader(page.data(), /*lsn=*/0);
    for (size_t s = 0; s < file.lists_per_page_; ++s) {
      std::memcpy(page.data() + kKnnPageHeaderBytes + s * file.list_bytes_,
                  empty_list.data(), file.list_bytes_);
    }
    for (size_t p = 0; p < file.data_pages_; ++p) {
      GRNN_RETURN_NOT_OK(disk->WritePage(
          data_start + static_cast<PageId>(p), page.data()));
    }
  } else {
    // Stride case: every list starts on a fresh page and streams across
    // stride_pages_ pages, so page j of ANY list carries the same chunk
    // of the empty image — stride_pages_ templates cover the file.
    std::vector<std::vector<uint8_t>> templates(file.stride_pages_);
    for (size_t j = 0; j < file.stride_pages_; ++j) {
      templates[j].assign(file.page_size_, 0);
      PutPageHeader(templates[j].data(), /*lsn=*/0);
      const size_t off = j * file.usable_bytes_;
      const size_t take =
          std::min(file.usable_bytes_, file.list_bytes_ - off);
      std::memcpy(templates[j].data() + kKnnPageHeaderBytes,
                  empty_list.data() + off, take);
    }
    for (size_t p = 0; p < file.data_pages_; ++p) {
      GRNN_RETURN_NOT_OK(
          disk->WritePage(data_start + static_cast<PageId>(p),
                          templates[p % file.stride_pages_].data()));
    }
  }
  return file;
}

Result<KnnFile> KnnFile::Open(DiskManager* disk, PageId first_page) {
  if (disk == nullptr) {
    return Status::InvalidArgument("disk manager is null");
  }
  if (first_page >= disk->num_pages()) {
    return Status::InvalidArgument("header page beyond device end");
  }
  std::vector<uint8_t> page(disk->page_size(), 0);
  GRNN_RETURN_NOT_OK(disk->ReadPage(first_page, page.data()));
  KnnFileHeader header;
  std::memcpy(&header, page.data(), sizeof(header));
  if (header.magic != kKnnFileMagic) {
    return Status::Corruption(
        StrPrintf("bad knn file magic 0x%08x", header.magic));
  }
  if (header.version != kKnnFileVersion) {
    return Status::Corruption(
        StrPrintf("unsupported knn file version %u", header.version));
  }
  if (header.num_nodes == 0 || header.k == 0) {
    return Status::Corruption("knn file header holds an empty layout");
  }

  KnnFile file;
  file.k_ = header.k;
  file.num_nodes_ = header.num_nodes;
  if (header.perm_pages > 0) {
    // Reserve so ComputeLayout knows a permutation is present; the ids
    // are read back below.
    file.slot_of_node_.resize(header.num_nodes);
  }
  GRNN_RETURN_NOT_OK(file.ComputeLayout(disk->page_size()));
  if (file.perm_pages_ != header.perm_pages ||
      file.data_pages_ != header.data_pages) {
    return Status::Corruption(
        StrPrintf("knn file page counts disagree with the layout "
                  "(header: %u perm + %llu data, layout: %zu + %zu)",
                  header.perm_pages,
                  static_cast<unsigned long long>(header.data_pages),
                  file.perm_pages_, file.data_pages_));
  }
  file.first_page_ = first_page;
  if (static_cast<size_t>(first_page) + file.num_pages_ >
      disk->num_pages()) {
    return Status::Corruption("knn file runs past the device end");
  }

  if (file.perm_pages_ > 0) {
    const size_t ids_per_page = file.page_size_ / sizeof(uint32_t);
    std::vector<bool> seen(file.num_nodes_, false);
    for (size_t p = 0; p < file.perm_pages_; ++p) {
      GRNN_RETURN_NOT_OK(disk->ReadPage(
          first_page + 1 + static_cast<PageId>(p), page.data()));
      const size_t first = p * ids_per_page;
      const size_t count = std::min(
          ids_per_page, static_cast<size_t>(file.num_nodes_) - first);
      std::memcpy(file.slot_of_node_.data() + first, page.data(),
                  count * sizeof(uint32_t));
    }
    for (NodeId s : file.slot_of_node_) {
      if (s >= file.num_nodes_ || seen[s]) {
        return Status::Corruption(
            "stored slot permutation is not a bijection");
      }
      seen[s] = true;
    }
  }
  return file;
}

void KnnFile::SerializeSlot(const std::vector<NnEntry>& entries,
                            std::vector<uint8_t>* bytes) const {
  bytes->resize(list_bytes_);
  uint8_t* p = bytes->data();
  for (uint32_t i = 0; i < k_; ++i) {
    PutEntry(p, i < entries.size() ? entries[i] : NnEntry{});
    p += kNnEntryBytes;
  }
}

void KnnFile::LocateSlot(NodeId n, size_t* data_page,
                         size_t* in_page) const {
  NodeId slot = slot_of_node_.empty() ? n : slot_of_node_[n];
  if (lists_per_page_ > 0) {
    *data_page = slot / lists_per_page_;
    *in_page = kKnnPageHeaderBytes +
               static_cast<size_t>(slot % lists_per_page_) * list_bytes_;
  } else {
    *data_page = static_cast<size_t>(slot) * stride_pages_;
    *in_page = kKnnPageHeaderBytes;
  }
}

PageId KnnFile::FirstPageOf(NodeId n) const {
  GRNN_CHECK(n < num_nodes_);
  size_t data_page = 0;
  size_t in_page = 0;
  LocateSlot(n, &data_page, &in_page);
  return first_page_ + 1 + static_cast<PageId>(perm_pages_ + data_page);
}

Status KnnFile::Read(BufferPool* pool, NodeId n,
                     std::vector<NnEntry>* out) const {
  if (n >= num_nodes_) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  out->clear();
  size_t data_page = 0;
  size_t in_page = 0;
  LocateSlot(n, &data_page, &in_page);

  size_t bytes_left = list_bytes_;
  uint8_t entry[kNnEntryBytes];
  size_t entry_fill = 0;
  bool done = false;
  while (bytes_left > 0 && !done) {
    const PageId page =
        first_page_ + 1 + static_cast<PageId>(perm_pages_ + data_page);
    GRNN_ASSIGN_OR_RETURN(PageGuard guard, pool->Acquire(page));
    const uint8_t* data = guard.data();
    size_t avail = std::min(bytes_left, page_size_ - in_page);
    size_t offset = in_page;
    while (avail > 0 && !done) {
      size_t take = std::min(kNnEntryBytes - entry_fill, avail);
      std::memcpy(entry + entry_fill, data + offset, take);
      entry_fill += take;
      offset += take;
      avail -= take;
      bytes_left -= take;
      if (entry_fill == kNnEntryBytes) {
        NnEntry e;
        std::memcpy(&e.point, entry, sizeof(uint32_t));
        std::memcpy(&e.dist, entry + sizeof(uint32_t), sizeof(double));
        entry_fill = 0;
        if (e.point == kInvalidPoint) {
          done = true;  // empty suffix
        } else {
          out->push_back(e);
        }
      }
    }
    // A list continues on the next page right behind its header (stride
    // case only; the fits case never leaves the first page).
    data_page++;
    in_page = kKnnPageHeaderBytes;
  }
  return Status::OK();
}

Status KnnFile::Write(BufferPool* pool, NodeId n,
                      const std::vector<NnEntry>& entries) {
  if (n >= num_nodes_) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  if (entries.size() > k_) {
    return Status::InvalidArgument(
        StrPrintf("list of %zu entries exceeds capacity k=%u",
                  entries.size(), k_));
  }
  std::vector<uint8_t> bytes;
  SerializeSlot(entries, &bytes);

  size_t data_page = 0;
  size_t in_page = 0;
  LocateSlot(n, &data_page, &in_page);
  size_t written = 0;
  while (written < list_bytes_) {
    const PageId page =
        first_page_ + 1 + static_cast<PageId>(perm_pages_ + data_page);
    GRNN_ASSIGN_OR_RETURN(PageGuard guard, pool->Acquire(page));
    const size_t chunk =
        std::min(list_bytes_ - written, page_size_ - in_page);
    std::memcpy(guard.mutable_data() + in_page, bytes.data() + written,
                chunk);
    written += chunk;
    data_page++;
    in_page = kKnnPageHeaderBytes;
  }
  return Status::OK();
}

Status KnnFile::PlanBatch(std::span<const NodeListImage> lists,
                          std::vector<std::vector<uint8_t>>* images,
                          std::vector<BatchChunk>* chunks) const {
  images->resize(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    const NodeListImage& list = lists[i];
    if (list.node >= num_nodes_) {
      return Status::OutOfRange(
          StrPrintf("node %u out of range", list.node));
    }
    if (list.entries.size() > k_) {
      return Status::InvalidArgument(
          StrPrintf("list of %zu entries exceeds capacity k=%u",
                    list.entries.size(), k_));
    }
    SerializeSlot(list.entries, &(*images)[i]);
    size_t data_page = 0;
    size_t in_page = 0;
    LocateSlot(list.node, &data_page, &in_page);
    size_t off = 0;
    while (off < list_bytes_) {
      const size_t take =
          std::min(list_bytes_ - off, page_size_ - in_page);
      chunks->push_back({data_page, in_page, i, off, take});
      off += take;
      data_page++;
      in_page = kKnnPageHeaderBytes;
    }
  }
  return Status::OK();
}

Status KnnFile::WriteBatch(BufferPool* pool,
                           std::span<const NodeListImage> lists,
                           uint64_t lsn) {
  std::vector<std::vector<uint8_t>> images;
  std::vector<BatchChunk> chunks;
  GRNN_RETURN_NOT_OK(PlanBatch(lists, &images, &chunks));
  // Group the record's chunks by page: the page is pinned once and gets
  // everything the record writes to it under that pin, so an eviction
  // can only persist it with all of the record or none of it.
  std::map<size_t, std::vector<const BatchChunk*>> by_page;
  for (const BatchChunk& c : chunks) {
    by_page[c.data_page].push_back(&c);
  }
  for (const auto& [data_page, page_chunks] : by_page) {
    const PageId id =
        first_page_ + 1 + static_cast<PageId>(perm_pages_ + data_page);
    GRNN_ASSIGN_OR_RETURN(PageGuard guard, pool->Acquire(id));
    uint8_t* dst = guard.mutable_data();
    for (const BatchChunk* c : page_chunks) {
      std::memcpy(dst + c->in_page, images[c->image].data() + c->image_off,
                  c->len);
    }
    if (lsn != 0) {
      // Monotone stamp: the header records the NEWEST applied update.
      uint64_t page_lsn = 0;
      std::memcpy(&page_lsn, dst + offsetof(KnnPageHeader, lsn),
                  sizeof(page_lsn));
      if (lsn > page_lsn) {
        std::memcpy(dst + offsetof(KnnPageHeader, lsn), &lsn, sizeof(lsn));
      }
    }
  }
  return Status::OK();
}

Result<size_t> KnnFile::ReplayBatch(DiskManager* disk,
                                    std::span<const NodeListImage> lists,
                                    uint64_t lsn) const {
  if (lsn == 0) {
    return Status::InvalidArgument("replay needs the record's lsn");
  }
  std::vector<std::vector<uint8_t>> images;
  std::vector<BatchChunk> chunks;
  GRNN_RETURN_NOT_OK(PlanBatch(lists, &images, &chunks));
  std::map<size_t, std::vector<const BatchChunk*>> by_page;
  for (const BatchChunk& c : chunks) {
    by_page[c.data_page].push_back(&c);
  }
  std::vector<uint8_t> page(page_size_, 0);
  size_t pages_applied = 0;
  for (const auto& [data_page, page_chunks] : by_page) {
    const PageId id =
        first_page_ + 1 + static_cast<PageId>(perm_pages_ + data_page);
    GRNN_RETURN_NOT_OK(disk->ReadPage(id, page.data()));
    KnnPageHeader header;
    std::memcpy(&header, page.data(), sizeof(header));
    if (header.magic != kKnnPageMagic) {
      return Status::Corruption(
          StrPrintf("bad knn page magic 0x%08x on page %u", header.magic,
                    id));
    }
    // The page-LSN redo filter: a page already carrying this record (or
    // a newer one) is left alone, which makes replay idempotent. The
    // stamp is written in the same page image as every chunk, keeping
    // the (record, page) atomicity the filter relies on.
    if (header.lsn < lsn) {
      for (const BatchChunk* c : page_chunks) {
        std::memcpy(page.data() + c->in_page,
                    images[c->image].data() + c->image_off, c->len);
      }
      header.lsn = lsn;
      std::memcpy(page.data(), &header, sizeof(header));
      GRNN_RETURN_NOT_OK(disk->WritePage(id, page.data()));
      pages_applied++;
    }
  }
  return pages_applied;
}

}  // namespace grnn::storage
