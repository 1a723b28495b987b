#include "storage/graph_file.h"

#include <cstring>

#include "common/string_util.h"

namespace grnn::storage {

namespace {

// Appends raw bytes to a page-building stream, allocating pages on demand
// (the v1 packed layout: no page header, 12-byte records).
class PageWriter {
 public:
  PageWriter(DiskManager* disk, size_t page_size)
      : disk_(disk), page_size_(page_size), buffer_(page_size, 0) {}

  uint64_t position() const {
    return static_cast<uint64_t>(pages_written_) * page_size_ + fill_;
  }

  size_t remaining_in_page() const { return page_size_ - fill_; }

  Result<PageId> first_page() const {
    if (first_page_ == kInvalidPage) {
      return Status::FailedPrecondition("no pages written yet");
    }
    return first_page_;
  }

  size_t pages_flushed_or_open() const {
    return pages_written_ + (fill_ > 0 ? 1 : 0);
  }

  Status Append(const uint8_t* data, size_t len) {
    while (len > 0) {
      size_t chunk = std::min(len, page_size_ - fill_);
      std::memcpy(buffer_.data() + fill_, data, chunk);
      fill_ += chunk;
      data += chunk;
      len -= chunk;
      if (fill_ == page_size_) {
        GRNN_RETURN_NOT_OK(FlushPage());
      }
    }
    return Status::OK();
  }

  Status PadToPageBoundary() {
    if (fill_ > 0) {
      std::memset(buffer_.data() + fill_, 0, page_size_ - fill_);
      fill_ = page_size_;
      GRNN_RETURN_NOT_OK(FlushPage());
    }
    return Status::OK();
  }

  Status Finish() { return PadToPageBoundary(); }

 private:
  Status FlushPage() {
    GRNN_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
    if (first_page_ == kInvalidPage) {
      first_page_ = id;
    } else if (id != first_page_ + pages_written_) {
      return Status::Internal("graph file pages are not contiguous");
    }
    GRNN_RETURN_NOT_OK(disk_->WritePage(id, buffer_.data()));
    pages_written_++;
    fill_ = 0;
    return Status::OK();
  }

  DiskManager* disk_;
  size_t page_size_;
  std::vector<uint8_t> buffer_;
  size_t fill_ = 0;
  size_t pages_written_ = 0;
  PageId first_page_ = kInvalidPage;
};

// Slot-granular writer for the v2 aligned layout: every page carries a
// V2PageHeader followed by 16-byte AdjEntry-identical records. The page
// buffer stays zeroed between records, so record padding bytes and page
// tails are deterministic on disk.
class V2PageWriter {
 public:
  V2PageWriter(DiskManager* disk, size_t page_size)
      : disk_(disk),
        page_size_(page_size),
        slots_per_page_((page_size - kV2HeaderBytes) / kV2RecordBytes),
        buffer_(page_size, 0) {}

  uint64_t position() const {
    return static_cast<uint64_t>(pages_written_) * page_size_ +
           kV2HeaderBytes + slot_fill_ * kV2RecordBytes;
  }

  size_t remaining_slots() const { return slots_per_page_ - slot_fill_; }
  size_t slots_per_page() const { return slots_per_page_; }

  Result<PageId> first_page() const {
    if (first_page_ == kInvalidPage) {
      return Status::FailedPrecondition("no pages written yet");
    }
    return first_page_;
  }

  size_t pages_flushed_or_open() const {
    return pages_written_ + (slot_fill_ > 0 ? 1 : 0);
  }

  Status AppendEntry(const AdjEntry& a) {
    uint8_t* rec = buffer_.data() + kV2HeaderBytes +
                   slot_fill_ * kV2RecordBytes;
    std::memcpy(rec + offsetof(AdjEntry, node), &a.node, sizeof(a.node));
    std::memcpy(rec + offsetof(AdjEntry, weight), &a.weight,
                sizeof(a.weight));
    if (++slot_fill_ == slots_per_page_) {
      GRNN_RETURN_NOT_OK(FlushPage());
    }
    return Status::OK();
  }

  Status PadToPageBoundary() {
    if (slot_fill_ > 0) {
      GRNN_RETURN_NOT_OK(FlushPage());
    }
    return Status::OK();
  }

  Status Finish() { return PadToPageBoundary(); }

 private:
  Status FlushPage() {
    V2PageHeader header;
    header.magic = kV2Magic;
    header.entry_count = static_cast<uint32_t>(slot_fill_);
    std::memcpy(buffer_.data(), &header, sizeof(header));
    GRNN_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
    if (first_page_ == kInvalidPage) {
      first_page_ = id;
    } else if (id != first_page_ + pages_written_) {
      return Status::Internal("graph file pages are not contiguous");
    }
    GRNN_RETURN_NOT_OK(disk_->WritePage(id, buffer_.data()));
    std::memset(buffer_.data(), 0, buffer_.size());
    pages_written_++;
    slot_fill_ = 0;
    return Status::OK();
  }

  DiskManager* disk_;
  size_t page_size_;
  size_t slots_per_page_;
  std::vector<uint8_t> buffer_;
  size_t slot_fill_ = 0;
  size_t pages_written_ = 0;
  PageId first_page_ = kInvalidPage;
};

}  // namespace

const char* PageLayoutName(PageLayout layout) {
  switch (layout) {
    case PageLayout::kV1Packed:
      return "v1-packed";
    case PageLayout::kV2Aligned:
      return "v2-aligned";
  }
  return "unknown";
}

Result<GraphFile> GraphFile::Build(const graph::Graph& g,
                                   DiskManager* disk,
                                   const GraphFileOptions& options) {
  if (disk == nullptr) {
    return Status::InvalidArgument("disk manager is null");
  }
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot store an empty graph");
  }

  GraphFile file;
  file.layout_ = options.layout;
  file.page_size_ = disk->page_size();
  file.num_edges_ = g.num_edges();
  file.offsets_.assign(g.num_nodes(), 0);
  file.degrees_.assign(g.num_nodes(), 0);

  std::vector<NodeId> order =
      ComputeNodeOrder(g, options.order, options.seed);

  if (options.layout == PageLayout::kV2Aligned) {
    if (file.page_size_ < kV2HeaderBytes + kV2RecordBytes) {
      return Status::InvalidArgument(StrPrintf(
          "page size %zu cannot hold a v2 header plus one record",
          file.page_size_));
    }
    V2PageWriter writer(disk, file.page_size_);
    for (NodeId n : order) {
      auto nbrs = g.Neighbors(n);
      if (!nbrs.empty() && nbrs.size() <= writer.slots_per_page() &&
          nbrs.size() > writer.remaining_slots()) {
        GRNN_RETURN_NOT_OK(writer.PadToPageBoundary());
      }
      file.offsets_[n] = writer.position();
      file.degrees_[n] = static_cast<uint32_t>(nbrs.size());
      for (const AdjEntry& a : nbrs) {
        GRNN_RETURN_NOT_OK(writer.AppendEntry(a));
      }
    }
    GRNN_RETURN_NOT_OK(writer.Finish());
    GRNN_ASSIGN_OR_RETURN(file.first_page_, writer.first_page());
    file.num_pages_ = writer.pages_flushed_or_open();
    return file;
  }

  PageWriter writer(disk, file.page_size_);
  std::vector<uint8_t> scratch;
  for (NodeId n : order) {
    auto nbrs = g.Neighbors(n);
    const size_t list_bytes = nbrs.size() * kAdjEntryBytes;
    if (list_bytes > 0 && list_bytes <= file.page_size_ &&
        list_bytes > writer.remaining_in_page()) {
      GRNN_RETURN_NOT_OK(writer.PadToPageBoundary());
    }
    file.offsets_[n] = writer.position();
    file.degrees_[n] = static_cast<uint32_t>(nbrs.size());

    scratch.resize(list_bytes);
    uint8_t* p = scratch.data();
    for (const AdjEntry& a : nbrs) {
      std::memcpy(p, &a.node, sizeof(uint32_t));
      std::memcpy(p + sizeof(uint32_t), &a.weight, sizeof(double));
      p += kAdjEntryBytes;
    }
    GRNN_RETURN_NOT_OK(writer.Append(scratch.data(), list_bytes));
  }
  GRNN_RETURN_NOT_OK(writer.Finish());
  GRNN_ASSIGN_OR_RETURN(file.first_page_, writer.first_page());
  file.num_pages_ = writer.pages_flushed_or_open();
  return file;
}

Result<std::span<const AdjEntry>> GraphFile::ScanNeighbors(
    BufferPool* pool, NodeId n, graph::NeighborCursor& cursor) const {
  if (n >= degrees_.size()) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  if (pool == nullptr) {
    return Status::InvalidArgument("buffer pool is null");
  }
  std::vector<AdjEntry>& scratch = cursor.scratch_;
  GRNN_RETURN_NOT_OK(layout_ == PageLayout::kV2Aligned
                         ? AssembleV2(pool, n, scratch)
                         : ScanV1(pool, n, scratch));
  // The expansions index id-sized arrays by neighbor id and add weights
  // to distances: a flipped record must stop here, not there.
  for (const AdjEntry& a : scratch) {
    if (a.node >= num_nodes() || !graph::ValidEdgeWeight(a.weight)) {
      return Status::Corruption(
          StrPrintf("adjacency list of node %u holds record (%u, %g)", n,
                    a.node, a.weight));
    }
  }
  return std::span<const AdjEntry>(scratch);
}

Status GraphFile::AssembleV2(BufferPool* pool, NodeId n,
                             std::vector<AdjEntry>& scratch) const {
  const uint32_t degree = degrees_[n];
  scratch.resize(degree);
  uint64_t off = offsets_[n];
  size_t filled = 0;
  while (filled < degree) {
    const PageId page =
        first_page_ + static_cast<PageId>(off / page_size_);
    const size_t in_page = static_cast<size_t>(off % page_size_);
    const size_t take = std::min<size_t>(
        degree - filled, (page_size_ - in_page) / kV2RecordBytes);
    GRNN_ASSIGN_OR_RETURN(PageGuard guard, pool->Acquire(page));
    V2PageHeader header;
    std::memcpy(&header, guard.data(), sizeof(header));
    const size_t first_slot = (in_page - kV2HeaderBytes) / kV2RecordBytes;
    if (header.magic != kV2Magic || header.entry_count < first_slot + take) {
      return Status::Corruption(StrPrintf(
          "graph page %u has a bad v2 header (magic %08x, %u entries) "
          "for node %u",
          page, header.magic, header.entry_count, n));
    }
    std::memcpy(scratch.data() + filled, guard.data() + in_page,
                take * kV2RecordBytes);
    filled += take;
    // Continuation records start behind the next page's header.
    off = (off / page_size_ + 1) * page_size_ + kV2HeaderBytes;
  }
  return Status::OK();
}

Status GraphFile::ScanV1(BufferPool* pool, NodeId n,
                         std::vector<AdjEntry>& scratch) const {
  const uint32_t degree = degrees_[n];
  scratch.clear();
  scratch.reserve(degree);

  uint64_t pos = offsets_[n];
  size_t bytes_left = degree * kAdjEntryBytes;
  uint8_t entry[kAdjEntryBytes];
  size_t entry_fill = 0;

  while (bytes_left > 0) {
    const PageId page =
        first_page_ + static_cast<PageId>(pos / page_size_);
    const size_t in_page = static_cast<size_t>(pos % page_size_);
    GRNN_ASSIGN_OR_RETURN(PageGuard guard, pool->Acquire(page));
    const uint8_t* data = guard.data();
    size_t avail = std::min(bytes_left, page_size_ - in_page);
    size_t offset = in_page;
    while (avail > 0) {
      size_t need = kAdjEntryBytes - entry_fill;
      size_t take = std::min(need, avail);
      std::memcpy(entry + entry_fill, data + offset, take);
      entry_fill += take;
      offset += take;
      avail -= take;
      pos += take;
      bytes_left -= take;
      if (entry_fill == kAdjEntryBytes) {
        AdjEntry a;
        std::memcpy(&a.node, entry, sizeof(uint32_t));
        std::memcpy(&a.weight, entry + sizeof(uint32_t), sizeof(double));
        scratch.push_back(a);
        entry_fill = 0;
      }
    }
  }
  return Status::OK();
}

size_t GraphFile::PagesSpanned(NodeId n) const {
  GRNN_CHECK(n < degrees_.size());
  if (degrees_[n] == 0) {
    return 1;
  }
  if (layout_ == PageLayout::kV2Aligned) {
    const uint64_t off = offsets_[n];
    const size_t in_page = static_cast<size_t>(off % page_size_);
    const size_t slots_first = (page_size_ - in_page) / kV2RecordBytes;
    if (degrees_[n] <= slots_first) {
      return 1;
    }
    const size_t rest = degrees_[n] - slots_first;
    return 2 + (rest - 1) / V2SlotsPerPage();
  }
  const uint64_t begin = offsets_[n];
  const uint64_t end = begin + degrees_[n] * kAdjEntryBytes;
  return static_cast<size_t>((end - 1) / page_size_ - begin / page_size_) +
         1;
}

}  // namespace grnn::storage
