#include "storage/graph_file.h"

#include <cstring>

#include "common/string_util.h"

namespace grnn::storage {

namespace {

// Appends raw bytes to a page-building stream, allocating pages on demand.
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

// Decodes one packed record in place (no alignment assumed).
AdjEntry DecodeRecord(const uint8_t* p) {
  AdjEntry a;
  std::memcpy(&a.node, p, sizeof(uint32_t));
  std::memcpy(&a.weight, p + sizeof(uint32_t), sizeof(double));
  return a;
}

}  // namespace

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
  file.page_size_ = disk->page_size();
  file.num_edges_ = g.num_edges();
  file.offsets_.assign(g.num_nodes(), 0);
  file.degrees_.assign(g.num_nodes(), 0);

  std::vector<NodeId> order =
      ComputeNodeOrder(g, options.order, options.seed);

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
  scratch.resize(degrees_[n]);
  AdjEntry* out = scratch.data();
  uint64_t pos = offsets_[n];
  size_t bytes_left = scratch.size() * kAdjEntryBytes;
  // Head bytes of a record split by the previous page's boundary. Its
  // tail always fits on the next page (pages hold at least 64 bytes).
  uint8_t carry[kAdjEntryBytes];
  size_t carry_fill = 0;
  while (bytes_left > 0) {
    const PageId page =
        first_page_ + static_cast<PageId>(pos / page_size_);
    const size_t in_page = static_cast<size_t>(pos % page_size_);
    const size_t avail = std::min(bytes_left, page_size_ - in_page);
    GRNN_ASSIGN_OR_RETURN(PageGuard guard, pool->Acquire(page));
    const uint8_t* data = guard.data();
    size_t off = in_page;
    const size_t stop = in_page + avail;
    if (carry_fill > 0) {
      const size_t tail = kAdjEntryBytes - carry_fill;
      std::memcpy(carry + carry_fill, data + off, tail);
      *out++ = DecodeRecord(carry);
      off += tail;
    }
    for (; off + kAdjEntryBytes <= stop; off += kAdjEntryBytes) {
      *out++ = DecodeRecord(data + off);
    }
    carry_fill = stop - off;
    std::memcpy(carry, data + off, carry_fill);
    pos += avail;
    bytes_left -= avail;
  }
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

size_t GraphFile::PagesSpanned(NodeId n) const {
  GRNN_CHECK(n < degrees_.size());
  if (degrees_[n] == 0) {
    return 1;
  }
  const uint64_t begin = offsets_[n];
  const uint64_t end = begin + degrees_[n] * kAdjEntryBytes;
  return static_cast<size_t>((end - 1) / page_size_ - begin / page_size_) +
         1;
}

}  // namespace grnn::storage
