#include "index/label_file.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "obs/trace.h"

namespace grnn::index {

namespace {

// Encoded size bounds of one label entry: a 1-5 byte varint hub-id delta
// plus the raw 8-byte distance.
constexpr uint64_t kMinEntryBytes = 1 + sizeof(Weight);
constexpr uint64_t kMaxEntryBytes = 5 + sizeof(Weight);

// LEB128 varint (unsigned, 32-bit): 7 payload bits per byte, high bit
// marks continuation. Hub-id deltas within a label are small (separator
// orders cluster them), so most encode to 1-2 bytes.
void AppendVarint32(std::vector<uint8_t>& out, uint32_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

// Serializes one label as its blob: varint deltas of the (sorted,
// strictly increasing) hub ids — the first id absolute — then the
// distances as raw 8-byte doubles.
void EncodeLabel(std::span<const HubEntry> label, std::vector<uint8_t>& out) {
  out.clear();
  uint32_t prev = 0;
  for (const HubEntry& e : label) {
    AppendVarint32(out, e.hub - prev);
    prev = e.hub;
  }
  for (const HubEntry& e : label) {
    const size_t at = out.size();
    out.resize(at + sizeof(Weight));
    std::memcpy(out.data() + at, &e.dist, sizeof(Weight));
  }
}

// Decodes a blob of `count` entries into HubEntry records. Every hub id
// must name one of the file's `num_nodes` nodes and the ids must
// strictly increase — the invariants the label primitives index by.
Status DecodeLabel(const uint8_t* blob, size_t nbytes, uint32_t count,
                   NodeId num_nodes, std::vector<HubEntry>& out) {
  out.resize(count);
  size_t at = 0;
  uint64_t hub = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    for (int shift = 0;; shift += 7) {
      if (at >= nbytes) {
        return Status::Corruption("truncated varint in label blob");
      }
      const uint8_t byte = blob[at++];
      if (shift == 28 && byte > 0x0fu) {
        return Status::Corruption("varint in label blob overflows 32 bits");
      }
      delta |= static_cast<uint32_t>(byte & 0x7fu) << shift;
      if ((byte & 0x80u) == 0) {
        break;
      }
    }
    if (i > 0 && delta == 0) {
      return Status::Corruption("hub ids in label blob do not increase");
    }
    hub += delta;
    if (hub >= num_nodes) {
      return Status::Corruption(
          StrPrintf("label blob names hub %llu of a %u-node file",
                    static_cast<unsigned long long>(hub), num_nodes));
    }
    out[i].hub = static_cast<NodeId>(hub);
  }
  if (nbytes - at != static_cast<size_t>(count) * sizeof(Weight)) {
    return Status::Corruption(
        StrPrintf("label blob has %zu distance bytes, want %zu",
                  nbytes - at,
                  static_cast<size_t>(count) * sizeof(Weight)));
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(&out[i].dist, blob + at + i * sizeof(Weight),
                sizeof(Weight));
  }
  return Status::OK();
}

// Checks that directory entry `e` of node `v` can be read back: its
// length fits its entry count, and every page its blob occupies —
// continuation bytes resume behind each page header, as
// AssembleStraddling reads them — lies in the data pages
// [data_begin, data_end) (page indices relative to the header page).
Status CheckDirectoryEntry(const LabelDirectoryEntry& e, size_t v,
                           size_t page_size, uint64_t data_begin,
                           uint64_t data_end) {
  if (e.bytes < kMinEntryBytes * e.count ||
      e.bytes > kMaxEntryBytes * e.count) {
    return Status::Corruption(
        StrPrintf("label directory entry %zu: %u bytes cannot hold %u "
                  "entries",
                  v, e.bytes, e.count));
  }
  if (e.bytes == 0) {
    return Status::OK();  // an empty label reads no page
  }
  const uint64_t page = e.offset / page_size;
  const size_t in_page = static_cast<size_t>(e.offset % page_size);
  const size_t first = std::min<size_t>(e.bytes, page_size - in_page);
  const size_t capacity = page_size - kLabelPageHeaderBytes;
  const uint64_t last_page = page + (e.bytes - first + capacity - 1) / capacity;
  if (page < data_begin || in_page < kLabelPageHeaderBytes ||
      last_page >= data_end) {
    return Status::Corruption(StrPrintf(
        "label directory entry %zu: blob at byte %llu (+%u) lies outside "
        "the data pages",
        v, static_cast<unsigned long long>(e.offset), e.bytes));
  }
  return Status::OK();
}

}  // namespace

Result<LabelFile> LabelFile::Build(const HubLabelIndex& index,
                                   storage::DiskManager* disk) {
  if (disk == nullptr) {
    return Status::InvalidArgument("disk manager is null");
  }
  const NodeId n = index.num_nodes();
  if (n == 0) {
    return Status::InvalidArgument("cannot store an empty label index");
  }
  const size_t page_size = disk->page_size();
  if (page_size < sizeof(LabelFileHeader) ||
      page_size < kLabelPageHeaderBytes + kMaxEntryBytes) {
    return Status::InvalidArgument(StrPrintf(
        "page size %zu cannot hold the label file headers plus one "
        "entry",
        page_size));
  }

  LabelFile file;
  file.page_size_ = page_size;
  file.num_entries_ = index.num_entries();
  file.first_page_ = kInvalidPage;
  file.offsets_.assign(n, 0);
  file.counts_.assign(n, 0);
  file.bytes_.assign(n, 0);

  const size_t dir_per_page = page_size / sizeof(LabelDirectoryEntry);
  const size_t dir_pages = (n + dir_per_page - 1) / dir_per_page;
  const size_t capacity = page_size - kLabelPageHeaderBytes;

  // Lay the data region out first (same pad rule as GraphFile: a blob
  // that fits a page never straddles a boundary), so the directory can
  // be written in one forward pass.
  const uint64_t data_start =
      static_cast<uint64_t>(1 + dir_pages) * page_size;
  uint64_t data_pages = 0;
  size_t byte_fill = 0;
  std::vector<uint8_t> blob;
  for (NodeId v = 0; v < n; ++v) {
    EncodeLabel(index.Label(v), blob);
    const size_t len = blob.size();
    file.counts_[v] = static_cast<uint32_t>(index.LabelSize(v));
    file.bytes_[v] = static_cast<uint32_t>(len);
    if (len > 0 && len <= capacity && len > capacity - byte_fill) {
      data_pages++;  // pad: the blob starts on a fresh page
      byte_fill = 0;
    }
    file.offsets_[v] = data_start + data_pages * page_size +
                       kLabelPageHeaderBytes + byte_fill;
    size_t remaining = len;
    while (remaining > 0) {
      const size_t take = std::min(remaining, capacity - byte_fill);
      byte_fill += take;
      remaining -= take;
      if (byte_fill == capacity) {
        data_pages++;
        byte_fill = 0;
      }
    }
  }
  if (byte_fill > 0) {
    data_pages++;
  }
  file.num_pages_ = 1 + dir_pages + data_pages;

  // Allocate the whole range up front; the writes below go straight to
  // the disk manager (construction is offline, like GraphFile::Build).
  for (size_t i = 0; i < file.num_pages_; ++i) {
    GRNN_ASSIGN_OR_RETURN(PageId id, disk->AllocatePage());
    if (file.first_page_ == kInvalidPage) {
      file.first_page_ = id;
    } else if (id != file.first_page_ + i) {
      return Status::Internal("label file pages are not contiguous");
    }
  }

  std::vector<uint8_t> buffer(page_size, 0);

  // Header page.
  LabelFileHeader header;
  header.magic = kLabelFileMagic;
  header.version = kLabelFileVersion;
  header.num_nodes = n;
  header.directory_pages = static_cast<uint32_t>(dir_pages);
  header.num_entries = file.num_entries_;
  header.data_pages = data_pages;
  std::memcpy(buffer.data(), &header, sizeof(header));
  GRNN_RETURN_NOT_OK(disk->WritePage(file.first_page_, buffer.data()));

  // Directory pages.
  for (size_t dp = 0; dp < dir_pages; ++dp) {
    std::memset(buffer.data(), 0, page_size);
    const size_t begin = dp * dir_per_page;
    const size_t end = std::min<size_t>(n, begin + dir_per_page);
    for (size_t v = begin; v < end; ++v) {
      LabelDirectoryEntry entry;
      entry.offset = file.offsets_[v];
      entry.count = file.counts_[v];
      entry.bytes = file.bytes_[v];
      std::memcpy(buffer.data() + (v - begin) * sizeof(entry), &entry,
                  sizeof(entry));
    }
    GRNN_RETURN_NOT_OK(disk->WritePage(
        file.first_page_ + static_cast<PageId>(1 + dp), buffer.data()));
  }

  // Data pages: replay the layout pass, now copying blob bytes.
  std::memset(buffer.data(), 0, page_size);
  uint64_t page_index = 0;
  byte_fill = 0;
  auto flush_page = [&]() -> Status {
    LabelPageHeader ph;
    ph.magic = kLabelPageMagic;
    ph.used_bytes = static_cast<uint32_t>(byte_fill);
    std::memcpy(buffer.data(), &ph, sizeof(ph));
    GRNN_RETURN_NOT_OK(disk->WritePage(
        file.first_page_ + static_cast<PageId>(1 + dir_pages + page_index),
        buffer.data()));
    std::memset(buffer.data(), 0, page_size);
    page_index++;
    byte_fill = 0;
    return Status::OK();
  };
  for (NodeId v = 0; v < n; ++v) {
    EncodeLabel(index.Label(v), blob);
    if (!blob.empty() && blob.size() <= capacity &&
        blob.size() > capacity - byte_fill) {
      GRNN_RETURN_NOT_OK(flush_page());
    }
    size_t copied = 0;
    while (copied < blob.size()) {
      const size_t take =
          std::min(blob.size() - copied, capacity - byte_fill);
      std::memcpy(buffer.data() + kLabelPageHeaderBytes + byte_fill,
                  blob.data() + copied, take);
      byte_fill += take;
      copied += take;
      if (byte_fill == capacity) {
        GRNN_RETURN_NOT_OK(flush_page());
      }
    }
  }
  if (byte_fill > 0) {
    GRNN_RETURN_NOT_OK(flush_page());
  }
  if (page_index != data_pages) {
    return Status::Internal(
        "label file layout and write passes disagree");
  }
  return file;
}

Result<LabelFile> LabelFile::Open(storage::DiskManager* disk,
                                  PageId first_page) {
  if (disk == nullptr) {
    return Status::InvalidArgument("disk manager is null");
  }
  if (first_page >= disk->num_pages()) {
    return Status::OutOfRange("label file header page out of range");
  }
  const size_t page_size = disk->page_size();
  std::vector<uint8_t> buffer(page_size, 0);
  GRNN_RETURN_NOT_OK(disk->ReadPage(first_page, buffer.data()));
  if (page_size < sizeof(LabelFileHeader)) {
    return Status::Corruption("page size cannot hold a label header");
  }
  LabelFileHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  if (header.magic != kLabelFileMagic) {
    return Status::Corruption(
        StrPrintf("bad label file magic 0x%08x", header.magic));
  }
  if (header.version != kLabelFileVersion) {
    return Status::Corruption(
        StrPrintf("unsupported label file version %u", header.version));
  }

  if (header.data_pages > disk->num_pages() ||
      uint64_t{first_page} + 1 + header.directory_pages +
              header.data_pages >
          disk->num_pages()) {
    return Status::Corruption(
        "label file extends past the end of the disk");
  }
  LabelFile file;
  file.page_size_ = page_size;
  file.num_entries_ = header.num_entries;
  file.num_pages_ = 1 + header.directory_pages + header.data_pages;
  file.first_page_ = first_page;
  const size_t dir_per_page = page_size / sizeof(LabelDirectoryEntry);
  if (header.directory_pages !=
      (static_cast<size_t>(header.num_nodes) + dir_per_page - 1) /
          dir_per_page) {
    return Status::Corruption(
        StrPrintf("%u directory pages cannot index %u nodes",
                  header.directory_pages, header.num_nodes));
  }
  file.offsets_.assign(header.num_nodes, 0);
  file.counts_.assign(header.num_nodes, 0);
  file.bytes_.assign(header.num_nodes, 0);

  const uint64_t data_begin = 1 + header.directory_pages;
  size_t entries_seen = 0;
  for (uint32_t dp = 0; dp < header.directory_pages; ++dp) {
    GRNN_RETURN_NOT_OK(
        disk->ReadPage(first_page + 1 + dp, buffer.data()));
    const size_t begin = static_cast<size_t>(dp) * dir_per_page;
    const size_t end =
        std::min<size_t>(header.num_nodes, begin + dir_per_page);
    for (size_t v = begin; v < end; ++v) {
      LabelDirectoryEntry entry;
      std::memcpy(&entry, buffer.data() + (v - begin) * sizeof(entry),
                  sizeof(entry));
      GRNN_RETURN_NOT_OK(CheckDirectoryEntry(entry, v, page_size,
                                             data_begin, file.num_pages_));
      file.offsets_[v] = entry.offset;
      file.counts_[v] = entry.count;
      file.bytes_[v] = entry.bytes;
      entries_seen += entry.count;
    }
  }
  if (entries_seen != header.num_entries) {
    return Status::Corruption(
        StrPrintf("label directory sums to %zu entries, header says %llu",
                  entries_seen,
                  static_cast<unsigned long long>(header.num_entries)));
  }
  return file;
}

Result<std::span<const HubEntry>> LabelFile::ScanLabel(
    storage::BufferPool* pool, NodeId n, LabelCursor& cursor) const {
  if (n >= counts_.size()) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  if (pool == nullptr) {
    return Status::InvalidArgument("buffer pool is null");
  }
  // Armed-trace child span (obs/trace.h): label-file scans are the
  // stored-label read path; the pool's Acquire notes its pins onto
  // this span. One nullptr branch when disarmed.
  obs::ScopedSpan span(obs::CurrentTrace(), "label.scan");
  if (span.armed()) {
    span.Note("entries", counts_[n]);
  }
  const uint32_t count = counts_[n];
  if (count == 0) {
    return std::span<const HubEntry>();
  }
  const uint32_t nbytes = bytes_[n];
  const uint64_t off = offsets_[n];
  const size_t in_page = static_cast<size_t>(off % page_size_);
  if (nbytes <= page_size_ - in_page) {
    // Whole blob on one page: decode straight out of the frame; the
    // guard drops the pin on return.
    const PageId page =
        first_page_ + static_cast<PageId>(off / page_size_);
    GRNN_ASSIGN_OR_RETURN(storage::PageGuard guard, pool->Acquire(page));
    GRNN_RETURN_NOT_OK(DecodeLabel(guard.data() + in_page, nbytes, count,
                                   num_nodes(), cursor.scratch_));
  } else {
    std::vector<uint8_t> blob;
    GRNN_RETURN_NOT_OK(AssembleStraddling(pool, n, blob));
    GRNN_RETURN_NOT_OK(
        DecodeLabel(blob.data(), nbytes, count, num_nodes(), cursor.scratch_));
  }
  return std::span<const HubEntry>(cursor.scratch_.data(), count);
}

Status LabelFile::AssembleStraddling(storage::BufferPool* pool, NodeId n,
                                     std::vector<uint8_t>& out) const {
  const uint32_t nbytes = bytes_[n];
  out.resize(nbytes);
  uint64_t off = offsets_[n];
  size_t filled = 0;
  while (filled < nbytes) {
    const PageId page =
        first_page_ + static_cast<PageId>(off / page_size_);
    const size_t in_page = static_cast<size_t>(off % page_size_);
    const size_t take =
        std::min<size_t>(nbytes - filled, page_size_ - in_page);
    GRNN_ASSIGN_OR_RETURN(storage::PageGuard guard, pool->Acquire(page));
    std::memcpy(out.data() + filled, guard.data() + in_page, take);
    filled += take;
    // Continuation bytes start behind the next page's header.
    off = (off / page_size_ + 1) * page_size_ + kLabelPageHeaderBytes;
  }
  return Status::OK();
}

}  // namespace grnn::index
