// Copyright (c) GRNN authors.
// GraphFile: the paper's disk organization for large graphs (Section 3.1,
// Fig 3b): adjacency lists packed into pages in a locality-preserving
// order, plus a memory-resident index mapping node id -> list location.
//
// Each adjacency entry is one packed 12-byte record, (neighbor: uint32,
// weight: double), written back to back; pages carry no header. Lists
// never straddle a page boundary unless they are longer than a whole
// page; the tail of a page that cannot fit the next list is left as
// padding, exactly like slotted grouping in the paper's scheme.
//
// A scan decodes the list into the cursor's scratch. Records that lie
// wholly inside a page are decoded in place from the frame; only a
// record split by a page boundary, which only a list longer than a page
// can have, is assembled in a 12-byte carry. Each page is pinned only
// while it is decoded, so no pin outlives ScanNeighbors, and a returned
// span points into memory the cursor owns. The decoder rejects records
// no Graph can hold (a neighbor id past num_nodes(), a weight that is
// not finite and positive) with Corruption.

#ifndef GRNN_STORAGE_GRAPH_FILE_H_
#define GRNN_STORAGE_GRAPH_FILE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "graph/graph.h"
#include "graph/network_view.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/partitioner.h"

namespace grnn::storage {

/// Size of one adjacency record on a page (uint32 id + double weight).
inline constexpr size_t kAdjEntryBytes = sizeof(uint32_t) + sizeof(double);

struct GraphFileOptions {
  NodeOrder order = NodeOrder::kBfs;
  /// Seed for NodeOrder::kRandom.
  uint64_t seed = 42;
};

/// \brief Paged adjacency-list file with a memory-resident node index.
class GraphFile {
 public:
  /// Serializes `g` into fresh pages of `disk`. A list that fits on one
  /// page never straddles two: the rest of a page that cannot hold the
  /// next list is padding.
  static Result<GraphFile> Build(const graph::Graph& g, DiskManager* disk,
                                 const GraphFileOptions& options = {});

  /// Scans the adjacency list of `n` through `pool`, charging page I/O.
  /// The entries are copied into the cursor's scratch and every page pin
  /// is dropped before returning; the span stays valid until the next
  /// scan through `cursor` or its destruction (see network_view.h).
  /// Corruption when a record read is impossible.
  Result<std::span<const AdjEntry>> ScanNeighbors(
      BufferPool* pool, NodeId n, graph::NeighborCursor& cursor) const;

  NodeId num_nodes() const { return static_cast<NodeId>(degrees_.size()); }
  size_t num_edges() const { return num_edges_; }
  uint32_t Degree(NodeId n) const { return degrees_[n]; }

  /// Pages occupied by adjacency data.
  size_t num_pages() const { return num_pages_; }
  /// First page id of this file inside the disk manager.
  PageId first_page() const { return first_page_; }

  /// Distinct pages the list of `n` occupies (>=1); exposed for tests.
  size_t PagesSpanned(NodeId n) const;

 private:
  GraphFile() = default;

  size_t page_size_ = 0;
  size_t num_edges_ = 0;
  size_t num_pages_ = 0;
  PageId first_page_ = kInvalidPage;
  // Node index (memory-resident, as in Fig 3b): byte offset of each list
  // within this file's page range, plus its length in entries.
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> degrees_;
};

}  // namespace grnn::storage

#endif  // GRNN_STORAGE_GRAPH_FILE_H_
