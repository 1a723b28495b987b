// Copyright (c) GRNN authors.
// StoredGraph: NetworkView over a paged GraphFile + BufferPool, so that
// RNN algorithms transparently pay (and SearchStats reports) page I/O.

#ifndef GRNN_STORAGE_STORED_GRAPH_H_
#define GRNN_STORAGE_STORED_GRAPH_H_

#include <span>

#include "graph/network_view.h"
#include "storage/buffer_pool.h"
#include "storage/graph_file.h"

namespace grnn::storage {

/// \brief Disk-backed NetworkView. Every Scan goes through the buffer
/// pool; misses count as the paper's page accesses. A scan copies the
/// list into the cursor's scratch and unpins its pages before returning
/// (see network_view.h for the lifetime rules).
class StoredGraph final : public graph::NetworkView {
 public:
  /// \param file, pool must outlive the view.
  StoredGraph(const GraphFile* file, BufferPool* pool)
      : file_(file), pool_(pool) {
    GRNN_CHECK(file != nullptr);
    GRNN_CHECK(pool != nullptr);
  }

  NodeId num_nodes() const override { return file_->num_nodes(); }
  size_t num_edges() const override { return file_->num_edges(); }

  Result<std::span<const AdjEntry>> Scan(
      NodeId n, graph::NeighborCursor& cursor) const override {
    return file_->ScanNeighbors(pool_, n, cursor);
  }

  BufferPool* pool() const { return pool_; }
  const GraphFile& file() const { return *file_; }

 private:
  const GraphFile* file_;
  BufferPool* pool_;
};

}  // namespace grnn::storage

#endif  // GRNN_STORAGE_STORED_GRAPH_H_
