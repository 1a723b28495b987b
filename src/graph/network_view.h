// Copyright (c) GRNN authors.
// NetworkView: the access interface all RNN algorithms run against.
//
// Two implementations exist: GraphView (in-memory CSR, used by unit tests
// and small examples) and storage::StoredGraph (paged adjacency file behind
// a buffer pool, used by the benchmarks so that page accesses are counted
// exactly as in the paper). Algorithms never know which one they are given;
// a conformance test asserts all implementations produce identical scans.
//
// Neighbor access is a cursor model (PR 4): Scan(n, cursor) yields a
// std::span<const AdjEntry> instead of copying into a caller vector.
//   * GraphView returns a span straight into the CSR arrays — zero copy,
//     zero allocation per scan.
//   * StoredGraph decodes the list out of its pages into the cursor's
//     scratch buffer and unpins them before Scan returns, so no
//     buffer-pool pin outlives a Scan.
// Either way the span points into memory the CSR or the cursor owns,
// and a warm cursor performs no allocation per scan.
//
// Cursor lifetime rules (full discussion in DESIGN.md, "Neighbor access
// path"):
//   * The span returned by Scan stays valid until the NEXT Scan through
//     the same cursor or cursor destruction, whichever comes first.
//     Nested expansions must therefore use their own cursor
//     (SearchWorkspace carries one per concurrently-live expansion).
//   * A cursor is single-owner mutable state: one thread at a time.

#ifndef GRNN_GRAPH_NETWORK_VIEW_H_
#define GRNN_GRAPH_NETWORK_VIEW_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "graph/graph.h"

namespace grnn::storage {
class GraphFile;  // decodes stored lists into a NeighborCursor
}  // namespace grnn::storage

namespace grnn::graph {

/// \brief Per-expansion neighbor scan state: a reusable decode buffer
/// that backs the spans of disk-backed views. Create once (it lives in
/// SearchWorkspace or on the stack of a maintenance routine) and pass to
/// every Scan of one expansion; warm cursors allocate nothing.
class NeighborCursor {
 public:
  NeighborCursor() = default;
  NeighborCursor(NeighborCursor&&) noexcept = default;
  NeighborCursor& operator=(NeighborCursor&&) noexcept = default;
  NeighborCursor(const NeighborCursor&) = delete;
  NeighborCursor& operator=(const NeighborCursor&) = delete;

  /// Element capacity of the decode buffer (workspace-growth accounting).
  size_t scratch_capacity() const { return scratch_.capacity(); }

 private:
  friend class storage::GraphFile;

  std::vector<AdjEntry> scratch_;
};

/// \brief Abstract adjacency access for query processing.
class NetworkView {
 public:
  virtual ~NetworkView() = default;

  virtual NodeId num_nodes() const = 0;
  virtual size_t num_edges() const = 0;

  /// Scans the adjacency list of `n`, sorted by neighbor id. The span is
  /// valid until the next Scan through `cursor` or cursor destruction.
  /// Disk-backed implementations charge buffer-pool I/O here and hold no
  /// pin once Scan returns.
  virtual Result<std::span<const AdjEntry>> Scan(
      NodeId n, NeighborCursor& cursor) const = 0;
};

/// \brief Zero-cost NetworkView over an in-memory Graph.
class GraphView final : public NetworkView {
 public:
  /// \param g must outlive the view.
  explicit GraphView(const Graph* g) : g_(g) { GRNN_CHECK(g != nullptr); }

  NodeId num_nodes() const override { return g_->num_nodes(); }
  size_t num_edges() const override { return g_->num_edges(); }

  Result<std::span<const AdjEntry>> Scan(
      NodeId n, NeighborCursor& /*cursor*/) const override {
    if (n >= g_->num_nodes()) {
      return Status::OutOfRange("node id out of range");
    }
    return g_->Neighbors(n);
  }

  const Graph& graph() const { return *g_; }

 private:
  const Graph* g_;
};

}  // namespace grnn::graph

#endif  // GRNN_GRAPH_NETWORK_VIEW_H_
