// Copyright (c) GRNN authors.
// In-memory undirected weighted graph in CSR (compressed sparse row) form.
//
// This is the construction-time representation: generators build a Graph,
// the storage layer packs it into pages (storage::GraphFile), and unit
// tests run algorithms directly against it through graph::GraphView.

#ifndef GRNN_GRAPH_GRAPH_H_
#define GRNN_GRAPH_GRAPH_H_

#include <cmath>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

namespace grnn::graph {

/// True for a weight the graph model allows: finite and strictly
/// positive (false for NaN).
inline bool ValidEdgeWeight(Weight w) { return w > 0 && std::isfinite(w); }

/// \brief Immutable undirected weighted graph, CSR layout.
///
/// Nodes are dense ids in [0, num_nodes). Edges are simple (no self-loops,
/// no parallel edges) with strictly positive weights, matching the paper's
/// graph model G = (V, E, W).
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an edge list.
  ///
  /// Returns InvalidArgument for out-of-range endpoints, self-loops,
  /// duplicate edges (in either orientation) or non-positive weights.
  static Result<Graph> FromEdges(NodeId num_nodes,
                                 const std::vector<Edge>& edges);

  NodeId num_nodes() const { return num_nodes_; }
  /// Number of undirected edges.
  size_t num_edges() const { return num_edges_; }

  /// Neighbors of `n` with edge weights, sorted by neighbor id.
  std::span<const AdjEntry> Neighbors(NodeId n) const {
    GRNN_DCHECK(n < num_nodes_);
    return {adj_.data() + offsets_[n], offsets_[n + 1] - offsets_[n]};
  }

  size_t Degree(NodeId n) const {
    GRNN_DCHECK(n < num_nodes_);
    return offsets_[n + 1] - offsets_[n];
  }

  double AverageDegree() const {
    return num_nodes_ == 0 ? 0.0
                           : 2.0 * static_cast<double>(num_edges_) /
                                 static_cast<double>(num_nodes_);
  }

  bool HasEdge(NodeId u, NodeId v) const;

  /// Weight of edge (u, v); NotFound if absent.
  Result<Weight> EdgeWeight(NodeId u, NodeId v) const;

  /// All edges in canonical (u < v) form, sorted.
  std::vector<Edge> CollectEdges() const;

 private:
  NodeId num_nodes_ = 0;
  size_t num_edges_ = 0;
  std::vector<size_t> offsets_;  // num_nodes_ + 1 entries
  std::vector<AdjEntry> adj_;    // 2 * num_edges_ entries
};

}  // namespace grnn::graph

#endif  // GRNN_GRAPH_GRAPH_H_
