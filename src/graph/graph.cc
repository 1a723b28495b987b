#include "graph/graph.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"

namespace grnn::graph {

Result<Graph> Graph::FromEdges(NodeId num_nodes,
                               const std::vector<Edge>& edges) {
  Graph g;
  g.num_nodes_ = num_nodes;
  g.num_edges_ = edges.size();

  std::vector<size_t> degree(num_nodes, 0);
  for (const Edge& e : edges) {
    if (e.u >= num_nodes || e.v >= num_nodes) {
      return Status::InvalidArgument(
          StrPrintf("edge (%u,%u) out of range for %u nodes", e.u, e.v,
                    num_nodes));
    }
    if (e.u == e.v) {
      return Status::InvalidArgument(
          StrPrintf("self-loop on node %u", e.u));
    }
    if (!ValidEdgeWeight(e.w)) {
      return Status::InvalidArgument(
          StrPrintf("edge (%u,%u) has non-positive weight %f", e.u, e.v,
                    e.w));
    }
    degree[e.u]++;
    degree[e.v]++;
  }

  g.offsets_.assign(num_nodes + 1, 0);
  for (NodeId n = 0; n < num_nodes; ++n) {
    g.offsets_[n + 1] = g.offsets_[n] + degree[n];
  }
  g.adj_.resize(2 * edges.size());

  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges) {
    g.adj_[cursor[e.u]++] = AdjEntry{e.v, e.w};
    g.adj_[cursor[e.v]++] = AdjEntry{e.u, e.w};
  }

  for (NodeId n = 0; n < num_nodes; ++n) {
    auto begin = g.adj_.begin() + static_cast<long>(g.offsets_[n]);
    auto end = g.adj_.begin() + static_cast<long>(g.offsets_[n + 1]);
    std::sort(begin, end, [](const AdjEntry& a, const AdjEntry& b) {
      return a.node < b.node;
    });
    for (auto it = begin; it + 1 < end; ++it) {
      if (it->node == (it + 1)->node) {
        return Status::InvalidArgument(
            StrPrintf("duplicate edge (%u,%u)", n, it->node));
      }
    }
  }
  return g;
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes_ || v >= num_nodes_) {
    return false;
  }
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), v,
      [](const AdjEntry& a, NodeId id) { return a.node < id; });
  return it != nbrs.end() && it->node == v;
}

Result<Weight> Graph::EdgeWeight(NodeId u, NodeId v) const {
  if (u >= num_nodes_ || v >= num_nodes_) {
    return Status::InvalidArgument("endpoint out of range");
  }
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), v,
      [](const AdjEntry& a, NodeId id) { return a.node < id; });
  if (it == nbrs.end() || it->node != v) {
    return Status::NotFound(StrPrintf("no edge (%u,%u)", u, v));
  }
  return it->weight;
}

std::vector<Edge> Graph::CollectEdges() const {
  std::vector<Edge> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (const AdjEntry& a : Neighbors(u)) {
      if (u < a.node) {
        out.push_back(Edge{u, a.node, a.weight});
      }
    }
  }
  return out;
}

}  // namespace grnn::graph
