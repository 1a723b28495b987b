#include "core/lazy.h"

#include <algorithm>
#include <unordered_map>

#include "common/indexed_heap.h"
#include "common/numeric.h"
#include "core/primitives.h"
#include "core/workspace.h"

namespace grnn::core {

namespace {

using Heap = IndexedHeap<Weight, NodeId>;

// Per-node bookkeeping: the paper's in-memory hash table (Fig 6) extended
// with the RkNN counters of Fig 7.
struct NodeBook {
  explicit NodeBook(size_t k) : competitor_dists(k) {}

  // Distances from verified data points to this node (k smallest).
  KSmallest competitor_dists;
  bool visited = false;
  bool children_erased = false;
  Weight dist_q = kInfinity;          // d(query, node), set when visited
  std::vector<Heap::Handle> children;  // heap entries inserted by this node
};

// Search state on top of a SearchWorkspace: the main heap, the query
// marks, the verification scratch and the point memo all come from the
// workspace; only the per-node book (sized by the visited region, not the
// graph) is query-local.
class LazyState {
 public:
  LazyState(const graph::NetworkView& g, const NodePointSet& points,
            std::span<const NodeId> query_nodes, const RknnOptions& options,
            SearchWorkspace& ws)
      : g_(g), points_(points), options_(options), ws_(ws) {
    ws_.StartExpansion(g.num_nodes());
    ws_.mark.Reset(g.num_nodes());
    ws_.seen_points.clear();
    for (NodeId q : query_nodes) {
      ws_.mark.Insert(q);
    }
  }

  Result<RknnResult> Run(std::span<const NodeId> query_nodes);

 private:
  NodeBook& BookOf(NodeId n) {
    auto it = book_.find(n);
    if (it == book_.end()) {
      it = book_.emplace(n, NodeBook(static_cast<size_t>(options_.k)))
               .first;
    }
    return it->second;
  }

  // Verification around `candidate` (hosted on `host`, d(host, query) =
  // `d_query`). Returns RkNN membership; as a side effect performs the
  // count/erase bookkeeping on every node it settles.
  Result<bool> VerifyWithBookkeeping(PointId candidate, NodeId host,
                                     Weight d_query);

  const graph::NetworkView& g_;
  const NodePointSet& points_;
  const RknnOptions& options_;
  SearchWorkspace& ws_;

  std::unordered_map<NodeId, NodeBook> book_;
  RknnResult out_;
};

Result<bool> LazyState::VerifyWithBookkeeping(PointId candidate,
                                              NodeId host, Weight d_query) {
  out_.stats.verify_calls++;
  const size_t k = static_cast<size_t>(options_.k);

  auto& vheap = ws_.aux_node_heap;
  auto& vbest = ws_.aux_best;
  auto& vsettled = ws_.aux_visited;
  vheap.clear();
  vbest.Reset(g_.num_nodes());
  vsettled.Reset(g_.num_nodes());
  vheap.Push(0.0, host);
  vbest.Set(host, 0.0);

  std::vector<Weight> competitors;  // k smallest, ascending
  // Capped at the live points, the most it can hold (k may exceed |P|).
  competitors.reserve(std::min(k, points_.num_points()));

  while (!vheap.empty()) {
    auto [dist, node] = vheap.Pop();
    if (vsettled.Contains(node)) {
      continue;
    }
    vsettled.Insert(node);
    out_.stats.nodes_scanned++;

    if (ws_.mark.Contains(node)) {
      size_t strictly_closer = 0;
      for (Weight c : competitors) {
        strictly_closer += DistLess(c, dist);
      }
      return strictly_closer < k;
    }

    // Verification-local competitor counting (for membership).
    PointId pm = points_.PointAt(node);
    if (pm != kInvalidPoint && pm != candidate &&
        pm != options_.exclude_point) {
      if (competitors.size() < k) {
        competitors.push_back(dist);
      }
    }

    // Pruning bookkeeping: this settle proves a data point (`candidate`)
    // lies at distance `dist` from `node`.
    NodeBook& bm = BookOf(node);
    if (bm.visited) {
      if (DistLess(dist, bm.dist_q)) {
        bm.competitor_dists.Insert(dist);
        if (!bm.children_erased &&
            bm.competitor_dists.CountBelow(bm.dist_q) >= k) {
          bm.children_erased = true;
          for (Heap::Handle h : bm.children) {
            ws_.node_heap.Erase(h);  // stale handles are harmless no-ops
          }
          bm.children.clear();
        }
      }
    } else {
      bm.competitor_dists.Insert(dist);
    }

    // Early failure: the k-th closest competitor is strictly closer than
    // the frontier, so any future query settlement loses.
    if (competitors.size() == k && !vheap.empty() &&
        DistLess(competitors.back(), vheap.top_key())) {
      return false;
    }

    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g_.Scan(node, ws_.aux_nbr_cursor));
    for (const AdjEntry& a : nbrs) {
      const Weight nd = dist + a.weight;
      // The expansion cannot affect anything past the query distance: the
      // query settles at (floating-point-)exactly d_query.
      if (DistLessOrTied(nd, d_query) && !vsettled.Contains(a.node) &&
          nd < vbest.Get(a.node)) {
        vbest.Set(a.node, nd);
        vheap.Push(nd, a.node);
        out_.stats.heap_pushes++;
      }
    }
  }
  return false;  // query unreachable within range
}

Result<RknnResult> LazyState::Run(std::span<const NodeId> query_nodes) {
  const size_t k = static_cast<size_t>(options_.k);
  auto& heap = ws_.node_heap;

  // Seed each distinct query node once. Only the seeds go through the
  // workspace's best distances; the book decides every later push.
  for (NodeId q : query_nodes) {
    ws_.Seed(q, 0.0, out_.stats);
  }

  while (!heap.empty()) {
    auto [dist, node] = heap.Pop();
    NodeBook& b = BookOf(node);
    if (b.visited) {
      continue;  // duplicate entry via another parent
    }
    b.visited = true;
    b.dist_q = dist;

    // Count-based Lemma 1: k data points strictly closer than the query.
    if (b.competitor_dists.CountBelow(dist) >= k) {
      out_.stats.nodes_pruned++;
      continue;
    }
    out_.stats.nodes_expanded++;
    out_.stats.nodes_scanned++;

    PointId p = points_.PointAt(node);
    if (p != kInvalidPoint && p != options_.exclude_point &&
        ws_.seen_points.insert(p).second) {
      GRNN_ASSIGN_OR_RETURN(bool is_rknn,
                            VerifyWithBookkeeping(p, node, dist));
      if (is_rknn) {
        out_.results.push_back(PointMatch{p, node, dist});
      }
    }

    // The verification may have invalidated this very node (e.g. its own
    // point at distance 0): re-check before expanding. This reproduces the
    // k=1 behaviour "expansion stops at nodes containing points".
    if (b.competitor_dists.CountBelow(dist) >= k) {
      continue;
    }

    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g_.Scan(node, ws_.nbr_cursor));
    for (const AdjEntry& a : nbrs) {
      if (!BookOf(a.node).visited) {
        Heap::Handle h = heap.Push(dist + a.weight, a.node);
        out_.stats.heap_pushes++;
        // Re-fetch: BookOf may rehash the map, but references into
        // unordered_map values stay valid across inserts; keep it simple
        // and index again.
        BookOf(node).children.push_back(h);
      }
    }
  }

  SortByPoint(out_);
  return std::move(out_);
}

}  // namespace

Result<RknnResult> LazyRknn(const graph::NetworkView& g,
                            const NodePointSet& points,
                            std::span<const NodeId> query_nodes,
                            const RknnOptions& options,
                            SearchWorkspace& ws) {
  GRNN_RETURN_NOT_OK(ValidateQueryNodes(g.num_nodes(), query_nodes,
                                        options.k));
  // Armed-trace child span (obs/trace.h): the whole lazy expansion.
  obs::ScopedSpan span(obs::CurrentTrace(), "lazy.expand");
  LazyState state(g, points, query_nodes, options, ws);
  return state.Run(query_nodes);
}

}  // namespace grnn::core
