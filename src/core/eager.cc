#include "core/eager.h"

#include "core/primitives.h"
#include "core/workspace.h"
#include "obs/trace.h"

namespace grnn::core {

Result<RknnResult> EagerRknn(const graph::NetworkView& g,
                             const NodePointSet& points,
                             std::span<const NodeId> query_nodes,
                             const RknnOptions& options,
                             SearchWorkspace& ws) {
  GRNN_RETURN_NOT_OK(ValidateQueryNodes(g.num_nodes(), query_nodes,
                                        options.k));
  // Armed-trace child span (obs/trace.h): the whole eager expansion;
  // one nullptr branch when the query is not sampled — the hot path
  // the <2% disarmed-overhead guard measures.
  obs::ScopedSpan span(obs::CurrentTrace(), "eager.expand");
  const int k = options.k;
  ws.query_nodes.assign(query_nodes.begin(), query_nodes.end());
  ws.searcher.Bind(&g, &points);

  RknnResult out;

  auto& heap = ws.node_heap;
  ws.StartExpansion(g.num_nodes());
  for (NodeId q : query_nodes) {
    ws.Seed(q, 0.0, out.stats);
  }

  auto& verified = ws.seen_points;
  verified.clear();

  while (!heap.empty()) {
    auto [dist, node] = heap.Pop();
    if (ws.visited.Contains(node)) {
      continue;
    }
    ws.visited.Insert(node);
    out.stats.nodes_expanded++;
    out.stats.nodes_scanned++;

    // A point residing on a query/route node is a trivial result (its
    // query distance is 0, and no competitor can be strictly closer).
    // range-NN can never discover it, so report it here.
    if (dist == 0.0) {
      PointId p = points.PointAt(node);
      if (p != kInvalidPoint && p != options.exclude_point &&
          verified.insert(p).second) {
        out.results.push_back(PointMatch{p, node, 0.0});
      }
    }

    // range-NN(n, k, d(n,q)): the points strictly closer to n than the
    // query. Source nodes (d == 0) trivially return nothing.
    std::vector<NnResult>& closer = ws.nn_results;
    closer.clear();
    if (dist > 0) {
      GRNN_RETURN_NOT_OK(ws.searcher.RangeNnInto(
          node, k, dist, options.exclude_point, &out.stats, &closer));
    }

    // Verify every discovered point once (Lemma 1 says nothing about the
    // discovered points themselves).
    for (const NnResult& c : closer) {
      if (!verified.insert(c.point).second) {
        continue;
      }
      GRNN_ASSIGN_OR_RETURN(
          auto outcome,
          ws.searcher.Verify(c.point, k, ws.query_nodes,
                             options.exclude_point, &out.stats));
      if (outcome.is_rknn) {
        out.results.push_back(
            PointMatch{c.point, c.node, outcome.dist_to_query});
      }
    }

    if (closer.size() >= static_cast<size_t>(k)) {
      // Lemma 1: k points strictly closer than the query block every
      // result whose shortest path passes through this node.
      out.stats.nodes_pruned++;
      continue;
    }

    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(node, ws.nbr_cursor));
    ws.Relax(nbrs, dist, out.stats);
  }

  SortByPoint(out);
  return out;
}

}  // namespace grnn::core
