#include "core/lazy_ep.h"

#include "core/primitives.h"
#include "core/workspace.h"

namespace grnn::core {

Result<RknnResult> LazyEpRknn(const graph::NetworkView& g,
                              const NodePointSet& points,
                              std::span<const NodeId> query_nodes,
                              const RknnOptions& options,
                              SearchWorkspace& ws) {
  GRNN_RETURN_NOT_OK(ValidateQueryNodes(g.num_nodes(), query_nodes,
                                        options.k));
  // Armed-trace child span (obs/trace.h): the whole lazy-EP expansion.
  obs::ScopedSpan span(obs::CurrentTrace(), "lazyep.expand");
  const size_t k = static_cast<size_t>(options.k);
  ws.query_nodes.assign(query_nodes.begin(), query_nodes.end());
  ws.searcher.Bind(&g, &points);

  RknnResult out;

  // Main expansion H around the query.
  auto& heap = ws.node_heap;
  ws.StartExpansion(g.num_nodes());
  for (NodeId q : query_nodes) {
    ws.Seed(q, 0.0, out.stats);
  }

  // Parallel expansion H' around discovered points.
  DiscoveredExpansion discovered(g, k, ws.ep_heap, ws.aux_nbr_cursor,
                                 out.stats);

  auto& found_points = ws.seen_points;
  found_points.clear();

  while (!heap.empty()) {
    auto [dist, node] = heap.Pop();
    if (ws.visited.Contains(node)) {
      continue;
    }
    ws.visited.Insert(node);

    // Let H' catch up to this frontier before deciding about `node`.
    GRNN_RETURN_NOT_OK(discovered.DrainBelow(dist));

    // Extended pruning: k discovered points strictly closer than the
    // query (Lemma 1 applied with materialized-by-expansion distances).
    if (discovered.Prunes(node, dist)) {
      out.stats.nodes_pruned++;
      continue;
    }
    out.stats.nodes_expanded++;
    out.stats.nodes_scanned++;

    PointId p = points.PointAt(node);
    if (p != kInvalidPoint && p != options.exclude_point &&
        found_points.insert(p).second) {
      // Membership still requires a verification query...
      GRNN_ASSIGN_OR_RETURN(
          auto outcome,
          ws.searcher.Verify(p, options.k, ws.query_nodes,
                             options.exclude_point, &out.stats));
      if (outcome.is_rknn) {
        out.results.push_back(PointMatch{p, node, outcome.dist_to_query});
      }
      // ... and the point starts pruning through H' regardless.
      discovered.Add(node, p, 0.0);
    }

    // Re-drain so the point just inserted can prune this node's own
    // expansion (e.g. k=1: a node hosting a point never expands further;
    // its own H' entry at distance 0 marks it immediately).
    GRNN_RETURN_NOT_OK(discovered.DrainBelow(dist));
    if (discovered.Prunes(node, dist)) {
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
