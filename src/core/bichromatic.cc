#include "core/bichromatic.h"

#include <algorithm>

#include "common/numeric.h"
#include "core/primitives.h"
#include "core/workspace.h"
#include "graph/dijkstra.h"

namespace grnn::core {

namespace {

// Shared expansion: qualifies nodes by "q is among the k nearest sites",
// where `count_closer_sites(n, d)` returns the number of sites strictly
// closer to n than d (capped at k). P-points on qualified nodes are
// reported.
template <typename CountCloserFn>
Result<RknnResult> QualifyNodes(const graph::NetworkView& g,
                                const NodePointSet& data_points,
                                std::span<const NodeId> query_nodes,
                                const RknnOptions& options,
                                SearchWorkspace& ws,
                                CountCloserFn count_closer_sites) {
  const size_t k = static_cast<size_t>(options.k);
  RknnResult out;

  auto& heap = ws.node_heap;
  ws.StartExpansion(g.num_nodes());
  for (NodeId q : query_nodes) {
    ws.Seed(q, 0.0, out.stats);
  }

  while (!heap.empty()) {
    auto [dist, node] = heap.Pop();
    if (ws.visited.Contains(node)) {
      continue;
    }
    ws.visited.Insert(node);
    out.stats.nodes_expanded++;
    out.stats.nodes_scanned++;

    GRNN_ASSIGN_OR_RETURN(size_t closer,
                          count_closer_sites(node, dist, &out.stats));
    if (closer >= k) {
      out.stats.nodes_pruned++;
      continue;  // Lemma 1 over Q: nothing beyond can qualify
    }
    // Node qualifies: q is among its k nearest sites.
    PointId p = data_points.PointAt(node);
    if (p != kInvalidPoint) {
      out.results.push_back(PointMatch{p, node, dist});
    }

    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(node, ws.nbr_cursor));
    ws.Relax(nbrs, dist, out.stats);
  }

  SortByPoint(out);
  return out;
}

}  // namespace

Result<RknnResult> BichromaticRknn(const graph::NetworkView& g,
                                   const NodePointSet& data_points,
                                   const NodePointSet& sites,
                                   std::span<const NodeId> query_nodes,
                                   const RknnOptions& options,
                                   SearchWorkspace& ws) {
  GRNN_RETURN_NOT_OK(
      ValidateQueryNodes(g.num_nodes(), query_nodes, options.k));
  ws.searcher.Bind(&g, &sites);
  return QualifyNodes(
      g, data_points, query_nodes, options, ws,
      [&](NodeId n, Weight d, SearchStats* stats) -> Result<size_t> {
        if (!(d > 0)) {
          return size_t{0};
        }
        GRNN_RETURN_NOT_OK(
            ws.searcher.RangeNnInto(n, options.k, d, options.exclude_point,
                                    stats, &ws.nn_results));
        return ws.nn_results.size();
      });
}

Result<RknnResult> BichromaticLazyRknn(const graph::NetworkView& g,
                                       const NodePointSet& data_points,
                                       const NodePointSet& sites,
                                       std::span<const NodeId> query_nodes,
                                       const RknnOptions& options,
                                       SearchWorkspace& ws) {
  GRNN_RETURN_NOT_OK(
      ValidateQueryNodes(g.num_nodes(), query_nodes, options.k));
  const size_t k = static_cast<size_t>(options.k);
  ws.searcher.Bind(&g, &sites);

  RknnResult out;

  auto& heap = ws.node_heap;
  ws.StartExpansion(g.num_nodes());
  for (NodeId q : query_nodes) {
    ws.Seed(q, 0.0, out.stats);
  }

  // H' over discovered sites: per node, the k nearest discovered-site
  // distances (exactly the lazy-EP machinery with Q as the point set).
  DiscoveredExpansion discovered(g, k, ws.ep_heap, ws.aux_nbr_cursor,
                                 out.stats);

  auto& known_sites = ws.seen_points;
  known_sites.clear();

  auto feed_site = [&](NodeId host, PointId s) {
    if (s != kInvalidPoint && s != options.exclude_point &&
        known_sites.insert(s).second) {
      discovered.Add(host, s, 0.0);
    }
  };

  while (!heap.empty()) {
    auto [dist, node] = heap.Pop();
    if (ws.visited.Contains(node)) {
      continue;
    }
    ws.visited.Insert(node);
    GRNN_RETURN_NOT_OK(discovered.DrainBelow(dist));

    // Lemma 1 over Q with discovered-site distances: k sites strictly
    // closer than the query both disqualify this node and block every
    // path through it.
    if (discovered.Prunes(node, dist)) {
      out.stats.nodes_pruned++;
      continue;
    }
    out.stats.nodes_expanded++;
    out.stats.nodes_scanned++;

    // A site hosted here starts pruning through H'.
    feed_site(node, sites.PointAt(node));
    GRNN_RETURN_NOT_OK(discovered.DrainBelow(dist));
    if (discovered.Prunes(node, dist)) {
      // The site just fed (or a drained one) disqualified it; this is
      // still a Lemma 1 cut.
      out.stats.nodes_pruned++;
      continue;
    }

    // Qualification is deferred to the nodes that matter: only a node
    // hosting a P-point pays for an exact site count.
    PointId p = data_points.PointAt(node);
    if (p != kInvalidPoint) {
      size_t closer = 0;
      if (dist > 0) {
        GRNN_RETURN_NOT_OK(
            ws.searcher.RangeNnInto(node, options.k, dist,
                                    options.exclude_point, &out.stats,
                                    &ws.nn_results));
        closer = ws.nn_results.size();
        // The exact count discovered sites too; let them prune.
        for (const NnResult& hit : ws.nn_results) {
          feed_site(hit.node, hit.point);
        }
      }
      if (closer < k) {
        out.results.push_back(PointMatch{p, node, dist});
      }
    }

    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(node, ws.nbr_cursor));
    ws.Relax(nbrs, dist, out.stats);
  }

  SortByPoint(out);
  return out;
}

Result<RknnResult> BichromaticRknnMaterialized(
    const graph::NetworkView& g, const NodePointSet& data_points,
    const NodePointSet& sites, const KnnStore* site_knn,
    std::span<const NodeId> query_nodes, const RknnOptions& options,
    SearchWorkspace& ws) {
  GRNN_RETURN_NOT_OK(
      ValidateQueryNodes(g.num_nodes(), query_nodes, options.k));
  if (site_knn == nullptr) {
    return Status::InvalidArgument("site KNN store is null");
  }
  if (static_cast<uint32_t>(options.k) > site_knn->k()) {
    return Status::InvalidArgument("query k exceeds materialized K");
  }
  (void)sites;
  return QualifyNodes(
      g, data_points, query_nodes, options, ws,
      [&](NodeId n, Weight d, SearchStats* stats) -> Result<size_t> {
        GRNN_RETURN_NOT_OK(site_knn->Read(n, &ws.knn_list));
        stats->knn_list_reads++;
        size_t closer = 0;
        for (const NnEntry& e : ws.knn_list) {
          if (e.point != options.exclude_point && DistLess(e.dist, d)) {
            if (++closer >= static_cast<size_t>(options.k)) {
              break;
            }
          }
        }
        return closer;
      });
}

Result<RknnResult> BruteForceBichromaticRknn(
    const graph::NetworkView& g, const NodePointSet& data_points,
    const NodePointSet& sites, std::span<const NodeId> query_nodes,
    const RknnOptions& options) {
  GRNN_RETURN_NOT_OK(
      ValidateQueryNodes(g.num_nodes(), query_nodes, options.k));
  RknnResult out;
  // One scratch + distance buffer reused across the per-point
  // expansions: the oracle's cost is the expansions, not allocation.
  graph::DijkstraWorkspace dws;
  std::vector<Weight> dist;
  for (PointId p : data_points.LivePoints()) {
    const NodeId home = data_points.NodeOf(p);
    GRNN_RETURN_NOT_OK(
        graph::SingleSourceDistancesInto(g, home, dws, &dist));
    Weight d_query = kInfinity;
    for (NodeId q : query_nodes) {
      d_query = std::min(d_query, dist[q]);
    }
    if (d_query == kInfinity) {
      continue;
    }
    size_t closer = 0;
    for (PointId s : sites.LivePoints()) {
      if (s == options.exclude_point) {
        continue;
      }
      if (DistLess(dist[sites.NodeOf(s)], d_query)) {
        ++closer;
      }
    }
    if (closer < static_cast<size_t>(options.k)) {
      out.results.push_back(PointMatch{p, home, d_query});
    }
  }
  SortByPoint(out);
  return out;
}

}  // namespace grnn::core
