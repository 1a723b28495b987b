#include "index/hub_rknn.h"

#include <algorithm>
#include <cmath>

#include "common/numeric.h"
#include "obs/trace.h"

namespace grnn::index {

namespace {

Status ValidateQuery(const LabelStore& labels,
                     const HubPointIndex& candidates,
                     const HubPointIndex& competitors,
                     std::span<const NodeId> query_nodes, int k) {
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (query_nodes.empty()) {
    return Status::InvalidArgument("query node set is empty");
  }
  for (NodeId q : query_nodes) {
    if (q >= labels.num_nodes()) {
      return Status::OutOfRange("query node out of range");
    }
  }
  if (candidates.num_hubs() != labels.num_nodes() ||
      competitors.num_hubs() != labels.num_nodes()) {
    return Status::InvalidArgument(
        "point index does not cover the label store's node universe");
  }
  return Status::OK();
}

/// The sweep shared by every primitive: reads the occurrence run of
/// each hub of the query's virtual label (VirtualLabel over `nodes` at
/// `offsets`) once, accumulating the minimum d(q,h) + d(h,p) per point.
/// The 2-hop cover makes the minimum exact, so after the sweep
/// ws.point_dist.Get(p) == d(query, p) for every reachable point p (the
/// distance to the NEAREST query node), and unreachable points were
/// never touched. Per-point scratch is sized for ids below `id_bound`.
Status SweepPointDistances(const LabelStore& labels,
                           const HubPointIndex& points,
                           std::span<const NodeId> nodes,
                           std::span<const Weight> offsets,
                           PointId id_bound, LabelWorkspace& ws,
                           core::SearchStats* stats) {
  // Armed-trace child span (obs/trace.h): one nullptr branch when the
  // query is not sampled.
  obs::ScopedSpan span(obs::CurrentTrace(), "hub.sweep");
  const uint64_t entries_before = stats->label_entries;
  ws.point_dist.Reset(id_bound);
  if (ws.point_node.size() < id_bound) {
    ws.point_node.resize(id_bound, kInvalidNode);
  }
  ws.touched.clear();
  GRNN_ASSIGN_OR_RETURN(
      std::span<const HubEntry> label,
      VirtualLabel(labels, nodes, offsets, ws.cursor, ws.virtual_label));
  for (const HubEntry& e : label) {
    const std::span<const HubPointIndex::Entry> run = points.ListOf(e.hub);
    stats->label_entries += run.size();
    for (const HubPointIndex::Entry& occ : run) {
      const Weight ub = e.dist + occ.dist;
      if (!ws.point_dist.Has(occ.point)) {
        ws.point_dist.Set(occ.point, ub);
        ws.point_node[occ.point] = occ.node;
        ws.touched.push_back(occ.point);
      } else if (ub < ws.point_dist.Get(occ.point)) {
        ws.point_dist.Set(occ.point, ub);
      }
    }
  }
  if (span.armed()) {
    span.Note("query_hubs", label.size());
    span.Note("label_entries", stats->label_entries - entries_before);
    span.Note("points_touched", ws.touched.size());
  }
  return Status::OK();
}

}  // namespace

Status KnnViaLabelsInto(const LabelStore& labels,
                        const HubPointIndex& points, NodeId source, int k,
                        PointId exclude, LabelWorkspace& ws,
                        std::vector<core::NnResult>* out,
                        core::SearchStats* stats) {
  core::SearchStats local;
  GRNN_RETURN_NOT_OK(
      ValidateQuery(labels, points, points, {&source, 1}, k));
  GRNN_RETURN_NOT_OK(SweepPointDistances(labels, points, {&source, 1}, {},
                                         points.point_id_bound(), ws,
                                         &local));
  if (stats != nullptr) {
    *stats += local;
  }

  std::sort(ws.touched.begin(), ws.touched.end(),
            [&](PointId a, PointId b) {
              const Weight da = ws.point_dist.Get(a);
              const Weight db = ws.point_dist.Get(b);
              return da != db ? da < db : a < b;
            });
  out->clear();
  for (PointId p : ws.touched) {
    if (p == exclude) {
      continue;
    }
    out->push_back(core::NnResult{p, ws.point_node[p],
                                  ws.point_dist.Get(p)});
    if (out->size() == static_cast<size_t>(k)) {
      break;
    }
  }
  return Status::OK();
}

Result<core::RknnResult> RknnViaLabels(const LabelStore& labels,
                                       const HubPointIndex& candidates,
                                       const HubPointIndex& competitors,
                                       std::span<const NodeId> query_nodes,
                                       const core::RknnOptions& options,
                                       LabelWorkspace& ws) {
  GRNN_RETURN_NOT_OK(ValidateQuery(labels, candidates, competitors,
                                   query_nodes, options.k));
  // Monochromatic queries pass one index for both roles: candidates
  // then skip the excluded point and never compete against themselves.
  // Bichromatic queries pass distinct indices whose id spaces are
  // unrelated, so only the competitor side honours the exclusion —
  // object identity is the discriminator, exactly mirroring the
  // brute-force oracle's two loops.
  const bool same_population = &candidates == &competitors;

  core::RknnResult out;
  GRNN_RETURN_NOT_OK(SweepPointDistances(labels, candidates, query_nodes,
                                         {}, candidates.point_id_bound(), ws,
                                         &out.stats));

  const size_t k = static_cast<size_t>(options.k);
  obs::ScopedSpan verify(obs::CurrentTrace(), "hub.verify");
  const uint64_t verify_entries_before = out.stats.label_entries;
  for (const PointId p : ws.touched) {
    if (same_population && p == options.exclude_point) {
      continue;
    }
    const Weight d_query = ws.point_dist.Get(p);
    // Count competitors strictly closer to p than the query, walking
    // the competitor runs of p's own hubs. Each run is sorted by
    // d(h, c), so the first entry whose bound d(p,h) + d(h,c) is no
    // longer DistLess(d_query) ends the run: bounds only grow, and a
    // competitor whose EXACT distance qualifies is counted through the
    // hub witnessing that distance.
    out.stats.verify_calls++;
    ws.counted.Reset(competitors.point_id_bound());
    size_t closer = 0;
    GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> label,
                          labels.Scan(ws.point_node[p], ws.cursor));
    for (const HubEntry& e : label) {
      if (closer >= k) {
        break;
      }
      for (const HubPointIndex::Entry& occ :
           competitors.ListOf(e.hub)) {
        out.stats.label_entries++;
        if (!DistLess(e.dist + occ.dist, d_query)) {
          break;
        }
        const PointId c = occ.point;
        if ((same_population && c == p) || c == options.exclude_point ||
            ws.counted.Contains(c)) {
          continue;
        }
        ws.counted.Insert(c);
        if (++closer >= k) {
          break;
        }
      }
    }
    if (closer < k) {
      out.results.push_back(
          core::PointMatch{p, ws.point_node[p], d_query});
    }
  }
  if (verify.armed()) {
    verify.Note("verify_calls", out.stats.verify_calls);
    verify.Note("label_entries",
                out.stats.label_entries - verify_entries_before);
    verify.Note("results", out.results.size());
  }

  std::sort(out.results.begin(), out.results.end(),
            [](const core::PointMatch& a, const core::PointMatch& b) {
              return a.point < b.point;
            });
  return out;
}

namespace {

/// Weight of edge (u, v) through the view; NotFound when absent.
Result<Weight> ViewEdgeWeightFor(const graph::NetworkView& g, NodeId u,
                                 NodeId v,
                                 graph::NeighborCursor& cursor) {
  GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs, g.Scan(u, cursor));
  for (const AdjEntry& e : nbrs) {
    if (e.node == v) {
      return e.weight;
    }
  }
  return Status::NotFound("query position names a nonexistent edge");
}

}  // namespace

Result<core::RknnResult> UnrestrictedRknnViaLabels(
    const LabelStore& labels, const graph::NetworkView& g,
    const core::EdgePointSet& points, const HubPointIndex& index,
    const core::UnrestrictedQuery& query, const core::RknnOptions& options,
    LabelWorkspace& ws, graph::NeighborCursor& nbr_cursor) {
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (index.num_hubs() != labels.num_nodes()) {
    return Status::InvalidArgument(
        "point index does not cover the label store's node universe");
  }
  core::UnrestrictedQuery q = query;
  Weight qw = 0;
  if (q.is_position) {
    if (q.position.u >= labels.num_nodes() ||
        q.position.v >= labels.num_nodes() ||
        q.position.u == q.position.v) {
      return Status::InvalidArgument("invalid query position");
    }
    GRNN_ASSIGN_OR_RETURN(qw, ViewEdgeWeightFor(g, q.position.u,
                                                q.position.v, nbr_cursor));
    if (q.position.u > q.position.v) {
      q.position = core::EdgePosition{q.position.v, q.position.u,
                                      qw - q.position.pos};
    }
    if (!core::PositionOnEdge(q.position.pos, qw)) {
      return Status::InvalidArgument("query position outside edge");
    }
  } else {
    if (q.route.empty()) {
      return Status::InvalidArgument("route is empty");
    }
    for (NodeId n : q.route) {
      if (n >= labels.num_nodes()) {
        return Status::OutOfRange("route node out of range");
      }
    }
  }

  core::RknnResult out;
  const PointId bound =
      std::max(index.point_id_bound(), points.point_id_bound());
  if (q.is_position) {
    // Sweep the position's virtual label: both endpoint labels, each
    // offset by the query's distance to that endpoint. Exact for every
    // point not sharing the query's edge (any path to an interior
    // position enters through an endpoint).
    const NodeId endpoints[2] = {q.position.u, q.position.v};
    const Weight offsets[2] = {q.position.pos, qw - q.position.pos};
    GRNN_RETURN_NOT_OK(SweepPointDistances(labels, index, endpoints,
                                           offsets, bound, ws, &out.stats));
    // Same-edge correction: the direct segment between two positions on
    // one edge is the only path the endpoint-route cover cannot see.
    for (const storage::EdgePointRecord& r :
         points.PointsOnEdge(q.position.u, q.position.v)) {
      const Weight direct = std::abs(r.pos - q.position.pos);
      if (!ws.point_dist.Has(r.point)) {
        ws.point_dist.Set(r.point, direct);
        ws.point_node[r.point] = q.position.u;
        ws.touched.push_back(r.point);
      } else if (direct < ws.point_dist.Get(r.point)) {
        ws.point_dist.Set(r.point, direct);
      }
    }
  } else {
    // Route queries sweep their nodes' labels; node-to-interior-position
    // distances carry no same-edge case (the query sits on nodes), so
    // the sweep over the edge-point occurrence index is already exact.
    GRNN_RETURN_NOT_OK(SweepPointDistances(labels, index, q.route, {},
                                           bound, ws, &out.stats));
  }

  const size_t k = static_cast<size_t>(options.k);
  obs::ScopedSpan verify(obs::CurrentTrace(), "hub.verify");
  const uint64_t verify_entries_before = out.stats.label_entries;
  for (const PointId p : ws.touched) {
    if (p == options.exclude_point || !points.IsLive(p)) {
      continue;
    }
    const Weight d_query = ws.point_dist.Get(p);
    out.stats.verify_calls++;
    ws.counted.Reset(bound);
    size_t closer = 0;
    const core::EdgePosition& ppos = points.PositionOf(p);
    const Weight pw = points.EdgeWeightOfPoint(p);
    // Same-edge competitors first: their direct-segment distance is
    // invisible to the hub walk below.
    for (const storage::EdgePointRecord& r :
         points.PointsOnEdge(ppos.u, ppos.v)) {
      if (closer >= k) {
        break;
      }
      const PointId c = r.point;
      if (c == p || c == options.exclude_point || ws.counted.Contains(c)) {
        continue;
      }
      if (DistLess(std::abs(r.pos - ppos.pos), d_query)) {
        ws.counted.Insert(c);
        ++closer;
      }
    }
    // Hub walk over the candidate's endpoint labels in turn: L(u)
    // offset by the candidate's split of its edge, then L(v) by the
    // remainder. Runs are (dist, point)-sorted, so each ends at the
    // first bound past d_query; a competitor whose exact distance
    // qualifies is counted through the hub witnessing it (or the direct
    // pass above). No VirtualLabel merge here: the walk usually stops
    // after a few hubs, where a merge would read both labels in full.
    const NodeId endpoints[2] = {ppos.u, ppos.v};
    const Weight offsets[2] = {ppos.pos, pw - ppos.pos};
    for (int side = 0; side < 2 && closer < k; ++side) {
      GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> label,
                            labels.Scan(endpoints[side], ws.cursor));
      for (const HubEntry& e : label) {
        if (closer >= k) {
          break;
        }
        const Weight base = offsets[side] + e.dist;
        for (const HubPointIndex::Entry& occ : index.ListOf(e.hub)) {
          out.stats.label_entries++;
          if (!DistLess(base + occ.dist, d_query)) {
            break;
          }
          const PointId c = occ.point;
          if (c == p || c == options.exclude_point ||
              ws.counted.Contains(c)) {
            continue;
          }
          ws.counted.Insert(c);
          if (++closer >= k) {
            break;
          }
        }
      }
    }
    if (closer < k) {
      out.results.push_back(core::PointMatch{p, ppos.u, d_query});
    }
  }
  if (verify.armed()) {
    verify.Note("verify_calls", out.stats.verify_calls);
    verify.Note("label_entries",
                out.stats.label_entries - verify_entries_before);
    verify.Note("results", out.results.size());
  }

  std::sort(out.results.begin(), out.results.end(),
            [](const core::PointMatch& a, const core::PointMatch& b) {
              return a.point < b.point;
            });
  return out;
}

}  // namespace grnn::index
