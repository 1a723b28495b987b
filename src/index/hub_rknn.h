// Copyright (c) GRNN authors.
// kNN / RkNN primitives over hub labels (ReHub, PAPERS.md): label
// intersection replaces network expansion. Both primitives share one
// structure:
//
//   sweep    — walk the inverted occurrence lists (HubPointIndex) of
//              every hub in the query's VIRTUAL label (VirtualLabel in
//              hub_label.h: the per-hub minimum over the labels of all
//              query nodes — a route's nodes, or a position's two
//              offset endpoints), accumulating the minimum
//              d(q,h) + d(h,p) per point. Each hub's run is read once,
//              however many query nodes share it, so a route costs the
//              runs of the union of its labels. The 2-hop cover
//              guarantees the minimum IS the exact network distance
//              d(q, p).
//   verify   — (RkNN only) for each candidate p, count competitors
//              strictly closer to p than the query by walking the
//              competitor lists of p's hubs; runs are sorted by
//              distance, so a walk stops at the first entry whose bound
//              reaches d(q, p), and the count early-exits at k.
//
// RknnViaLabels implements the EXACT RknnOptions semantics of
// core/types.h (DistLess tie handling included), so its results are
// interchangeable with the expansion algorithms — the differential
// harness holds it to the brute-force oracle on every seeded world.
//
// All scratch state lives in a LabelWorkspace (embedded in
// core::SearchWorkspace): warm queries allocate nothing, and label
// scans hold no buffer-pool pin.

#ifndef GRNN_INDEX_HUB_RKNN_H_
#define GRNN_INDEX_HUB_RKNN_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "core/primitives.h"
#include "core/types.h"
#include "index/hub_label.h"
#include "index/hub_point_index.h"

namespace grnn::index {

/// \brief Reusable label-scan scratch: the cursor for label spans plus
/// the per-point accumulation state of the sweep/verify phases. Lives in
/// core::SearchWorkspace; single-owner mutable state, one live query at
/// a time.
struct LabelWorkspace {
  /// Sequential label scans (the query sweep, then one scan per
  /// verified candidate). Only one span is live at a time.
  LabelCursor cursor;
  /// Merge buffers of the query's virtual label (VirtualLabel).
  VirtualLabelBuffers virtual_label;
  /// Point id -> minimum d(q,h) + d(h,p) seen so far (exact distance
  /// once the sweep finishes).
  core::StampedDistances point_dist;
  /// Competitor dedupe during verification (a point occurs in the lists
  /// of all its hubs).
  core::StampedSet counted;
  /// Points reached by the sweep, in first-touch order.
  std::vector<PointId> touched;
  /// Hosting node of each touched point (valid only for touched ids).
  std::vector<NodeId> point_node;

  size_t CapacityFootprint() const {
    return cursor.scratch_capacity() + virtual_label.capacity() +
           point_dist.capacity() + counted.capacity() + touched.capacity() +
           point_node.capacity();
  }
};

/// \brief Exact k nearest points of `source`, ascending by
/// (distance, point id); `exclude` never appears. Deterministic: ties at
/// the k-th distance resolve by point id. When `stats` is non-null the
/// sweep's label_entries are added to it.
Status KnnViaLabelsInto(const LabelStore& labels,
                        const HubPointIndex& points, NodeId source, int k,
                        PointId exclude, LabelWorkspace& ws,
                        std::vector<core::NnResult>* out,
                        core::SearchStats* stats = nullptr);

/// \brief RkNN over hub labels, exact under the RknnOptions contract:
/// candidate p is reported iff strictly fewer than `options.k`
/// competitors (DistLess) are closer to p than the query, where the
/// query distance is min over `query_nodes`.
///
/// `candidates` and `competitors` are the populations of the query kind:
/// the same object for monochromatic queries (candidates then skip
/// options.exclude_point and never compete against themselves), distinct
/// objects for bichromatic queries (sites compete, only
/// options.exclude_point is removed from the competitor side — point and
/// site ids are separate spaces, exactly as in the brute-force oracle).
/// Both must be built over `labels`' node universe.
Result<core::RknnResult> RknnViaLabels(const LabelStore& labels,
                                       const HubPointIndex& candidates,
                                       const HubPointIndex& competitors,
                                       std::span<const NodeId> query_nodes,
                                       const core::RknnOptions& options,
                                       LabelWorkspace& ws);

/// \brief RkNN over hub labels in UNRESTRICTED networks (paper
/// Section 5.2): candidates and competitors are the edge-resident points
/// of `points`, indexed by `index` (HubPointIndex::Build over the
/// EdgePointSet — occurrences at min distance through both endpoints).
/// Exact under the RknnOptions contract and interchangeable with
/// UnrestrictedEagerRknn: distances to an interior position combine the
/// sweep over the virtual label of the query position (its two OFFSET
/// endpoint labels; a route sweeps its nodes' labels, as RknnViaLabels
/// does) with a same-edge correction pass — the direct segment between
/// positions sharing one edge is the only path the 2-hop cover cannot
/// see. Verification walks each candidate's two endpoint labels in
/// turn, offset by the candidate's split of its edge, plus its
/// same-edge neighbors; it does not merge them, because the walk stops
/// after a few hubs where a merge would read both labels in full.
///
/// `g` resolves the query edge's weight and canonical orientation for
/// position queries; `nbr_cursor` backs that one transient scan.
Result<core::RknnResult> UnrestrictedRknnViaLabels(
    const LabelStore& labels, const graph::NetworkView& g,
    const core::EdgePointSet& points, const HubPointIndex& index,
    const core::UnrestrictedQuery& query, const core::RknnOptions& options,
    LabelWorkspace& ws, graph::NeighborCursor& nbr_cursor);

}  // namespace grnn::index

#endif  // GRNN_INDEX_HUB_RKNN_H_
