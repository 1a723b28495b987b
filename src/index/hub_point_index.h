// Copyright (c) GRNN authors.
// HubPointIndex: the inverted occurrence index of a point population over
// a hub labeling — ReHub's "hub -> objects" structure. For every hub h it
// keeps the points p whose label contains h, sorted by d(h, p): the
// kNN/RkNN primitives (index/hub_rknn.h) answer queries by walking these
// sorted runs for the hubs of one label, stopping as soon as the
// accumulated bound exceeds the query's threshold.
//
// Two populations are indexable: node-resident points (NodePointSet; an
// occurrence per hub of the hosting node's label) and edge-resident
// points (EdgePointSet; an occurrence per hub of EITHER endpoint's
// label, at the min distance through the two endpoints — exact, since a
// path from any node to an interior edge position must enter through an
// endpoint).
//
// The index is DERIVED state: it depends on the labels (immutable per
// graph) and on the point set (mutated by the engine's live-update
// path). It is maintained INCREMENTALLY: InsertPoint / ErasePoint (and
// their edge-point counterparts) splice one point's occurrence entries
// into the per-hub (dist, point)-sorted runs, producing bit-for-bit the
// index a from-scratch Build over the updated set would — in both read
// modes the engine patches a clone inside each update's exclusive
// domain section and installs it with the set change. Per-hub runs sit
// behind shared_ptr so a copy of the index shares every run and a patch
// clones only the runs it touches (copy-on-write at hub granularity).
// A failing patch (a label scan error, or a missing occurrence) fails
// the engine's update, which then changes no set, list or index
// (core/engine.h, ApplyUpdate).

#ifndef GRNN_INDEX_HUB_POINT_INDEX_H_
#define GRNN_INDEX_HUB_POINT_INDEX_H_

#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/point_set.h"
#include "core/unrestricted.h"
#include "index/hub_label.h"

namespace grnn::index {

/// \brief Per-hub sorted point occurrence lists, copy-on-write runs.
class HubPointIndex {
 public:
  /// One occurrence: point `point` at exact network distance `dist`
  /// from the owning hub, discoverable through `node` (its hosting node
  /// for node-resident points, the canonical `u` endpoint for
  /// edge-resident points). Runs are sorted by (dist, point) so walks
  /// terminate at the first entry past a bound and tie runs stay
  /// deterministic.
  struct Entry {
    Weight dist = 0;
    PointId point = kInvalidPoint;
    NodeId node = kInvalidNode;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// Run list type: immutable once published, shared across copies.
  using Run = std::vector<Entry>;

  HubPointIndex() = default;

  /// Builds the inverted lists by scanning the label of every live
  /// point's hosting node (disk-backed stores charge their pool here).
  static Result<HubPointIndex> Build(const LabelStore& labels,
                                     const core::NodePointSet& points);

  /// Edge-resident population: one occurrence per hub of either
  /// endpoint label of each live point, at
  /// min(d(u,h) + pos, d(v,h) + w - pos).
  static Result<HubPointIndex> Build(const LabelStore& labels,
                                     const core::EdgePointSet& points);

  /// Occurrence run of `hub`, sorted by (dist, point).
  std::span<const Entry> ListOf(NodeId hub) const {
    const std::vector<Entry>* run = lists_[hub].get();
    return run == nullptr ? std::span<const Entry>()
                          : std::span<const Entry>(*run);
  }

  // --- Incremental maintenance -----------------------------------------
  // Each call patches exactly the runs of the point's hubs (cloning
  // them; untouched runs stay shared with any copies of the index) and
  // yields bit-for-bit the index Build would produce over the updated
  // set. Erase recomputes the occurrence distances from the SAME labels
  // and fails with Internal if an expected entry is missing. A failed
  // call may leave the index partly patched: the engine patches only
  // clones, and drops a clone whose patch failed.

  /// Splices the occurrences of point `p` hosted on `node`.
  Status InsertPoint(const LabelStore& labels, PointId p, NodeId node);
  /// Removes the occurrences of point `p` that was hosted on `node`.
  Status ErasePoint(const LabelStore& labels, PointId p, NodeId node);
  /// Splices the occurrences of edge point `p` at `pos` (canonical
  /// u < v) on an edge of weight `edge_weight`.
  Status InsertEdgePoint(const LabelStore& labels, PointId p,
                         const core::EdgePosition& pos, Weight edge_weight);
  /// Removes the occurrences of edge point `p` that lived at `pos`
  /// (captured BEFORE the set removal — tombstones forget positions).
  Status EraseEdgePoint(const LabelStore& labels, PointId p,
                        const core::EdgePosition& pos, Weight edge_weight);

  NodeId num_hubs() const { return static_cast<NodeId>(lists_.size()); }
  size_t num_entries() const { return num_entries_; }
  size_t num_points() const { return num_points_; }
  /// Upper bound over the indexed point ids (sizes the primitives' O(1)
  /// per-point scratch; tombstoned ids of the source set count).
  PointId point_id_bound() const { return point_id_bound_; }

 private:
  /// Splices `entry` into its hub's run at the (dist, point) position.
  void SpliceInto(NodeId hub, const Entry& entry);
  /// Removes `entry` from its hub's run; Internal if absent.
  Status RemoveFrom(NodeId hub, const Entry& entry);
  /// The occurrence label of an edge point at `pos`: the hub-sorted
  /// (h, d(h, p)) list, i.e. the VirtualLabel of the two endpoints
  /// offset by the point's split of its edge. Valid as VirtualLabel's.
  static Result<std::span<const HubEntry>> EdgeOccurrences(
      const LabelStore& labels, const core::EdgePosition& pos,
      Weight edge_weight, LabelCursor& cursor,
      VirtualLabelBuffers& buffers);

  std::vector<std::shared_ptr<const Run>> lists_;  // one per hub; null = empty
  size_t num_entries_ = 0;
  size_t num_points_ = 0;
  PointId point_id_bound_ = 0;
};

}  // namespace grnn::index

#endif  // GRNN_INDEX_HUB_POINT_INDEX_H_
