#include "index/hub_point_index.h"

#include <algorithm>
#include <utility>

namespace grnn::index {

namespace {

/// The canonical run order: (dist, point). Keys are unique within a run
/// (one occurrence per point per hub), so sorted builds and incremental
/// splices produce bit-identical runs.
bool EntryLess(const HubPointIndex::Entry& a,
               const HubPointIndex::Entry& b) {
  return a.dist != b.dist ? a.dist < b.dist : a.point < b.point;
}

/// Sorts the non-empty runs and publishes them as shared immutable
/// lists.
void PublishRuns(
    std::vector<HubPointIndex::Run>& runs,
    std::vector<std::shared_ptr<const HubPointIndex::Run>>& lists) {
  const NodeId n = static_cast<NodeId>(runs.size());
  for (NodeId h = 0; h < n; ++h) {
    if (runs[h].empty()) {
      continue;
    }
    std::sort(runs[h].begin(), runs[h].end(), EntryLess);
    lists[h] =
        std::make_shared<const HubPointIndex::Run>(std::move(runs[h]));
  }
}

/// Fills one run per hub from one occurrence label per live point, in
/// live-point order: `occurrences(p, cursor, buffers)` yields p's
/// hub-sorted (h, d(h, p)) list and `host(p)` the node its entries
/// record.
template <typename Occurrences, typename Host>
Status ScatterRuns(const std::vector<PointId>& live, Occurrences occurrences,
                   Host host, std::vector<HubPointIndex::Run>& runs,
                   size_t* num_entries) {
  LabelCursor cursor;
  VirtualLabelBuffers buffers;
  for (PointId p : live) {
    GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> list,
                          occurrences(p, cursor, buffers));
    const NodeId node = host(p);
    for (const HubEntry& e : list) {
      runs[e.hub].push_back(HubPointIndex::Entry{e.dist, p, node});
    }
    *num_entries += list.size();
  }
  return Status::OK();
}

}  // namespace

Result<HubPointIndex> HubPointIndex::Build(const LabelStore& labels,
                                           const core::NodePointSet& points) {
  if (labels.num_nodes() != points.num_nodes()) {
    return Status::InvalidArgument(
        "label store and point set cover different node counts");
  }
  HubPointIndex idx;
  idx.lists_.resize(labels.num_nodes());
  idx.num_points_ = points.num_points();
  idx.point_id_bound_ = points.point_id_bound();
  std::vector<Run> runs(labels.num_nodes());
  GRNN_RETURN_NOT_OK(ScatterRuns(
      points.LivePoints(),
      [&](PointId p, LabelCursor& cursor, VirtualLabelBuffers&) {
        return labels.Scan(points.NodeOf(p), cursor);
      },
      [&](PointId p) { return points.NodeOf(p); }, runs,
      &idx.num_entries_));
  PublishRuns(runs, idx.lists_);
  return idx;
}

Result<HubPointIndex> HubPointIndex::Build(const LabelStore& labels,
                                           const core::EdgePointSet& points) {
  HubPointIndex idx;
  idx.lists_.resize(labels.num_nodes());
  idx.num_points_ = points.num_points();
  idx.point_id_bound_ = points.point_id_bound();
  std::vector<Run> runs(labels.num_nodes());
  GRNN_RETURN_NOT_OK(ScatterRuns(
      points.LivePoints(),
      [&](PointId p, LabelCursor& cursor, VirtualLabelBuffers& buffers) {
        return EdgeOccurrences(labels, points.PositionOf(p),
                               points.EdgeWeightOfPoint(p), cursor,
                               buffers);
      },
      [&](PointId p) { return points.PositionOf(p).u; }, runs,
      &idx.num_entries_));
  PublishRuns(runs, idx.lists_);
  return idx;
}

Result<std::span<const HubEntry>> HubPointIndex::EdgeOccurrences(
    const LabelStore& labels, const core::EdgePosition& pos,
    Weight edge_weight, LabelCursor& cursor, VirtualLabelBuffers& buffers) {
  if (pos.u >= labels.num_nodes() || pos.v >= labels.num_nodes()) {
    return Status::InvalidArgument(
        "edge position endpoints outside the label universe");
  }
  // A path from a hub to the interior position must enter through an
  // endpoint, so d(h, p) is the per-hub minimum over the two endpoint
  // labels offset by the point's split of its edge.
  const NodeId endpoints[2] = {pos.u, pos.v};
  const Weight offsets[2] = {pos.pos, edge_weight - pos.pos};
  return VirtualLabel(labels, endpoints, offsets, cursor, buffers);
}

void HubPointIndex::SpliceInto(NodeId hub, const Entry& entry) {
  const Run* old = lists_[hub].get();
  std::shared_ptr<Run> next =
      old != nullptr ? std::make_shared<Run>(*old) : std::make_shared<Run>();
  next->insert(std::lower_bound(next->begin(), next->end(), entry,
                                EntryLess),
               entry);
  lists_[hub] = std::move(next);
  num_entries_++;
}

Status HubPointIndex::RemoveFrom(NodeId hub, const Entry& entry) {
  const Run* old = lists_[hub].get();
  if (old == nullptr) {
    return Status::Internal(
        "hub occurrence run missing during incremental erase");
  }
  const auto it =
      std::lower_bound(old->begin(), old->end(), entry, EntryLess);
  if (it == old->end() || !(*it == entry)) {
    return Status::Internal(
        "hub occurrence entry missing during incremental erase");
  }
  if (old->size() == 1) {
    lists_[hub].reset();
  } else {
    auto next = std::make_shared<Run>();
    next->reserve(old->size() - 1);
    next->insert(next->end(), old->begin(), it);
    next->insert(next->end(), it + 1, old->end());
    lists_[hub] = std::move(next);
  }
  num_entries_--;
  return Status::OK();
}

Status HubPointIndex::InsertPoint(const LabelStore& labels, PointId p,
                                  NodeId node) {
  if (num_hubs() != labels.num_nodes()) {
    return Status::InvalidArgument(
        "point index does not cover the label store's node universe");
  }
  if (node >= labels.num_nodes()) {
    return Status::OutOfRange("host node outside the label universe");
  }
  LabelCursor cursor;
  GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> label,
                        labels.Scan(node, cursor));
  for (const HubEntry& e : label) {
    SpliceInto(e.hub, Entry{e.dist, p, node});
  }
  num_points_++;
  if (p + 1 > point_id_bound_) {
    point_id_bound_ = p + 1;
  }
  return Status::OK();
}

Status HubPointIndex::ErasePoint(const LabelStore& labels, PointId p,
                                 NodeId node) {
  if (num_hubs() != labels.num_nodes()) {
    return Status::InvalidArgument(
        "point index does not cover the label store's node universe");
  }
  if (node >= labels.num_nodes()) {
    return Status::OutOfRange("host node outside the label universe");
  }
  LabelCursor cursor;
  GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> label,
                        labels.Scan(node, cursor));
  for (const HubEntry& e : label) {
    GRNN_RETURN_NOT_OK(RemoveFrom(e.hub, Entry{e.dist, p, node}));
  }
  num_points_--;
  return Status::OK();
}

Status HubPointIndex::InsertEdgePoint(const LabelStore& labels, PointId p,
                                      const core::EdgePosition& pos,
                                      Weight edge_weight) {
  if (num_hubs() != labels.num_nodes()) {
    return Status::InvalidArgument(
        "point index does not cover the label store's node universe");
  }
  LabelCursor cursor;
  VirtualLabelBuffers buffers;
  GRNN_ASSIGN_OR_RETURN(
      std::span<const HubEntry> occurrences,
      EdgeOccurrences(labels, pos, edge_weight, cursor, buffers));
  for (const HubEntry& e : occurrences) {
    SpliceInto(e.hub, Entry{e.dist, p, pos.u});
  }
  num_points_++;
  if (p + 1 > point_id_bound_) {
    point_id_bound_ = p + 1;
  }
  return Status::OK();
}

Status HubPointIndex::EraseEdgePoint(const LabelStore& labels, PointId p,
                                     const core::EdgePosition& pos,
                                     Weight edge_weight) {
  if (num_hubs() != labels.num_nodes()) {
    return Status::InvalidArgument(
        "point index does not cover the label store's node universe");
  }
  LabelCursor cursor;
  VirtualLabelBuffers buffers;
  GRNN_ASSIGN_OR_RETURN(
      std::span<const HubEntry> occurrences,
      EdgeOccurrences(labels, pos, edge_weight, cursor, buffers));
  for (const HubEntry& e : occurrences) {
    GRNN_RETURN_NOT_OK(RemoveFrom(e.hub, Entry{e.dist, p, pos.u}));
  }
  num_points_--;
  return Status::OK();
}

}  // namespace grnn::index
