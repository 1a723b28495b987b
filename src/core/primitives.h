// Copyright (c) GRNN authors.
// NN-search primitives of Section 3.1: range-NN(n, k, e) and
// verify(p, k, q), plus the epoch-stamped scratch space that makes the
// many local expansions of eager cheap to start.

#ifndef GRNN_CORE_PRIMITIVES_H_
#define GRNN_CORE_PRIMITIVES_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/indexed_heap.h"
#include "common/numeric.h"
#include "common/result.h"
#include "core/point_set.h"
#include "core/types.h"
#include "graph/network_view.h"

namespace grnn::core {

/// \brief O(1)-reset map NodeId -> Weight based on epoch stamping.
///
/// Reset() invalidates all entries by bumping the epoch instead of touching
/// memory, so starting a new local expansion costs nothing even on graphs
/// with hundreds of thousands of nodes.
class StampedDistances {
 public:
  /// O(1) unless the backing arrays have to grow (first use, or a
  /// larger graph than ever seen); growth is visible via capacity().
  void Reset(size_t num_nodes) {
    if (stamp_.size() < num_nodes) {
      stamp_.resize(num_nodes, 0);
      value_.resize(num_nodes, 0);
    }
    ++epoch_;
  }

  /// Number of nodes the map can address without reallocating: the
  /// allocated capacity, which grows geometrically, so a bound creeping
  /// up by one per Reset (fresh point ids) reallocates only rarely.
  size_t capacity() const { return stamp_.capacity(); }

  bool Has(NodeId n) const { return stamp_[n] == epoch_; }
  Weight Get(NodeId n) const { return Has(n) ? value_[n] : kInfinity; }
  void Set(NodeId n, Weight w) {
    stamp_[n] = epoch_;
    value_[n] = w;
  }

 private:
  std::vector<uint64_t> stamp_;
  std::vector<Weight> value_;
  uint64_t epoch_ = 0;
};

/// \brief O(1)-reset node set based on epoch stamping.
class StampedSet {
 public:
  /// O(1) unless the backing array has to grow; growth is visible via
  /// capacity().
  void Reset(size_t num_nodes) {
    if (stamp_.size() < num_nodes) {
      stamp_.resize(num_nodes, 0);
    }
    ++epoch_;
  }

  /// Number of nodes the set can address without reallocating (the
  /// allocated capacity, as StampedDistances::capacity()).
  size_t capacity() const { return stamp_.capacity(); }

  bool Contains(NodeId n) const { return stamp_[n] == epoch_; }
  void Insert(NodeId n) { stamp_[n] = epoch_; }

 private:
  std::vector<uint64_t> stamp_;
  uint64_t epoch_ = 0;
};

/// \brief Per-node list of the k nearest *discovered* points: (distance,
/// point) ascending, distinct points, capped at k. The H'-expansion
/// state shared by lazy-EP (Section 4.2) and its unrestricted and
/// bichromatic counterparts.
struct DiscoveredList {
  std::vector<std::pair<Weight, PointId>> entries;

  bool ContainsPoint(PointId p) const {
    for (const auto& [d, q] : entries) {
      if (q == p) {
        return true;
      }
    }
    return false;
  }

  /// True if the list already holds k entries no farther than `dist`.
  bool SaturatedAt(Weight dist, size_t k) const {
    return entries.size() >= k && entries[k - 1].first <= dist;
  }

  void Insert(Weight dist, PointId p, size_t k) {
    auto it = std::upper_bound(
        entries.begin(), entries.end(), std::make_pair(dist, PointId{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    entries.insert(it, {dist, p});
    if (entries.size() > k) {
      entries.pop_back();
    }
  }

  /// Entries strictly (mod fp noise) below `bound`; k means "at least
  /// k overall" since only the k smallest are kept.
  size_t CountBelow(Weight bound) const {
    size_t n = 0;
    for (const auto& [d, p] : entries) {
      n += DistLess(d, bound);
    }
    return n;
  }
};

/// \brief Reusable engine for the local NN queries issued by the RNN
/// algorithms. One instance per query keeps scratch allocations amortized;
/// a rebindable instance inside a SearchWorkspace amortizes them across
/// whole query batches.
class NnSearcher {
 public:
  /// Unbound searcher; Bind() before use.
  NnSearcher() = default;
  /// \param g, points must outlive the searcher.
  NnSearcher(const graph::NetworkView* g, const NodePointSet* points);

  /// Re-targets the searcher, keeping all scratch buffers.
  void Bind(const graph::NetworkView* g, const NodePointSet* points) {
    GRNN_CHECK(g != nullptr);
    GRNN_CHECK(points != nullptr);
    g_ = g;
    points_ = points;
  }

  /// Total element capacity of the scratch buffers (workspace-growth
  /// accounting).
  size_t CapacityFootprint() const {
    return heap_.slot_capacity() + best_.capacity() + settled_.capacity() +
           query_mark_.capacity() + cursor_.scratch_capacity();
  }

  /// Drops the pin the searcher's cursor may hold for its last span.
  void ReleaseLease() { cursor_.Reset(); }
  size_t held_pins() const { return cursor_.held_pins(); }

  /// range-NN(n, k, e): up to k nearest points with network distance
  /// STRICTLY smaller than `e`, ascending by distance. `exclude` (and any
  /// point used as the query itself) never appears in the result.
  Result<std::vector<NnResult>> RangeNn(NodeId source, int k, Weight e,
                                        PointId exclude,
                                        SearchStats* stats);

  /// Allocation-free form of RangeNn: replaces `*out` with the result.
  Status RangeNnInto(NodeId source, int k, Weight e, PointId exclude,
                     SearchStats* stats, std::vector<NnResult>* out);

  /// Plain k-nearest-neighbor query from a node (e = infinity).
  Result<std::vector<NnResult>> Knn(NodeId source, int k, PointId exclude,
                                    SearchStats* stats) {
    return RangeNn(source, k, kInfinity, exclude, stats);
  }

  struct VerifyOutcome {
    /// True iff the query is among the k nearest points of the candidate.
    bool is_rknn = false;
    /// Exact network distance from the candidate to the (nearest) query
    /// node; kInfinity when unreachable (=> is_rknn == false).
    Weight dist_to_query = kInfinity;
  };

  /// verify(p, k, q): expands around the candidate until a query node is
  /// settled (success iff fewer than k competitors are strictly closer) or
  /// until k strictly-closer competitors force failure. Competitors are
  /// live points other than the candidate and `exclude`.
  ///
  /// `query_nodes` generalizes the single query node to routes
  /// (continuous queries, Section 5.1): the relevant distance is
  /// d(r, p) = min over route nodes.
  Result<VerifyOutcome> Verify(PointId candidate, int k,
                               const std::vector<NodeId>& query_nodes,
                               PointId exclude, SearchStats* stats);

  const graph::NetworkView& network() const { return *g_; }
  const NodePointSet& points() const { return *points_; }

 private:
  const graph::NetworkView* g_ = nullptr;
  const NodePointSet* points_ = nullptr;
  IndexedHeap<Weight, NodeId> heap_;
  StampedDistances best_;
  StampedSet settled_;
  StampedSet query_mark_;
  graph::NeighborCursor cursor_;
};

}  // namespace grnn::core

#endif  // GRNN_CORE_PRIMITIVES_H_
