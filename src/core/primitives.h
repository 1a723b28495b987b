// Copyright (c) GRNN authors.
// The search steps every RkNN algorithm shares, each defined once:
//
//   * the epoch-stamped scratch space that makes the many local
//     expansions cheap to start;
//   * DiscoveredExpansion — H', lazy-EP's second expansion around the
//     discovered points (Section 4.2), also run over sites by lazy
//     bichromatic and over edge points by unrestricted lazy-EP;
//   * KSmallest — the capped competitor list of the lazy algorithms'
//     per-node bookkeeping and of unrestricted verification;
//   * ValidateQueryNodes — the node-query checks (k, nodes, range);
//   * SortByPoint — the result order every algorithm reports;
//   * NnSearcher — range-NN(n, k, e) and verify(p, k, q) of
//     Section 3.1.
//
// The main expansion's seed and relax steps are SearchWorkspace
// methods (core/workspace.h); unrestricted query preparation is
// PrepareUnrestrictedQuery (core/unrestricted.h).

#ifndef GRNN_CORE_PRIMITIVES_H_
#define GRNN_CORE_PRIMITIVES_H_

#include <algorithm>
#include <span>
#include <unordered_map>
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

/// \brief H': the expansion around discovered points that records, per
/// node, the k nearest discovered points (DiscoveredList). It advances
/// only up to the main expansion's frontier, so Prunes() applies Lemma 1
/// with distances the query has already paid for.
///
/// Heap, cursor and stats are borrowed: the heap and cursor from the
/// workspace (ep_heap and aux_nbr_cursor, so a span scanned through the
/// main cursor survives a drain), the stats from the query's result.
class DiscoveredExpansion {
 public:
  using Heap = IndexedHeap<Weight, std::pair<NodeId, PointId>>;

  /// Clears `heap`.
  DiscoveredExpansion(const graph::NetworkView& g, size_t k, Heap& heap,
                      graph::NeighborCursor& cursor, SearchStats& stats)
      : g_(g), k_(k), heap_(heap), cursor_(cursor), stats_(stats) {
    heap_.clear();
  }

  /// Starts H' from point `p`, which lies at distance `d` from node `n`.
  void Add(NodeId n, PointId p, Weight d) {
    heap_.Push(d, {n, p});
    stats_.heap_pushes++;
  }

  /// Advances H' while its top entry is below `frontier` (the last
  /// distance deheaped from the main expansion).
  Status DrainBelow(Weight frontier);

  /// Lemma 1 with discovered points: k of them strictly closer to `n`
  /// than the query's `dist`.
  bool Prunes(NodeId n, Weight dist) const {
    auto it = lists_.find(n);
    return it != lists_.end() && it->second.CountBelow(dist) >= k_;
  }

 private:
  const graph::NetworkView& g_;
  size_t k_;
  Heap& heap_;
  graph::NeighborCursor& cursor_;
  SearchStats& stats_;
  std::unordered_map<NodeId, DiscoveredList> lists_;
};

/// \brief The k smallest values inserted, ascending: the competitor
/// distances of one node (lazy bookkeeping) or of one candidate
/// (unrestricted verification).
class KSmallest {
 public:
  explicit KSmallest(size_t k) : k_(k) {}

  void Insert(Weight w) {
    if (values_.size() == k_ && !(w < values_.back())) {
      return;
    }
    values_.insert(std::upper_bound(values_.begin(), values_.end(), w), w);
    if (values_.size() > k_) {
      values_.pop_back();
    }
  }

  /// Values strictly (mod fp noise) below `bound`; k means "at least k
  /// overall" since only the k smallest are kept.
  size_t CountBelow(Weight bound) const {
    size_t n = 0;
    for (Weight v : values_) {
      n += DistLess(v, bound);
    }
    return n;
  }

  /// True once k values are kept and the largest is below `bound`.
  bool FullAndBelow(Weight bound) const {
    return values_.size() == k_ && DistLess(values_.back(), bound);
  }

 private:
  size_t k_;
  std::vector<Weight> values_;
};

/// The node-query checks every algorithm runs first: k > 0
/// (InvalidArgument), at least one node (InvalidArgument), every node
/// below `num_nodes` (OutOfRange).
Status ValidateQueryNodes(NodeId num_nodes, std::span<const NodeId> nodes,
                          int k);

/// Sorts the matches by point id, the order every algorithm reports.
void SortByPoint(RknnResult& result);

/// \brief Reusable engine for the local NN queries issued by the RNN
/// algorithms. One instance per query keeps scratch allocations amortized;
/// a rebindable instance inside a SearchWorkspace amortizes them across
/// every query that reuses the workspace.
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

  /// range-NN(n, k, e): replaces `*out` with up to k nearest points
  /// with network distance STRICTLY smaller than `e`, ascending by
  /// distance. `exclude` (and any point used as the query itself) never
  /// appears in the result.
  Status RangeNnInto(NodeId source, int k, Weight e, PointId exclude,
                     SearchStats* stats, std::vector<NnResult>* out);

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
