#include "core/unrestricted.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/indexed_heap.h"
#include "common/numeric.h"
#include "common/string_util.h"
#include "core/primitives.h"
#include "core/workspace.h"
#include "graph/dijkstra.h"

namespace grnn::core {

namespace {

// ---------------------------------------------------------------------
// EdgePointSet helpers

EdgePosition Canonical(EdgePosition p, Weight w) {
  if (p.u > p.v) {
    std::swap(p.u, p.v);
    p.pos = w - p.pos;
  }
  return p;
}

Status ValidatePosition(const graph::Graph& g, const EdgePosition& pos,
                        Weight* weight_out) {
  if (pos.u == pos.v) {
    return Status::InvalidArgument("degenerate edge position");
  }
  GRNN_ASSIGN_OR_RETURN(Weight w, g.EdgeWeight(pos.u, pos.v));
  const EdgePosition c = Canonical(pos, w);
  if (!PositionOnEdge(c.pos, w)) {
    return Status::InvalidArgument(
        StrPrintf("pos %f outside edge weight %f", c.pos, w));
  }
  *weight_out = w;
  return Status::OK();
}

// Looks up w(u,v) through the NetworkView (used for query edges, where
// only adjacency access is available). Charges one adjacency read, as the
// paper's storage scheme would.
Result<Weight> ViewEdgeWeight(const graph::NetworkView& g, NodeId u,
                              NodeId v, graph::NeighborCursor& cursor) {
  if (u >= g.num_nodes() || v >= g.num_nodes()) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs, g.Scan(u, cursor));
  for (const AdjEntry& a : nbrs) {
    if (a.node == v) {
      return a.weight;
    }
  }
  return Status::NotFound(StrPrintf("no edge (%u,%u)", u, v));
}

// ---------------------------------------------------------------------
// Mixed node/point expansion machinery
//
// Heap entries are (node, point) pairs drawn from the workspace's mixed
// heap: point == kInvalidPoint marks a node entry, anything else a point
// entry (the node half is ignored for those).

using MixedEntry = std::pair<NodeId, PointId>;

inline MixedEntry NodeEntry(NodeId n) { return {n, kInvalidPoint}; }
inline MixedEntry PointEntry(PointId p) { return {kInvalidNode, p}; }
inline bool IsPointEntry(const MixedEntry& e) {
  return e.second != kInvalidPoint;
}

// k smallest competitor distances, ascending.
class CompetitorList {
 public:
  explicit CompetitorList(size_t k) : k_(k) {}
  void Insert(Weight w) {
    if (values_.size() == k_ && !(w < values_.back())) {
      return;
    }
    values_.insert(std::upper_bound(values_.begin(), values_.end(), w), w);
    if (values_.size() > k_) {
      values_.pop_back();
    }
  }
  size_t CountBelow(Weight bound) const {
    size_t n = 0;
    for (Weight v : values_) {
      n += DistLess(v, bound);
    }
    return n;
  }
  bool FullAndBelow(Weight bound) const {
    return values_.size() == k_ && DistLess(values_.back(), bound);
  }

 private:
  size_t k_;
  std::vector<Weight> values_;
};

struct VerifyResult {
  bool is_rknn = false;
  Weight dist = kInfinity;
};

// Shared expansion engine: mixed node/point Dijkstra with incident-edge
// point discovery. All scratch state lives in the workspace's aux
// buffers, so batched queries reuse it across calls; the main expansions
// own the non-aux buffers of the same workspace.
class UnrestrictedSearcher {
 public:
  UnrestrictedSearcher(const graph::NetworkView* g,
                       const EdgePointSet* points,
                       const EdgePointReader* reader,
                       const UnrestrictedQuery* query, Weight query_edge_w,
                       const RknnOptions* options, SearchWorkspace* ws)
      : g_(g),
        points_(points),
        reader_(reader),
        query_(query),
        options_(options),
        query_edge_w_(query_edge_w),
        heap_(ws->mixed_heap),
        node_settled_(ws->aux_visited),
        node_best_(ws->aux_best),
        point_seen_(ws->aux_seen_points),
        cursor_(ws->aux_nbr_cursor),
        records_(ws->aux_records),
        route_mark_(ws->mark) {
    if (!query->is_position) {
      route_mark_.Reset(g->num_nodes());
      for (NodeId n : query->route) {
        route_mark_.Insert(n);
      }
    }
  }

  // verify(p, k, q) for a candidate at `cpos` (canonical) on an edge of
  // weight `cw`. `max_range` bounds the expansion (kInfinity = none).
  // `on_node_settle(m, d)` runs for every settled node (lazy bookkeeping).
  template <typename OnSettle>
  Result<VerifyResult> Verify(PointId candidate, const EdgePosition& cpos,
                              Weight cw, int k, Weight max_range,
                              SearchStats* stats, OnSettle on_node_settle) {
    if (stats != nullptr) {
      stats->verify_calls++;
    }
    const size_t kk = static_cast<size_t>(k);
    heap_.clear();
    node_settled_.Reset(g_->num_nodes());
    node_best_.Reset(g_->num_nodes());
    point_seen_.clear();
    point_seen_.insert(candidate);

    // Query bound: direct same-edge distance, refined as endpoints settle.
    Weight best_q = kInfinity;
    if (query_->is_position && query_->position.u == cpos.u &&
        query_->position.v == cpos.v) {
      best_q = std::abs(query_->position.pos - cpos.pos);
    }

    // Seeds: both endpoints of the candidate's edge...
    PushNode(cpos.u, cpos.pos, max_range);
    PushNode(cpos.v, cw - cpos.pos, max_range);
    // ...and direct same-edge competitors.
    if (reader_->Has(cpos.u, cpos.v)) {
      GRNN_RETURN_NOT_OK(reader_->Read(cpos.u, cpos.v, &records_));
      for (const EdgePointRecord& r : records_) {
        if (r.point != candidate) {
          Weight d = std::abs(r.pos - cpos.pos);
          if (DistLessOrTied(d, max_range)) {
            heap_.Push(d, PointEntry(r.point));
          }
        }
      }
    }

    CompetitorList competitors(kk);
    while (!heap_.empty()) {
      auto [key, entry] = heap_.Pop();
      // Position queries settle as soon as the frontier passes the best
      // endpoint-composed bound.
      if (!DistLess(key, best_q)) {
        return VerifyResult{competitors.CountBelow(best_q) < kk, best_q};
      }
      if (IsPointEntry(entry)) {
        if (!point_seen_.insert(entry.second).second) {
          continue;  // later path to an already-settled point
        }
        if (entry.second != options_->exclude_point) {
          competitors.Insert(key);
          if (competitors.FullAndBelow(key)) {
            return VerifyResult{false, kInfinity};
          }
        }
        continue;
      }
      const NodeId m = entry.first;
      if (node_settled_.Contains(m)) {
        continue;
      }
      node_settled_.Insert(m);
      if (stats != nullptr) {
        stats->nodes_scanned++;
      }
      on_node_settle(m, key);

      if (!query_->is_position && route_mark_.Contains(m)) {
        return VerifyResult{competitors.CountBelow(key) < kk, key};
      }
      if (query_->is_position) {
        if (m == query_->position.u) {
          best_q = std::min(best_q, key + query_->position.pos);
        }
        if (m == query_->position.v) {
          best_q = std::min(best_q, key + query_edge_w_ -
                                        query_->position.pos);
        }
      }

      GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                            g_->Scan(m, cursor_));
      for (const AdjEntry& a : nbrs) {
        // Point discovery on the incident edge.
        if (reader_->Has(m, a.node)) {
          GRNN_RETURN_NOT_OK(reader_->Read(m, a.node, &records_));
          for (const EdgePointRecord& r : records_) {
            if (point_seen_.count(r.point) != 0) {
              continue;
            }
            const Weight offset =
                m < a.node ? r.pos : a.weight - r.pos;
            const Weight nd = key + offset;
            if (DistLessOrTied(nd, max_range)) {
              heap_.Push(nd, PointEntry(r.point));
            }
          }
        }
        const Weight nd = key + a.weight;
        if (DistLessOrTied(nd, max_range) &&
            !node_settled_.Contains(a.node) &&
            nd < node_best_.Get(a.node)) {
          node_best_.Set(a.node, nd);
          heap_.Push(nd, NodeEntry(a.node));
          if (stats != nullptr) {
            stats->heap_pushes++;
          }
        }
      }
      if (competitors.FullAndBelow(
              heap_.empty() ? kInfinity : heap_.top_key())) {
        // Every future settlement (including the query) has >= k
        // strictly closer competitors.
        if (DistLess(best_q, kInfinity) &&
            !competitors.FullAndBelow(best_q)) {
          // ... unless the known query bound itself still wins.
        } else {
          return VerifyResult{false, kInfinity};
        }
      }
    }
    if (best_q != kInfinity) {
      // Frontier exhausted; the composed bound is final.
      return VerifyResult{competitors.CountBelow(best_q) < kk, best_q};
    }
    return VerifyResult{false, kInfinity};  // query unreachable
  }

  // Discovered point with its (canonical) position and exact distance.
  struct Found {
    PointId point;
    EdgePosition pos;
    Weight edge_weight;
    Weight dist;
  };

  // range-NN(n, k, e): up to k points strictly closer than `e` to node n,
  // with exact distances, ascending.
  Result<std::vector<Found>> RangeNn(NodeId source, int k, Weight e,
                                     SearchStats* stats) {
    if (stats != nullptr) {
      stats->range_nn_calls++;
    }
    std::vector<Found> out;
    if (!(e > 0)) {
      return out;
    }
    heap_.clear();
    node_settled_.Reset(g_->num_nodes());
    node_best_.Reset(g_->num_nodes());
    point_seen_.clear();

    PushNode(source, 0.0, e);
    while (!heap_.empty()) {
      auto [key, entry] = heap_.Pop();
      if (!DistLess(key, e)) {
        break;
      }
      if (IsPointEntry(entry)) {
        const PointId found_point = entry.second;
        if (!point_seen_.insert(found_point).second) {
          continue;
        }
        if (found_point != options_->exclude_point) {
          out.push_back(Found{found_point,
                              points_->PositionOf(found_point),
                              points_->EdgeWeightOfPoint(found_point),
                              key});
          if (out.size() == static_cast<size_t>(k)) {
            return out;
          }
        }
        continue;
      }
      const NodeId m = entry.first;
      if (node_settled_.Contains(m)) {
        continue;
      }
      node_settled_.Insert(m);
      if (stats != nullptr) {
        stats->nodes_scanned++;
      }
      GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                            g_->Scan(m, cursor_));
      for (const AdjEntry& a : nbrs) {
        if (reader_->Has(m, a.node)) {
          GRNN_RETURN_NOT_OK(reader_->Read(m, a.node, &records_));
          for (const EdgePointRecord& r : records_) {
            if (point_seen_.count(r.point) != 0) {
              continue;
            }
            const Weight offset = m < a.node ? r.pos : a.weight - r.pos;
            const Weight nd = key + offset;
            if (DistLess(nd, e)) {
              heap_.Push(nd, PointEntry(r.point));
            }
          }
        }
        const Weight nd = key + a.weight;
        if (DistLess(nd, e) && !node_settled_.Contains(a.node) &&
            nd < node_best_.Get(a.node)) {
          node_best_.Set(a.node, nd);
          heap_.Push(nd, NodeEntry(a.node));
          if (stats != nullptr) {
            stats->heap_pushes++;
          }
        }
      }
    }
    return out;
  }

 private:
  void PushNode(NodeId n, Weight d, Weight max_range) {
    if (DistLessOrTied(d, max_range) && d < node_best_.Get(n)) {
      node_best_.Set(n, d);
      heap_.Push(d, NodeEntry(n));
    }
  }

  const graph::NetworkView* g_;
  const EdgePointSet* points_;
  const EdgePointReader* reader_;
  const UnrestrictedQuery* query_;
  const RknnOptions* options_;
  Weight query_edge_w_;

  // Workspace aux buffers (see workspace.h).
  IndexedHeap<Weight, MixedEntry>& heap_;
  StampedSet& node_settled_;
  StampedDistances& node_best_;
  std::unordered_set<PointId>& point_seen_;
  graph::NeighborCursor& cursor_;
  std::vector<EdgePointRecord>& records_;
  StampedSet& route_mark_;
};

Status ValidateQuery(const graph::NetworkView& g,
                     const UnrestrictedQuery& q,
                     const RknnOptions& options) {
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (q.is_position) {
    if (q.position.u >= g.num_nodes() || q.position.v >= g.num_nodes() ||
        q.position.u == q.position.v) {
      return Status::InvalidArgument("invalid query position");
    }
  } else {
    if (q.route.empty()) {
      return Status::InvalidArgument("route is empty");
    }
    for (NodeId n : q.route) {
      if (n >= g.num_nodes()) {
        return Status::OutOfRange("route node out of range");
      }
    }
  }
  return Status::OK();
}

// Canonicalizes the query position and resolves its edge weight. The
// cursor is only used transiently (callers lend an idle workspace
// cursor before the expansions start).
Result<std::pair<UnrestrictedQuery, Weight>> PrepareQuery(
    const graph::NetworkView& g, const UnrestrictedQuery& q,
    const RknnOptions& options, graph::NeighborCursor& cursor) {
  GRNN_RETURN_NOT_OK(ValidateQuery(g, q, options));
  UnrestrictedQuery prepared = q;
  Weight qw = 0;
  if (q.is_position) {
    GRNN_ASSIGN_OR_RETURN(
        qw, ViewEdgeWeight(g, q.position.u, q.position.v, cursor));
    prepared.position = Canonical(q.position, qw);
    if (!PositionOnEdge(prepared.position.pos, qw)) {
      return Status::InvalidArgument("query position outside edge");
    }
  }
  return std::make_pair(prepared, qw);
}

// Seeds of the main expansion: endpoints of the query edge or the route.
void SeedQuery(const UnrestrictedQuery& q, Weight qw,
               IndexedHeap<Weight, NodeId>& heap, StampedDistances& best,
               SearchStats* stats) {
  auto push = [&](NodeId n, Weight d) {
    if (d < best.Get(n)) {
      best.Set(n, d);
      heap.Push(d, n);
      if (stats != nullptr) {
        stats->heap_pushes++;
      }
    }
  };
  if (q.is_position) {
    push(q.position.u, q.position.pos);
    push(q.position.v, qw - q.position.pos);
  } else {
    for (NodeId n : q.route) {
      push(n, 0.0);
    }
  }
}

void SortResults(RknnResult& r) {
  std::sort(r.results.begin(), r.results.end(),
            [](const PointMatch& a, const PointMatch& b) {
              return a.point < b.point;
            });
}

}  // namespace

// -----------------------------------------------------------------------
// EdgePointSet

Result<EdgePointSet> EdgePointSet::Create(
    const graph::Graph& g, const std::vector<EdgePosition>& positions) {
  EdgePointSet set;
  set.positions_.reserve(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    Weight w = 0;
    GRNN_RETURN_NOT_OK(ValidatePosition(g, positions[i], &w));
    EdgePosition c = Canonical(positions[i], w);
    set.positions_.push_back(c);
    set.edge_weights_.push_back(w);
    set.by_edge_[EdgeKey(c.u, c.v)].push_back(
        EdgePointRecord{static_cast<PointId>(i), c.pos});
  }
  for (auto& [key, records] : set.by_edge_) {
    std::sort(records.begin(), records.end(),
              [](const EdgePointRecord& a, const EdgePointRecord& b) {
                return a.pos < b.pos;
              });
  }
  set.num_live_ = positions.size();
  return set;
}

std::vector<PointId> EdgePointSet::LivePoints() const {
  std::vector<PointId> out;
  out.reserve(num_live_);
  for (PointId p = 0; p < positions_.size(); ++p) {
    if (positions_[p].u != kInvalidNode) {
      out.push_back(p);
    }
  }
  return out;
}

const std::vector<EdgePointRecord>& EdgePointSet::PointsOnEdge(
    NodeId a, NodeId b) const {
  static const std::vector<EdgePointRecord> kEmpty;
  auto it = by_edge_.find(EdgeKey(a, b));
  return it == by_edge_.end() ? kEmpty : it->second;
}

Result<PointId> EdgePointSet::AddPoint(const graph::Graph& g,
                                       EdgePosition pos) {
  Weight w = 0;
  GRNN_RETURN_NOT_OK(ValidatePosition(g, pos, &w));
  EdgePosition c = Canonical(pos, w);
  PointId id = static_cast<PointId>(positions_.size());
  positions_.push_back(c);
  edge_weights_.push_back(w);
  auto& records = by_edge_[EdgeKey(c.u, c.v)];
  records.insert(std::upper_bound(
                     records.begin(), records.end(), c.pos,
                     [](double p, const EdgePointRecord& r) {
                       return p < r.pos;
                     }),
                 EdgePointRecord{id, c.pos});
  num_live_++;
  return id;
}

Status EdgePointSet::RemovePoint(PointId p) {
  if (!IsLive(p)) {
    return Status::NotFound(StrPrintf("point %u does not exist", p));
  }
  const EdgePosition& c = positions_[p];
  auto it = by_edge_.find(EdgeKey(c.u, c.v));
  GRNN_CHECK(it != by_edge_.end());
  auto& records = it->second;
  records.erase(std::remove_if(records.begin(), records.end(),
                               [&](const EdgePointRecord& r) {
                                 return r.point == p;
                               }),
                records.end());
  if (records.empty()) {
    by_edge_.erase(it);
  }
  positions_[p] = EdgePosition{};  // tombstone (u == kInvalidNode)
  positions_[p].u = kInvalidNode;
  num_live_--;
  return Status::OK();
}

std::vector<storage::PointFile::EdgePoints> EdgePointSet::ToEdgeGroups()
    const {
  std::vector<storage::PointFile::EdgePoints> out;
  out.reserve(by_edge_.size());
  for (const auto& [key, records] : by_edge_) {
    storage::PointFile::EdgePoints grp;
    grp.u = static_cast<NodeId>(key >> 32);
    grp.v = static_cast<NodeId>(key & 0xffffffffu);
    grp.points = records;
    out.push_back(std::move(grp));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  return out;
}

std::vector<PointSeed> EdgePointSet::SeedsOf(const EdgePosition& pos,
                                             Weight edge_weight) {
  return {PointSeed{pos.u, pos.pos},
          PointSeed{pos.v, edge_weight - pos.pos}};
}

// -----------------------------------------------------------------------
// Algorithms

Result<RknnResult> UnrestrictedEagerRknn(const graph::NetworkView& g,
                                         const EdgePointSet& points,
                                         const EdgePointReader& reader,
                                         const UnrestrictedQuery& query,
                                         const RknnOptions& options,
                                         SearchWorkspace& ws) {
  // Armed-trace child span (obs/trace.h): the whole eager expansion.
  obs::ScopedSpan span(obs::CurrentTrace(), "eager.expand");
  GRNN_ASSIGN_OR_RETURN(
      auto prep, PrepareQuery(g, query, options, ws.aux_nbr_cursor));
  const auto& [q, qw] = prep;
  const size_t k = static_cast<size_t>(options.k);

  RknnResult out;
  UnrestrictedSearcher searcher(&g, &points, &reader, &q, qw, &options,
                                &ws);

  auto& heap = ws.node_heap;
  heap.clear();
  ws.best.Reset(g.num_nodes());
  ws.visited.Reset(g.num_nodes());
  SeedQuery(q, qw, heap, ws.best, &out.stats);

  auto& verified = ws.seen_points;
  verified.clear();

  auto verify_candidate = [&](PointId p) -> Status {
    if (p == options.exclude_point || !verified.insert(p).second) {
      return Status::OK();
    }
    const EdgePosition& cpos = points.PositionOf(p);
    const Weight cw = points.EdgeWeightOfPoint(p);
    GRNN_ASSIGN_OR_RETURN(
        auto v, searcher.Verify(p, cpos, cw, options.k, kInfinity,
                                &out.stats, [](NodeId, Weight) {}));
    if (v.is_rknn) {
      out.results.push_back(PointMatch{p, cpos.u, v.dist});
    }
    return Status::OK();
  };

  while (!heap.empty()) {
    auto [dist, node] = heap.Pop();
    if (ws.visited.Contains(node)) {
      continue;
    }
    ws.visited.Insert(node);
    out.stats.nodes_expanded++;
    out.stats.nodes_scanned++;

    // The span survives the nested verifications below: they expand
    // through the aux cursor, never through nbr_cursor.
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(node, ws.nbr_cursor));

    // Candidate discovery on incident edges (completeness; see header).
    for (const AdjEntry& a : nbrs) {
      if (reader.Has(node, a.node)) {
        GRNN_RETURN_NOT_OK(reader.Read(node, a.node, &ws.records));
        for (const EdgePointRecord& r : ws.records) {
          GRNN_RETURN_NOT_OK(verify_candidate(r.point));
        }
      }
    }

    // Lemma 1 pruning via unrestricted-range-NN; its findings are
    // candidates too (as in Fig 4).
    size_t closer = 0;
    if (dist > 0) {
      GRNN_ASSIGN_OR_RETURN(
          auto found, searcher.RangeNn(node, options.k, dist, &out.stats));
      closer = found.size();
      for (const auto& f : found) {
        GRNN_RETURN_NOT_OK(verify_candidate(f.point));
      }
    }
    if (closer >= k) {
      out.stats.nodes_pruned++;
      continue;
    }

    for (const AdjEntry& a : nbrs) {
      const Weight nd = dist + a.weight;
      if (!ws.visited.Contains(a.node) && nd < ws.best.Get(a.node)) {
        ws.best.Set(a.node, nd);
        heap.Push(nd, a.node);
        out.stats.heap_pushes++;
      }
    }
  }
  SortResults(out);
  return out;
}

Result<RknnResult> UnrestrictedLazyRknn(const graph::NetworkView& g,
                                        const EdgePointSet& points,
                                        const EdgePointReader& reader,
                                        const UnrestrictedQuery& query,
                                        const RknnOptions& options,
                                        SearchWorkspace& ws) {
  // Armed-trace child span (obs/trace.h): the whole lazy expansion.
  obs::ScopedSpan span(obs::CurrentTrace(), "lazy.expand");
  GRNN_ASSIGN_OR_RETURN(
      auto prep, PrepareQuery(g, query, options, ws.aux_nbr_cursor));
  const auto& [q, qw] = prep;
  const size_t k = static_cast<size_t>(options.k);

  RknnResult out;
  UnrestrictedSearcher searcher(&g, &points, &reader, &q, qw, &options,
                                &ws);

  using Heap = IndexedHeap<Weight, NodeId>;
  struct NodeBook {
    explicit NodeBook(size_t cap) : competitors(cap) {}
    CompetitorList competitors;
    bool visited = false;
    bool children_erased = false;
    Weight dist_q = kInfinity;
    std::vector<Heap::Handle> children;
  };
  Heap& heap = ws.node_heap;
  heap.clear();
  std::unordered_map<NodeId, NodeBook> book;
  auto book_of = [&](NodeId n) -> NodeBook& {
    auto it = book.find(n);
    if (it == book.end()) {
      it = book.emplace(n, NodeBook(k)).first;
    }
    return it->second;
  };

  // Seed.
  {
    std::unordered_set<NodeId> seeded;
    auto push_seed = [&](NodeId n, Weight d) {
      if (seeded.insert(n).second) {
        heap.Push(d, n);
        out.stats.heap_pushes++;
      }
    };
    if (q.is_position) {
      push_seed(q.position.u, q.position.pos);
      push_seed(q.position.v, qw - q.position.pos);
    } else {
      for (NodeId n : q.route) {
        push_seed(n, 0.0);
      }
    }
  }

  auto& verified = ws.seen_points;
  verified.clear();

  auto on_settle = [&](NodeId m, Weight dd) {
    NodeBook& bm = book_of(m);
    if (bm.visited) {
      if (DistLess(dd, bm.dist_q)) {
        bm.competitors.Insert(dd);
        if (!bm.children_erased &&
            bm.competitors.CountBelow(bm.dist_q) >= k) {
          bm.children_erased = true;
          for (Heap::Handle h : bm.children) {
            heap.Erase(h);
          }
          bm.children.clear();
        }
      }
    } else {
      bm.competitors.Insert(dd);
    }
  };

  while (!heap.empty()) {
    auto [dist, node] = heap.Pop();
    NodeBook& b = book_of(node);
    if (b.visited) {
      continue;
    }
    b.visited = true;
    b.dist_q = dist;
    if (b.competitors.CountBelow(dist) >= k) {
      out.stats.nodes_pruned++;
      continue;
    }
    out.stats.nodes_expanded++;
    out.stats.nodes_scanned++;

    // The span survives the per-edge verifications below (aux cursor).
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(node, ws.nbr_cursor));

    // Edge-triggered point discovery + verification-with-bookkeeping.
    for (const AdjEntry& a : nbrs) {
      if (!reader.Has(node, a.node)) {
        continue;
      }
      GRNN_RETURN_NOT_OK(reader.Read(node, a.node, &ws.records));
      for (const EdgePointRecord& r : ws.records) {
        if (r.point == options.exclude_point ||
            !verified.insert(r.point).second) {
          continue;
        }
        const EdgePosition& cpos = points.PositionOf(r.point);
        const Weight cw = points.EdgeWeightOfPoint(r.point);
        const Weight offset = node < a.node ? r.pos : a.weight - r.pos;
        const Weight upper = dist + offset;  // >= d(p, q)
        GRNN_ASSIGN_OR_RETURN(
            auto v, searcher.Verify(r.point, cpos, cw, options.k, upper,
                                    &out.stats, on_settle));
        if (v.is_rknn) {
          out.results.push_back(PointMatch{r.point, cpos.u, v.dist});
        }
      }
    }

    // Discoveries may have invalidated this node.
    if (b.competitors.CountBelow(dist) >= k) {
      continue;
    }
    for (const AdjEntry& a : nbrs) {
      if (!book_of(a.node).visited) {
        Heap::Handle h = heap.Push(dist + a.weight, a.node);
        out.stats.heap_pushes++;
        book_of(node).children.push_back(h);
      }
    }
  }
  SortResults(out);
  return out;
}

Result<RknnResult> UnrestrictedLazyEpRknn(const graph::NetworkView& g,
                                          const EdgePointSet& points,
                                          const EdgePointReader& reader,
                                          const UnrestrictedQuery& query,
                                          const RknnOptions& options,
                                          SearchWorkspace& ws) {
  // Armed-trace child span (obs/trace.h): the whole lazy-EP expansion.
  obs::ScopedSpan span(obs::CurrentTrace(), "lazyep.expand");
  GRNN_ASSIGN_OR_RETURN(
      auto prep, PrepareQuery(g, query, options, ws.aux_nbr_cursor));
  const auto& [q, qw] = prep;
  const size_t k = static_cast<size_t>(options.k);

  RknnResult out;
  UnrestrictedSearcher searcher(&g, &points, &reader, &q, qw, &options,
                                &ws);

  auto& heap = ws.node_heap;
  heap.clear();
  ws.best.Reset(g.num_nodes());
  ws.visited.Reset(g.num_nodes());
  SeedQuery(q, qw, heap, ws.best, &out.stats);

  // H': per-discovered-point expansion.
  auto& ep_heap = ws.ep_heap;
  ep_heap.clear();
  std::unordered_map<NodeId, DiscoveredList> discovered;

  auto& found = ws.seen_points;
  found.clear();

  auto drain_ep = [&](Weight frontier) -> Status {
    while (!ep_heap.empty() && ep_heap.top_key() < frontier) {
      auto [d, entry] = ep_heap.Pop();
      auto [node, point] = entry;
      DiscoveredList& list = discovered[node];
      if (list.ContainsPoint(point) || list.SaturatedAt(d, k)) {
        continue;
      }
      list.Insert(d, point, k);
      out.stats.nodes_scanned++;
      // Own cursor: the main loop's span must survive a mid-iteration
      // drain.
      GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> drain_nbrs,
                            g.Scan(node, ws.aux_nbr_cursor));
      for (const AdjEntry& a : drain_nbrs) {
        ep_heap.Push(d + a.weight, {a.node, point});
        out.stats.heap_pushes++;
      }
    }
    return Status::OK();
  };

  while (!heap.empty()) {
    auto [dist, node] = heap.Pop();
    if (ws.visited.Contains(node)) {
      continue;
    }
    ws.visited.Insert(node);
    GRNN_RETURN_NOT_OK(drain_ep(dist));

    auto it = discovered.find(node);
    if (it != discovered.end() && it->second.CountBelow(dist) >= k) {
      out.stats.nodes_pruned++;
      continue;
    }
    out.stats.nodes_expanded++;
    out.stats.nodes_scanned++;

    // The span survives the nested verifications AND the mid-iteration
    // H' drain below (both expand through the aux cursor).
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(node, ws.nbr_cursor));
    for (const AdjEntry& a : nbrs) {
      if (!reader.Has(node, a.node)) {
        continue;
      }
      GRNN_RETURN_NOT_OK(reader.Read(node, a.node, &ws.records));
      for (const EdgePointRecord& r : ws.records) {
        if (r.point == options.exclude_point ||
            !found.insert(r.point).second) {
          continue;
        }
        const EdgePosition& cpos = points.PositionOf(r.point);
        const Weight cw = points.EdgeWeightOfPoint(r.point);
        GRNN_ASSIGN_OR_RETURN(
            auto v, searcher.Verify(r.point, cpos, cw, options.k,
                                    kInfinity, &out.stats,
                                    [](NodeId, Weight) {}));
        if (v.is_rknn) {
          out.results.push_back(PointMatch{r.point, cpos.u, v.dist});
        }
        // Feed H' from both endpoints of the hosting edge.
        ep_heap.Push(cpos.pos, {cpos.u, r.point});
        ep_heap.Push(cw - cpos.pos, {cpos.v, r.point});
        out.stats.heap_pushes += 2;
      }
    }

    GRNN_RETURN_NOT_OK(drain_ep(dist));
    it = discovered.find(node);
    if (it != discovered.end() && it->second.CountBelow(dist) >= k) {
      continue;
    }

    for (const AdjEntry& a : nbrs) {
      const Weight nd = dist + a.weight;
      if (!ws.visited.Contains(a.node) && nd < ws.best.Get(a.node)) {
        ws.best.Set(a.node, nd);
        heap.Push(nd, a.node);
        out.stats.heap_pushes++;
      }
    }
  }
  SortResults(out);
  return out;
}

Result<RknnResult> UnrestrictedEagerMRknn(const graph::NetworkView& g,
                                          const EdgePointSet& points,
                                          const EdgePointReader& reader,
                                          const KnnStore* store,
                                          const UnrestrictedQuery& query,
                                          const RknnOptions& options,
                                          SearchWorkspace& ws) {
  if (store == nullptr) {
    return Status::InvalidArgument("store is null");
  }
  if (static_cast<uint32_t>(options.k) > store->k()) {
    return Status::InvalidArgument("query k exceeds materialized K");
  }
  // Armed-trace child span (obs/trace.h): the whole eager-M expansion.
  obs::ScopedSpan span(obs::CurrentTrace(), "eagerm.expand");
  GRNN_ASSIGN_OR_RETURN(
      auto prep, PrepareQuery(g, query, options, ws.aux_nbr_cursor));
  const auto& [q, qw] = prep;
  const size_t k = static_cast<size_t>(options.k);

  RknnResult out;
  UnrestrictedSearcher searcher(&g, &points, &reader, &q, qw, &options,
                                &ws);

  auto& heap = ws.node_heap;
  heap.clear();
  ws.best.Reset(g.num_nodes());
  ws.visited.Reset(g.num_nodes());
  SeedQuery(q, qw, heap, ws.best, &out.stats);

  auto& verified = ws.seen_points;
  verified.clear();
  auto& list = ws.knn_list;

  auto verify_candidate = [&](PointId p) -> Status {
    if (p == options.exclude_point || !verified.insert(p).second) {
      return Status::OK();
    }
    const EdgePosition& cpos = points.PositionOf(p);
    const Weight cw = points.EdgeWeightOfPoint(p);
    GRNN_ASSIGN_OR_RETURN(
        auto v, searcher.Verify(p, cpos, cw, options.k, kInfinity,
                                &out.stats, [](NodeId, Weight) {}));
    if (v.is_rknn) {
      out.results.push_back(PointMatch{p, cpos.u, v.dist});
    }
    return Status::OK();
  };

  while (!heap.empty()) {
    auto [dist, node] = heap.Pop();
    if (ws.visited.Contains(node)) {
      continue;
    }
    ws.visited.Insert(node);
    out.stats.nodes_expanded++;
    out.stats.nodes_scanned++;

    // The span survives the nested verifications below (aux cursor).
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(node, ws.nbr_cursor));
    for (const AdjEntry& a : nbrs) {
      if (reader.Has(node, a.node)) {
        GRNN_RETURN_NOT_OK(reader.Read(node, a.node, &ws.records));
        for (const EdgePointRecord& r : ws.records) {
          GRNN_RETURN_NOT_OK(verify_candidate(r.point));
        }
      }
    }

    // Materialized pruning + candidates.
    GRNN_RETURN_NOT_OK(store->Read(node, &list));
    out.stats.knn_list_reads++;
    size_t closer = 0;
    for (const NnEntry& e : list) {
      if (e.point != options.exclude_point && DistLess(e.dist, dist)) {
        GRNN_RETURN_NOT_OK(verify_candidate(e.point));
        if (++closer >= k) {
          break;
        }
      }
    }
    if (closer >= k) {
      out.stats.nodes_pruned++;
      continue;
    }

    for (const AdjEntry& a : nbrs) {
      const Weight nd = dist + a.weight;
      if (!ws.visited.Contains(a.node) && nd < ws.best.Get(a.node)) {
        ws.best.Set(a.node, nd);
        heap.Push(nd, a.node);
        out.stats.heap_pushes++;
      }
    }
  }
  SortResults(out);
  return out;
}

Result<RknnResult> UnrestrictedBruteForceRknn(
    const graph::NetworkView& g, const EdgePointSet& points,
    const UnrestrictedQuery& query, const RknnOptions& options) {
  graph::NeighborCursor cursor;
  GRNN_ASSIGN_OR_RETURN(auto prep,
                        PrepareQuery(g, query, options, cursor));
  const auto& [q, qw] = prep;

  // Multi-seed Dijkstra over nodes: the edge-resident point seeds both
  // endpoints with their offsets. Workspace and seed buffer hoisted out
  // of the lambda — the oracle fires one expansion per live point, and
  // reuse keeps each start allocation-free.
  graph::DijkstraWorkspace dws;
  std::vector<std::pair<NodeId, Weight>> seed_pairs;
  auto node_distances = [&](const std::vector<PointSeed>& seeds,
                            std::vector<Weight>* dist) -> Status {
    seed_pairs.clear();
    for (const PointSeed& s : seeds) {
      seed_pairs.emplace_back(s.node, s.dist);
    }
    return graph::MultiSourceDistancesInto(g, seed_pairs, dws, dist);
  };

  // Distance from a node-distance field to a position.
  auto to_position = [&](const std::vector<Weight>& dist,
                         const EdgePosition& pos, Weight w,
                         const EdgePosition* origin) -> Weight {
    Weight d = std::min(dist[pos.u] + pos.pos, dist[pos.v] + w - pos.pos);
    if (origin != nullptr && origin->u == pos.u && origin->v == pos.v) {
      d = std::min(d, std::abs(origin->pos - pos.pos));
    }
    return d;
  };

  RknnResult out;
  std::vector<Weight> dist;  // reused across the per-point expansions
  for (PointId p : points.LivePoints()) {
    if (p == options.exclude_point) {
      continue;
    }
    const EdgePosition& ppos = points.PositionOf(p);
    const Weight pw = points.EdgeWeightOfPoint(p);
    GRNN_RETURN_NOT_OK(
        node_distances(EdgePointSet::SeedsOf(ppos, pw), &dist));
    Weight d_query;
    if (q.is_position) {
      d_query = to_position(dist, q.position, qw, &ppos);
    } else {
      d_query = kInfinity;
      for (NodeId n : q.route) {
        d_query = std::min(d_query, dist[n]);
      }
    }
    if (d_query == kInfinity) {
      continue;
    }
    size_t closer = 0;
    for (PointId r : points.LivePoints()) {
      if (r == p || r == options.exclude_point) {
        continue;
      }
      const EdgePosition& rpos = points.PositionOf(r);
      const Weight rw = points.EdgeWeightOfPoint(r);
      Weight d_r = to_position(dist, rpos, rw, &ppos);
      if (DistLess(d_r, d_query)) {
        ++closer;
      }
    }
    if (closer < static_cast<size_t>(options.k)) {
      out.results.push_back(PointMatch{p, ppos.u, d_query});
    }
  }
  SortResults(out);
  return out;
}

Status UnrestrictedBuildAllNn(const graph::NetworkView& g,
                              const EdgePointSet& points, KnnStore* store,
                              UpdateStats* stats) {
  std::vector<std::pair<PointId, std::vector<PointSeed>>> seeds;
  for (PointId p : points.LivePoints()) {
    seeds.push_back({p, EdgePointSet::SeedsOf(points.PositionOf(p),
                                              points.EdgeWeightOfPoint(p))});
  }
  return BuildAllNnFromSeeds(g, seeds, store, stats);
}

Status UnrestrictedMaterializedInsert(const graph::NetworkView& g,
                                      const EdgePointSet& points, PointId p,
                                      KnnStore* store, UpdateStats* stats) {
  if (!points.IsLive(p)) {
    return Status::FailedPrecondition(
        StrPrintf("point %u is not live", p));
  }
  return MaterializedInsertSeeded(
      g, p,
      EdgePointSet::SeedsOf(points.PositionOf(p),
                            points.EdgeWeightOfPoint(p)),
      store, stats);
}

Status UnrestrictedMaterializedDelete(const graph::NetworkView& g,
                                      const EdgePointSet& points, PointId p,
                                      const EdgePosition& old_pos,
                                      Weight old_weight, KnnStore* store,
                                      UpdateStats* stats) {
  // The cursor outlives the std::function wrapper (LocalPointsFn needs a
  // copyable callable, so the lambda borrows it by reference).
  graph::NeighborCursor cursor;
  auto local_points = [&g, &points, &cursor](
                          NodeId n, std::vector<NnEntry>* out) -> Status {
    out->clear();
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(n, cursor));
    for (const AdjEntry& a : nbrs) {
      for (const EdgePointRecord& r : points.PointsOnEdge(n, a.node)) {
        const Weight offset = n < a.node ? r.pos : a.weight - r.pos;
        out->push_back(NnEntry{r.point, offset});
      }
    }
    return Status::OK();
  };
  return MaterializedDeleteSeeded(
      g, p, EdgePointSet::SeedsOf(old_pos, old_weight), store, stats,
      local_points);
}

}  // namespace grnn::core
