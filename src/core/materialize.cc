#include "core/materialize.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/indexed_heap.h"
#include "common/numeric.h"
#include "common/string_util.h"
#include "core/primitives.h"
#include "core/workspace.h"

namespace grnn::core {

namespace {

// Inserts (point, dist) into an ascending list, capped at k entries.
// Returns false when the entry did not improve the list.
bool InsertEntry(std::vector<NnEntry>* list, PointId point, Weight dist,
                 uint32_t k) {
  if (list->size() == k && !(dist < list->back().dist)) {
    return false;
  }
  auto it = std::upper_bound(
      list->begin(), list->end(), dist,
      [](Weight d, const NnEntry& e) { return d < e.dist; });
  list->insert(it, NnEntry{point, dist});
  if (list->size() > k) {
    list->pop_back();
  }
  return true;
}

uint64_t PairKey(NodeId n, PointId p) {
  return (static_cast<uint64_t>(n) << 32) | p;
}

}  // namespace

Status MemoryKnnStore::Read(NodeId n, std::vector<NnEntry>* out) const {
  if (n >= lists_.size()) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  *out = lists_[n];
  return Status::OK();
}

Status MemoryKnnStore::Write(NodeId n,
                             const std::vector<NnEntry>& entries) {
  if (n >= lists_.size()) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  if (entries.size() > k_) {
    return Status::InvalidArgument("list exceeds capacity K");
  }
  lists_[n] = entries;
  return Status::OK();
}

Status BuildAllNnFromSeeds(
    const graph::NetworkView& g,
    const std::vector<std::pair<PointId, std::vector<PointSeed>>>& points,
    KnnStore* store, UpdateStats* stats) {
  if (store == nullptr) {
    return Status::InvalidArgument("store is null");
  }
  if (store->num_nodes() != g.num_nodes()) {
    return Status::InvalidArgument("store sized for a different graph");
  }
  const uint32_t k = store->k();

  // All lists are built in memory during the single expansion and written
  // out once complete; construction is not query-time cost.
  std::vector<std::vector<NnEntry>> lists(g.num_nodes());

  struct Entry {
    NodeId node;
    PointId point;
  };
  IndexedHeap<Weight, Entry> heap;
  std::unordered_set<uint64_t> seen;  // (node, point) pairs processed

  for (const auto& [p, seeds] : points) {
    for (const PointSeed& s : seeds) {
      if (s.node >= g.num_nodes()) {
        return Status::OutOfRange("seed node out of range");
      }
      heap.Push(s.dist, Entry{s.node, p});
      if (stats != nullptr) {
        stats->heap_pushes++;
      }
    }
  }

  graph::NeighborCursor cursor;
  while (!heap.empty()) {
    auto [dist, entry] = heap.Pop();
    auto [node, point] = entry;
    if (lists[node].size() >= k) {
      continue;  // list complete; expansion need not pass through
    }
    if (!seen.insert(PairKey(node, point)).second) {
      continue;  // node already visited by this point
    }
    lists[node].push_back(NnEntry{point, dist});
    if (stats != nullptr) {
      stats->nodes_touched++;
    }
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(node, cursor));
    for (const AdjEntry& a : nbrs) {
      if (lists[a.node].size() < k &&
          seen.count(PairKey(a.node, point)) == 0) {
        heap.Push(dist + a.weight, Entry{a.node, point});
        if (stats != nullptr) {
          stats->heap_pushes++;
        }
      }
    }
  }

  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    GRNN_RETURN_NOT_OK(store->Write(n, lists[n]));
    if (stats != nullptr) {
      stats->lists_written++;
    }
  }
  return Status::OK();
}

Status BuildAllNn(const graph::NetworkView& g, const NodePointSet& points,
                  KnnStore* store, UpdateStats* stats) {
  std::vector<std::pair<PointId, std::vector<PointSeed>>> seeds;
  for (PointId p : points.LivePoints()) {
    seeds.push_back({p, {PointSeed{points.NodeOf(p), 0.0}}});
  }
  return BuildAllNnFromSeeds(g, seeds, store, stats);
}

Status MaterializedInsertSeeded(const graph::NetworkView& g, PointId p,
                                const std::vector<PointSeed>& seeds,
                                KnnStore* store, UpdateStats* stats) {
  if (store == nullptr) {
    return Status::InvalidArgument("store is null");
  }
  if (seeds.empty()) {
    return Status::InvalidArgument("no seeds for inserted point");
  }
  const uint32_t k = store->k();

  IndexedHeap<Weight, NodeId> heap;
  std::unordered_set<NodeId> processed;
  for (const PointSeed& s : seeds) {
    if (s.node >= g.num_nodes()) {
      return Status::OutOfRange("seed node out of range");
    }
    heap.Push(s.dist, s.node);
  }

  std::vector<NnEntry> list;
  graph::NeighborCursor cursor;
  while (!heap.empty()) {
    auto [dist, n] = heap.Pop();
    if (!processed.insert(n).second) {
      continue;
    }
    GRNN_RETURN_NOT_OK(store->Read(n, &list));
    if (stats != nullptr) {
      stats->nodes_touched++;
    }
    // Stop the expansion where the new point no longer improves the list
    // (paper: NN(n3) unchanged => neighbors not en-heaped).
    if (!InsertEntry(&list, p, dist, k)) {
      continue;
    }
    GRNN_RETURN_NOT_OK(store->Write(n, list));
    if (stats != nullptr) {
      stats->lists_written++;
    }
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(n, cursor));
    for (const AdjEntry& a : nbrs) {
      if (processed.count(a.node) == 0) {
        heap.Push(dist + a.weight, a.node);
        if (stats != nullptr) {
          stats->heap_pushes++;
        }
      }
    }
  }
  return Status::OK();
}

Status MaterializedInsert(const graph::NetworkView& g,
                          const NodePointSet& points, NodeId node,
                          KnnStore* store, UpdateStats* stats) {
  const PointId p = points.PointAt(node);
  if (p == kInvalidPoint) {
    return Status::FailedPrecondition(
        StrPrintf("node %u hosts no point to insert", node));
  }
  return MaterializedInsertSeeded(g, p, {PointSeed{node, 0.0}}, store,
                                  stats);
}

Status MaterializedDeleteSeeded(const graph::NetworkView& g, PointId p,
                                const std::vector<PointSeed>& seeds,
                                KnnStore* store, UpdateStats* stats,
                                const LocalPointsFn& local_points) {
  if (store == nullptr) {
    return Status::InvalidArgument("store is null");
  }
  if (seeds.empty()) {
    return Status::InvalidArgument("no seeds for deleted point");
  }
  const uint32_t k = store->k();

  struct Entry {
    NodeId node;
    PointId point;
  };

  // --- Step 1 (Fig 10): strip p from every affected list; surviving and
  // border entries then refill via H'.
  IndexedHeap<Weight, NodeId> heap;
  IndexedHeap<Weight, Entry> refill;  // H'
  std::unordered_set<NodeId> processed;
  // Affected nodes in discovery order: the refill seeds H' in this order,
  // so its equal-distance entries pop alike under every standard
  // library. The set answers membership.
  std::vector<NodeId> affected_order;
  std::unordered_set<NodeId> affected;
  for (const PointSeed& s : seeds) {
    if (s.node >= g.num_nodes()) {
      return Status::OutOfRange("seed node out of range");
    }
    heap.Push(s.dist, s.node);
  }

  std::vector<NnEntry> list;
  graph::NeighborCursor cursor;
  while (!heap.empty()) {
    auto [dist, n] = heap.Pop();
    if (!processed.insert(n).second) {
      continue;
    }
    GRNN_RETURN_NOT_OK(store->Read(n, &list));
    if (stats != nullptr) {
      stats->nodes_touched++;
    }
    auto it = std::find_if(list.begin(), list.end(), [&](const NnEntry& e) {
      return e.point == p;
    });
    if (it == list.end()) {
      // Border node: list intact, expansion does not proceed past it.
      if (stats != nullptr) {
        stats->border_nodes++;
      }
      continue;
    }
    // Affected node: remove p and keep expanding.
    list.erase(it);
    affected.insert(n);
    affected_order.push_back(n);
    GRNN_RETURN_NOT_OK(store->Write(n, list));
    if (stats != nullptr) {
      stats->lists_written++;
    }
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(n, cursor));
    for (const AdjEntry& a : nbrs) {
      if (processed.count(a.node) == 0) {
        heap.Push(dist + a.weight, a.node);
        if (stats != nullptr) {
          stats->heap_pushes++;
        }
      }
    }
  }

  // Seed the refill: the replacement entry of an affected node arrives
  // either from an adjacent border node's (intact) list, or -- for K > 1
  // -- from a surviving entry of an adjacent affected node's own list
  // (the paper's Fig 10 description covers the K = 1 case, where affected
  // lists lose their only entry and border lists are the sole source).
  for (NodeId n : affected_order) {
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(n, cursor));
    GRNN_RETURN_NOT_OK(store->Read(n, &list));
    if (stats != nullptr) {
      stats->nodes_touched++;
    }
    // Points directly reachable from n (own node / incident edges) may
    // newly qualify for its stripped list; they have no border path.
    if (local_points) {
      std::vector<NnEntry> locals;
      GRNN_RETURN_NOT_OK(local_points(n, &locals));
      for (const NnEntry& e : locals) {
        if (e.point != p) {
          refill.Push(e.dist, Entry{n, e.point});
          if (stats != nullptr) {
            stats->heap_pushes++;
          }
        }
      }
    }
    for (const AdjEntry& a : nbrs) {
      if (affected.count(a.node) != 0) {
        // Surviving entries of this affected node seed its affected
        // neighbor.
        for (const NnEntry& e : list) {
          refill.Push(e.dist + a.weight, Entry{a.node, e.point});
          if (stats != nullptr) {
            stats->heap_pushes++;
          }
        }
      } else {
        // Border neighbor: its whole list seeds this node.
        std::vector<NnEntry> blist;
        GRNN_RETURN_NOT_OK(store->Read(a.node, &blist));
        if (stats != nullptr) {
          stats->nodes_touched++;
        }
        for (const NnEntry& e : blist) {
          refill.Push(e.dist + a.weight, Entry{n, e.point});
          if (stats != nullptr) {
            stats->heap_pushes++;
          }
        }
      }
    }
  }

  // --- Step 2: refill affected lists by expansion from the border seeds.
  std::unordered_set<uint64_t> seen;
  while (!refill.empty()) {
    auto [dist, entry] = refill.Pop();
    auto [n, pi] = entry;
    GRNN_RETURN_NOT_OK(store->Read(n, &list));
    if (stats != nullptr) {
      stats->nodes_touched++;
    }
    if (list.size() >= k) {
      continue;
    }
    if (!seen.insert(PairKey(n, pi)).second) {
      continue;
    }
    // Entries already present (inherited from the stripped list) must not
    // be duplicated.
    bool present = std::any_of(list.begin(), list.end(),
                               [&](const NnEntry& e) {
                                 return e.point == pi;
                               });
    if (!present) {
      InsertEntry(&list, pi, dist, k);
      GRNN_RETURN_NOT_OK(store->Write(n, list));
      if (stats != nullptr) {
        stats->lists_written++;
      }
    }
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(n, cursor));
    for (const AdjEntry& a : nbrs) {
      if (affected.count(a.node) != 0 &&
          seen.count(PairKey(a.node, pi)) == 0) {
        refill.Push(dist + a.weight, Entry{a.node, pi});
        if (stats != nullptr) {
          stats->heap_pushes++;
        }
      }
    }
  }
  return Status::OK();
}

Status MaterializedDelete(const graph::NetworkView& g,
                          const NodePointSet& points, PointId p,
                          NodeId host, KnnStore* store,
                          UpdateStats* stats) {
  if (host >= g.num_nodes()) {
    return Status::OutOfRange("host node out of range");
  }
  if (points.IsLive(p)) {
    return Status::FailedPrecondition(
        StrPrintf("point %u must be removed from the point set first", p));
  }
  return MaterializedDeleteSeeded(g, p, {PointSeed{host, 0.0}}, store,
                                  stats);
}

Result<RknnResult> EagerMRknn(const graph::NetworkView& g,
                              const NodePointSet& points,
                              const KnnStore* store,
                              std::span<const NodeId> query_nodes,
                              const RknnOptions& options,
                              SearchWorkspace& ws) {
  if (store == nullptr) {
    return Status::InvalidArgument("store is null");
  }
  // k against the store's K before the nodes (a positive k only: k <= 0
  // is the node validation's InvalidArgument).
  if (options.k > 0 && static_cast<uint32_t>(options.k) > store->k()) {
    return Status::InvalidArgument(
        StrPrintf("query k=%d exceeds materialized K=%u", options.k,
                  store->k()));
  }
  GRNN_RETURN_NOT_OK(ValidateQueryNodes(g.num_nodes(), query_nodes,
                                        options.k));
  // Armed-trace child span (obs/trace.h): the whole eager-M expansion;
  // one nullptr branch when the query is not sampled.
  obs::ScopedSpan span(obs::CurrentTrace(), "eagerm.expand");
  const size_t k = static_cast<size_t>(options.k);
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
  auto& list = ws.knn_list;
  auto& cand_list = ws.aux_knn_list;
  auto& visited = ws.visited;

  while (!heap.empty()) {
    auto [dist, node] = heap.Pop();
    if (visited.Contains(node)) {
      continue;
    }
    visited.Insert(node);
    out.stats.nodes_expanded++;
    out.stats.nodes_scanned++;

    // A point residing on a query/route node is a trivial result; the
    // materialized candidates below are restricted to strictly-closer
    // entries and can never produce it.
    if (dist == 0.0) {
      PointId p = points.PointAt(node);
      if (p != kInvalidPoint && p != options.exclude_point &&
          verified.insert(p).second) {
        out.results.push_back(PointMatch{p, node, 0.0});
      }
    }

    // Materialized lookup instead of range-NN.
    GRNN_RETURN_NOT_OK(store->Read(node, &list));
    out.stats.knn_list_reads++;

    // Entries strictly closer than the query (the query's own point never
    // qualifies: its distance to `node` equals `dist`).
    size_t closer = 0;
    for (const NnEntry& e : list) {
      if (e.point != options.exclude_point && DistLess(e.dist, dist)) {
        if (closer < k && verified.insert(e.point).second) {
          // Candidate: try the materialization shortcut before falling
          // back to a verification expansion.
          const NodeId cand_node = points.NodeOf(e.point);
          const Weight upper = dist + e.dist;  // d(q,n) + d(n,p)
          bool accepted = false;
          bool decided = false;
          if (cand_node != kInvalidNode) {
            GRNN_RETURN_NOT_OK(store->Read(cand_node, &cand_list));
            out.stats.knn_list_reads++;
            // d(p, p_k(p)): k-th entry after dropping p itself and the
            // query point. Lists are exact node-kNNs and p lies on its
            // node, so these distances are exact for p as well.
            size_t rank = 0;
            Weight dk = kInfinity;
            bool have_dk = false;
            for (const NnEntry& ce : cand_list) {
              if (ce.point == e.point ||
                  ce.point == options.exclude_point) {
                continue;
              }
              if (++rank == k) {
                dk = ce.dist;
                have_dk = true;
                break;
              }
            }
            if (have_dk && DistLessOrTied(upper, dk)) {
              accepted = true;
              decided = true;
              out.stats.shortcut_accepts++;
              out.results.push_back(
                  PointMatch{e.point, cand_node, upper});
            }
          }
          if (!decided) {
            GRNN_ASSIGN_OR_RETURN(
                auto outcome,
                ws.searcher.Verify(e.point, options.k, ws.query_nodes,
                                   options.exclude_point, &out.stats));
            accepted = outcome.is_rknn;
            if (accepted) {
              out.results.push_back(PointMatch{e.point, cand_node,
                                               outcome.dist_to_query});
            }
          }
        }
        ++closer;
        if (closer >= k) {
          break;
        }
      }
    }

    if (closer >= k) {
      out.stats.nodes_pruned++;
      continue;  // Lemma 1 with materialized distances
    }

    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(node, ws.nbr_cursor));
    ws.Relax(nbrs, dist, out.stats);
  }

  SortByPoint(out);
  return out;
}

}  // namespace grnn::core
