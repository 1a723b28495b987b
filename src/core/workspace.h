// Copyright (c) GRNN authors.
// SearchWorkspace: the reusable search state threaded through every RkNN
// algorithm so that consecutive queries (RknnEngine::RunBatch) stop paying
// per-call allocation. RknnEngine pools workspaces and leases one per
// in-flight query / parallel worker; a workspace itself is single-owner
// mutable state and must never be shared by two live queries.
//
// All algorithms draw their expansion state from one workspace. The
// buffers fall into two groups that may be live at the same time:
//
//   * main buffers (node_heap, best, visited, nbr_cursor, records,
//     seen_points) hold the primary expansion around the query;
//   * aux buffers (aux_node_heap, mixed_heap, aux_best, aux_visited,
//     aux_nbr_cursor, aux_records, aux_seen_points) hold the
//     sub-expansions (verification / range-NN) that run while the main
//     expansion is suspended.
//
// The lazy-EP H' expansion gets its own heap (ep_heap) because it stays
// live across verification calls. An algorithm must never hand the same
// buffer to two concurrently live expansions. In particular the neighbor
// cursors: a span scanned through nbr_cursor stays valid across aux
// scans (each cursor invalidates only its own span), which is exactly
// why main and aux expansions must not share one cursor. The searcher
// carries a third cursor for the restricted NN primitives.
//
// No cursor holds a buffer-pool pin: stored adjacency lists and labels
// are copied into the cursors' scratch, and every page is unpinned
// before the scan returns.
//
// Small per-query transients (the lazy algorithms' per-node bookkeeping
// maps, result vectors) are intentionally not pooled here; the counters
// below track only the O(|V|)-sized state whose reuse dominates batch
// throughput (see DESIGN.md, "Batched execution").

#ifndef GRNN_CORE_WORKSPACE_H_
#define GRNN_CORE_WORKSPACE_H_

#include <unordered_set>
#include <utility>
#include <vector>

#include "core/primitives.h"
#include "index/hub_rknn.h"
#include "obs/trace.h"
#include "storage/knn_file.h"
#include "storage/point_file.h"

namespace grnn::core {

class SearchWorkspace {
 public:
  // --- Main expansion ---
  IndexedHeap<Weight, NodeId> node_heap;
  StampedDistances best;
  StampedSet visited;
  graph::NeighborCursor nbr_cursor;
  std::vector<storage::EdgePointRecord> records;
  std::unordered_set<PointId> seen_points;  // candidate/verified memo

  // --- Sub-expansions (verify / range-NN), never live with each other ---
  IndexedHeap<Weight, NodeId> aux_node_heap;        // lazy verification
  IndexedHeap<Weight, std::pair<NodeId, PointId>>
      mixed_heap;                                    // unrestricted verify/NN
  StampedDistances aux_best;
  StampedSet aux_visited;
  graph::NeighborCursor aux_nbr_cursor;
  std::vector<storage::EdgePointRecord> aux_records;
  std::unordered_set<PointId> aux_seen_points;

  // --- Long-lived secondary expansions ---
  IndexedHeap<Weight, std::pair<NodeId, PointId>> ep_heap;  // lazy-EP H'

  // --- Label-scan scratch (Algorithm::kHubLabel) ---
  // Cursor and per-point accumulation state of the hub-label
  // primitives.
  index::LabelWorkspace labels;

  // --- Shared scratch ---
  StampedSet mark;                       // query / route membership
  std::vector<NodeId> query_nodes;       // owned copy of query targets
  std::vector<storage::NnEntry> knn_list;        // materialized-list reads
  std::vector<storage::NnEntry> aux_knn_list;    // candidate-list reads
  std::vector<NnResult> nn_results;      // range-NN output buffer
  NnSearcher searcher;                   // restricted NN primitives

  // --- Telemetry (src/obs/) ---
  // Pooled span arena for sampled queries: Dispatch Begin()s it when it
  // arms tracing for a query without a caller-provided context, so
  // sampling allocates nothing after warm-up (the arena reuses its
  // spans vector like every other pooled buffer).
  obs::TraceContext trace;

  /// Total element capacity of every pooled buffer. RknnEngine snapshots
  /// this around each query: once a workspace has warmed up on a given
  /// graph, the footprint stops moving and batched queries run
  /// allocation-free in the pooled state.
  size_t CapacityFootprint() const {
    return node_heap.slot_capacity() + aux_node_heap.slot_capacity() +
           mixed_heap.slot_capacity() + ep_heap.slot_capacity() +
           best.capacity() + aux_best.capacity() + visited.capacity() +
           aux_visited.capacity() + mark.capacity() +
           nbr_cursor.scratch_capacity() +
           aux_nbr_cursor.scratch_capacity() + records.capacity() +
           aux_records.capacity() + knn_list.capacity() +
           aux_knn_list.capacity() + nn_results.capacity() +
           query_nodes.capacity() +
           seen_points.bucket_count() + aux_seen_points.bucket_count() +
           searcher.CapacityFootprint() + labels.CapacityFootprint();
  }
};

}  // namespace grnn::core

#endif  // GRNN_CORE_WORKSPACE_H_
