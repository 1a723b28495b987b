// Copyright (c) GRNN authors.
// Algorithmic counters reported alongside query results. Page-access
// counts come from the buffer pool (storage::IoStats); these counters
// cover the CPU-side behaviour the paper discusses (e.g. eager's repeated
// local expansions vs lazy's single traversal).

#ifndef GRNN_CORE_SEARCH_STATS_H_
#define GRNN_CORE_SEARCH_STATS_H_

#include <cstdint>

namespace grnn::core {

struct SearchStats {
  /// Nodes deheaped by the main (query) expansion.
  uint64_t nodes_expanded = 0;
  /// Nodes settled across all expansions (main + range-NN + verify).
  uint64_t nodes_scanned = 0;
  /// Nodes whose expansion was cut by Lemma 1 (or its count/list forms).
  uint64_t nodes_pruned = 0;
  /// range-NN sub-queries issued (eager).
  uint64_t range_nn_calls = 0;
  /// Verification sub-queries issued.
  uint64_t verify_calls = 0;
  /// Materialized KNN-list reads (eager-M).
  uint64_t knn_list_reads = 0;
  /// Heap insertions across all heaps.
  uint64_t heap_pushes = 0;
  /// Candidates accepted without a verification expansion (eager-M
  /// materialization shortcut).
  uint64_t shortcut_accepts = 0;
  /// Inverted-index entries walked by the hub-label primitives
  /// (index/hub_rknn.h) — the label-intersection analogue of
  /// nodes_scanned.
  uint64_t label_entries = 0;
  /// Always 0: hub-label queries no longer fall back to an expansion
  /// (an update whose hub-index patch fails fails instead). Kept only
  /// because the benchmark harness still reads it; delete it together
  /// with that reader.
  uint64_t hub_fallbacks = 0;

  SearchStats& operator+=(const SearchStats& o) {
    nodes_expanded += o.nodes_expanded;
    nodes_scanned += o.nodes_scanned;
    nodes_pruned += o.nodes_pruned;
    range_nn_calls += o.range_nn_calls;
    verify_calls += o.verify_calls;
    knn_list_reads += o.knn_list_reads;
    heap_pushes += o.heap_pushes;
    shortcut_accepts += o.shortcut_accepts;
    label_entries += o.label_entries;
    hub_fallbacks += o.hub_fallbacks;
    return *this;
  }
};

}  // namespace grnn::core

#endif  // GRNN_CORE_SEARCH_STATS_H_
