// Copyright (c) GRNN authors.
// Hub-label distance index (pruned landmark labeling) over a NetworkView.
//
// Every algorithm the engine inherited from the paper pays a network
// expansion per query. Hub labels (2-hop cover) trade a precomputation
// pass for O(|L(u)| + |L(v)|) exact distance queries: each node n keeps a
// label L(n) = {(h, d(n, h))} such that every connected pair (u, v) shares
// at least one hub on a shortest u-v path. ReHub (Efentakis & Pfoser,
// PAPERS.md) shows how the same labels answer kNN and RkNN over a point
// set through an inverted hub->points index — the engine's
// Algorithm::kHubLabel path (see index/hub_rknn.h) is built on the
// primitives here.
//
// The subsystem mirrors the repo's neighbor-access architecture
// (graph/network_view.h): labels are scanned through an abstract
// LabelStore with a cursor model, so the RkNN primitives run unchanged
// against the in-memory HubLabelIndex (zero-copy spans into its arrays)
// and the paged on-disk LabelFile (index/label_file.h, decoded into the
// cursor). One layout in memory (HubEntry runs), one format on disk,
// one serial builder.
//
// Freshness: labels depend only on the GRAPH, which is immutable for
// the lifetime of an engine; they never go stale. The derived inverted
// point index (index/hub_point_index.h) depends on the point sets and is
// patched as a step of every live update (one point's occurrences per
// update); an update whose patch fails fails whole, so the index always
// equals the sets — see RknnEngine::ApplyUpdate in core/engine.h.

#ifndef GRNN_INDEX_HUB_LABEL_H_
#define GRNN_INDEX_HUB_LABEL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "graph/network_view.h"

namespace grnn::index {

class LabelFile;  // decodes stored labels into a LabelCursor

/// One label entry: a hub node and the exact network distance to it.
struct HubEntry {
  NodeId hub = kInvalidNode;
  Weight dist = 0;

  friend bool operator==(const HubEntry&, const HubEntry&) = default;
};

/// \brief Per-scan label read state: a reusable decode buffer — the
/// LabelStore counterpart of graph::NeighborCursor. The span returned
/// by Scan stays valid until the next Scan through the same cursor or
/// its destruction. A cursor never holds a buffer-pool pin: stored
/// labels are decoded into it before Scan returns. Single-owner mutable
/// state.
class LabelCursor {
 public:
  /// Element capacity of the decode buffer (workspace-growth accounting).
  size_t scratch_capacity() const { return scratch_.capacity(); }

 private:
  friend class LabelFile;

  std::vector<HubEntry> scratch_;
};

/// \brief Abstract label access for the RkNN-via-labels primitives.
///
/// Two implementations: HubLabelIndex (in-memory CSR; Scan returns a
/// span straight into the arrays) and StoredLabelIndex
/// (index/label_file.h; Scan decodes into the cursor).
class LabelStore {
 public:
  virtual ~LabelStore() = default;

  virtual NodeId num_nodes() const = 0;
  /// Total label entries across all nodes.
  virtual size_t num_entries() const = 0;

  /// Scans the label of `n`, sorted by hub id. The span is valid until
  /// the next Scan through `cursor` or its destruction. Disk-backed
  /// implementations charge buffer-pool I/O.
  virtual Result<std::span<const HubEntry>> Scan(
      NodeId n, LabelCursor& cursor) const = 0;
};

/// Exact distance between `u` and `v` through any LabelStore: the
/// minimum of d(u,h) + d(h,v) over common hubs of the two (sorted)
/// labels; kInfinity when the labels share no hub (disconnected pair).
/// Needs two cursors because both spans are live during the merge.
Result<Weight> QueryViaStore(const LabelStore& labels, NodeId u, NodeId v,
                             LabelCursor& cu, LabelCursor& cv);

/// \brief Reusable merge buffers of VirtualLabel (workspace-growth
/// accounting through capacity()). Single-owner mutable state.
class VirtualLabelBuffers {
 public:
  /// Element capacity of every buffer.
  size_t capacity() const {
    return copies_.capacity() + heads_.capacity() + merged_.capacity();
  }

 private:
  friend Result<std::span<const HubEntry>> VirtualLabel(
      const LabelStore& labels, std::span<const NodeId> nodes,
      std::span<const Weight> offsets, LabelCursor& cursor,
      VirtualLabelBuffers& buffers);

  /// Unread slice [next, end) of one source label inside copies_.
  struct Head {
    size_t next = 0;
    size_t end = 0;
  };

  std::vector<HubEntry> copies_;  // offset source labels, back to back
  std::vector<Head> heads_;       // k-way merge heap, keyed by next hub
  std::vector<HubEntry> merged_;  // the virtual label
};

/// The VIRTUAL label of a query standing at distance `offsets[i]` from
/// each of `nodes[i]`: the hub-sorted list of
/// (h, min_i offsets[i] + d(nodes[i], h)) over the union of the nodes'
/// labels, so d(query, x) = min over its common hubs h with x of
/// dist + d(h, x) — one entry per hub however many nodes share it.
/// Empty `offsets` means all-zero offsets (a plain node set: a route).
///
/// A single zero-offset node returns its Scan span zero-copy. Otherwise
/// every source label is copied (offset) before the next Scan — a
/// stored label's span dies with the next scan through `cursor` — and
/// the copies are k-way merged in O(S log m) for S entries over m
/// nodes. The span stays valid until the next call with the same
/// `cursor` or `buffers`, or a Scan through `cursor`.
///
/// Taking the minimum before adding a further distance b is bit-exact:
/// IEEE rounding is monotone, so fl(min_i a_i + b) = min_i fl(a_i + b).
Result<std::span<const HubEntry>> VirtualLabel(
    const LabelStore& labels, std::span<const NodeId> nodes,
    std::span<const Weight> offsets, LabelCursor& cursor,
    VirtualLabelBuffers& buffers);

/// \brief In-memory hub-label index: CSR label arrays, each node's
/// entries sorted by hub id.
class HubLabelIndex final : public LabelStore {
 public:
  HubLabelIndex() = default;

  NodeId num_nodes() const override {
    return offsets_.empty() ? 0
                            : static_cast<NodeId>(offsets_.size() - 1);
  }
  size_t num_entries() const override { return entries_.size(); }

  /// Label of `n`, sorted by hub id (direct view, no cursor needed).
  std::span<const HubEntry> Label(NodeId n) const {
    return {entries_.data() + offsets_[n], offsets_[n + 1] - offsets_[n]};
  }

  size_t LabelSize(NodeId n) const {
    return offsets_[n + 1] - offsets_[n];
  }

  double AverageLabelSize() const {
    return num_nodes() == 0 ? 0.0
                            : static_cast<double>(entries_.size()) /
                                  static_cast<double>(num_nodes());
  }

  /// Exact network distance d(u, v); kInfinity for disconnected pairs.
  Weight Query(NodeId u, NodeId v) const;

  Result<std::span<const HubEntry>> Scan(
      NodeId n, LabelCursor& cursor) const override;

 private:
  friend class HubLabelBuilder;

  std::vector<size_t> offsets_;   // num_nodes + 1 entries
  std::vector<HubEntry> entries_;  // per-node runs, sorted by hub id
};

/// Hub processing order. The order determines label size, not
/// correctness: processing well-connected (or well-separating) nodes
/// first lets them cover — and prune — most pairs. Degree order works on
/// scale-free worlds (BRITE) but collapses on grids and road networks;
/// the separator and centrality orders exist for exactly those.
enum class HubOrder : uint8_t {
  kDegreeDesc,  // degree descending, node id ascending (default)
  kPartition,   // recursive-separator order (storage/partitioner.h):
                // top-level separators first; the order of choice for
                // grid/road worlds (labels ~ sum of separator widths)
  kBetweennessApprox,  // sampled shortest-path centrality (Brandes over
                       // `betweenness_samples` sources), descending
};

/// \brief Build observability: label-size shape, prune effectiveness and
/// per-phase wall time, filled by HubLabelBuilder::Build on request.
struct HubLabelBuildStats {
  size_t num_entries = 0;
  double avg_label_size = 0.0;
  size_t max_label_size = 0;
  uint64_t pruned_pops = 0;  // Dijkstra pops discarded by the cover test
  double order_s = 0.0;      // CSR materialization + hub-order computation
  double traverse_s = 0.0;   // pruned Dijkstra traversals
  double finalize_s = 0.0;   // per-node hub-id sort + CSR packing
};

struct HubLabelBuildOptions {
  HubOrder order = HubOrder::kDegreeDesc;
  /// Seed for the kBetweennessApprox source sampler.
  uint64_t seed = 42;
  /// Shortest-path source samples for HubOrder::kBetweennessApprox.
  uint32_t betweenness_samples = 64;
};

/// \brief Pruned landmark labeling over any NetworkView.
///
/// Processes nodes in the deterministic configured order; for each hub
/// it runs a Dijkstra expansion pruned wherever the labels built so far
/// already cover the pair at no greater distance. The result is a
/// canonical 2-hop cover: with `<=` pruning the label set is a pure
/// function of (graph, hub order), so identical inputs and options yield
/// bit-identical labels. The build runs serially on the calling thread.
class HubLabelBuilder {
 public:
  static Result<HubLabelIndex> Build(
      const graph::NetworkView& g,
      const HubLabelBuildOptions& options = {});

  /// As above, additionally filling `*stats` (ignored when null).
  static Result<HubLabelIndex> Build(const graph::NetworkView& g,
                                     const HubLabelBuildOptions& options,
                                     HubLabelBuildStats* stats);
};

}  // namespace grnn::index

#endif  // GRNN_INDEX_HUB_LABEL_H_
