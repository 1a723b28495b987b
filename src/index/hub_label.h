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
// LabelStore with a cursor/lease model, so the RkNN primitives run
// unchanged against the in-memory HubLabelIndex and the paged on-disk
// LabelFile (index/label_file.h, zero-copy spans out of pinned buffer
// pool frames).
//
// Staleness contract: labels depend only on the GRAPH, which is immutable
// for the lifetime of an engine; they never go stale. The derived
// inverted point index (index/hub_point_index.h) depends on the point
// sets and is maintained INCREMENTALLY across live updates (splice one
// point's occurrences per update); it goes stale only when a patch
// fails structurally — see core/engine.h, RebuildIndex().

#ifndef GRNN_INDEX_HUB_LABEL_H_
#define GRNN_INDEX_HUB_LABEL_H_

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "graph/network_view.h"

namespace grnn::common {
class ThreadPool;
}

namespace grnn::index {

class LabelFile;            // may install a page lease into a LabelCursor
class PackedHubLabelIndex;  // decodes SoA labels into a LabelCursor

/// One label entry: a hub node and the exact network distance to it.
/// Deliberately layout-identical to AdjEntry (16 bytes, distance at
/// offset 8) so the on-disk LabelFile can serve records zero-copy with
/// the same v2 page discipline as storage::GraphFile.
struct HubEntry {
  NodeId hub = kInvalidNode;
  Weight dist = 0;

  friend bool operator==(const HubEntry&, const HubEntry&) = default;
};

static_assert(std::is_trivially_copyable_v<HubEntry>);
static_assert(sizeof(HubEntry) == 16, "label records are 16 bytes");
static_assert(offsetof(HubEntry, hub) == 0);
static_assert(offsetof(HubEntry, dist) == 8);
static_assert(alignof(HubEntry) == 8);

/// \brief Per-scan label read state: a reusable decode buffer and the
/// lease backing the most recent span — the LabelStore counterpart of
/// graph::NeighborCursor, with the same lifetime rules: the span
/// returned by Scan stays valid until the next Scan through the same
/// cursor, Reset(), or destruction. Single-owner mutable state.
class LabelCursor {
 public:
  LabelCursor() = default;
  LabelCursor(LabelCursor&&) noexcept = default;
  LabelCursor& operator=(LabelCursor&&) noexcept = default;
  LabelCursor(const LabelCursor&) = delete;
  LabelCursor& operator=(const LabelCursor&) = delete;
  ~LabelCursor() = default;  // lease destructor releases any pins

  /// Invalidates the last span: drops held pins, keeps scratch capacity.
  void Reset() {
    if (lease_ != nullptr) {
      lease_->Drop();
    }
  }

  /// Buffer-pool pins currently held on behalf of the last span.
  size_t held_pins() const {
    return lease_ == nullptr ? 0 : lease_->num_pins();
  }

  /// Element capacity of the decode buffer (workspace-growth accounting).
  size_t scratch_capacity() const { return scratch_.capacity(); }

 private:
  friend class LabelFile;
  friend class PackedHubLabelIndex;

  std::vector<HubEntry> scratch_;
  std::unique_ptr<graph::NeighborLease> lease_;
};

/// \brief Abstract label access for the RkNN-via-labels primitives.
///
/// Two implementations: HubLabelIndex (in-memory CSR; Scan returns a
/// span straight into the arrays) and StoredLabelIndex
/// (index/label_file.h; Scan may lease a pinned buffer-pool frame).
class LabelStore {
 public:
  virtual ~LabelStore() = default;

  virtual NodeId num_nodes() const = 0;
  /// Total label entries across all nodes.
  virtual size_t num_entries() const = 0;

  /// Scans the label of `n`, sorted by hub id. The span is valid until
  /// the next Scan through `cursor`, cursor Reset, or cursor
  /// destruction. Disk-backed implementations charge buffer-pool I/O.
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
/// `cursor` or `buffers`, or a Scan/Reset of `cursor`.
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
  kRandom,      // seeded shuffle (ablation / adversarial testing)
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
  /// Dijkstra pops discarded by the cover test. The parallel build
  /// counts its (more optimistic) discovery-phase pops, so absolute
  /// values differ from a serial build of the same world; the labels do
  /// not.
  uint64_t pruned_pops = 0;
  /// Pops the parallel build's rank-order replay pruned — the serial
  /// prune decisions re-applied against the live labels (always 0 for
  /// serial builds).
  uint64_t merge_rejected = 0;
  double order_s = 0.0;     // CSR materialization + hub-order computation
  double traverse_s = 0.0;  // pruned Dijkstra traversals
  double merge_s = 0.0;     // rank-windowed candidate merge (parallel)
  double finalize_s = 0.0;  // per-node hub-id sort + CSR packing
  int threads = 1;          // workers the traversal phase actually used
  size_t windows = 0;       // rank windows processed (0 when serial)
};

struct HubLabelBuildOptions {
  HubOrder order = HubOrder::kDegreeDesc;
  /// Seed for HubOrder::kRandom and the kBetweennessApprox sampler.
  uint64_t seed = 42;
  /// Dijkstra roots fanned out concurrently; <= 1 selects the canonical
  /// serial build on the calling thread. Any value yields bit-identical
  /// labels (see the class comment for the protocol).
  int num_threads = 1;
  /// Hubs per rank window of the parallel build; 0 picks a default
  /// proportional to num_threads. Tuning knob only — every window size
  /// produces the same labels.
  uint32_t window = 0;
  /// Shortest-path source samples for HubOrder::kBetweennessApprox.
  uint32_t betweenness_samples = 64;
  /// Opt-in cross-check: after a parallel build, rebuild serially and
  /// require bit-identical labels (Status::Internal on divergence).
  /// Expensive — meant for tests and bench ablations.
  bool verify_canonical = false;
  /// Worker pool to borrow for parallel phases; nullptr makes the
  /// builder spin up a temporary pool of num_threads workers. The
  /// builder never calls ParallelFor from inside a task, so an engine
  /// pool can be lent safely (core/engine.cc holds workers_mu while a
  /// build borrows it).
  common::ThreadPool* pool = nullptr;
};

/// \brief Pruned landmark labeling over any NetworkView.
///
/// Processes nodes in the deterministic configured order; for each hub
/// it runs a Dijkstra expansion pruned wherever the labels built so far
/// already cover the pair at no greater distance. The result is a
/// canonical 2-hop cover: with `<=` pruning the label set is a pure
/// function of (graph, hub order), so identical inputs and options yield
/// bit-identical labels.
///
/// The parallel build exploits exactly that canonicity with a
/// rank-windowed two-phase protocol. Hubs are processed in rank windows;
/// within a window, per-root pruned Dijkstras run concurrently against
/// the FROZEN labels committed by earlier windows (pruning weaker than
/// serial, never stronger), recording every settled pop's frozen cover
/// value. A serial pass then REPLAYS each hub's pruned traversal in
/// rank order against the live labels — the traversal must be re-run
/// because pruning gates reachability, not just insertion — but its
/// cover test reduces to the recorded frozen value corrected by the
/// handful of same-window label entries, so the expensive O(|L|) scans
/// stay parallel. The result is bit-identical to the serial build for
/// any thread count and window size (enforceable via
/// HubLabelBuildOptions::verify_canonical).
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
