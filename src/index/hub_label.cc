#include "index/hub_label.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "common/timer.h"
#include "graph/dijkstra.h"
#include "storage/partitioner.h"

namespace grnn::index {

namespace {

// Merge-intersection of two hub-sorted labels; kInfinity when disjoint.
Weight MergeQuery(std::span<const HubEntry> a, std::span<const HubEntry> b) {
  Weight best = kInfinity;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hub == b[j].hub) {
      const Weight d = a[i].dist + b[j].dist;
      if (d < best) {
        best = d;
      }
      ++i;
      ++j;
    } else if (a[i].hub < b[j].hub) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

// ---------------------------------------------------------------------
// CSR adjacency snapshot.
//
// The builder walks the graph once through a cursor and then works off
// plain arrays: every order strategy shares the one degree pass, and
// traversals skip the NetworkView virtual dispatch + I/O accounting on
// every relaxation.
struct CsrAdjacency {
  std::vector<size_t> offsets;    // num_nodes + 1
  std::vector<AdjEntry> adj;
  std::vector<uint32_t> degree;   // offsets[v+1] - offsets[v]

  NodeId num_nodes() const {
    return static_cast<NodeId>(degree.size());
  }
  std::span<const AdjEntry> Neighbors(NodeId v) const {
    return {adj.data() + offsets[v], offsets[v + 1] - offsets[v]};
  }
};

Result<CsrAdjacency> MaterializeCsr(const graph::NetworkView& g,
                                    graph::DijkstraWorkspace& ws) {
  const NodeId n = g.num_nodes();
  CsrAdjacency csr;
  csr.offsets.assign(static_cast<size_t>(n) + 1, 0);
  csr.degree.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g.Scan(v, ws.cursor()));
    csr.adj.insert(csr.adj.end(), nbrs.begin(), nbrs.end());
    csr.degree[v] = static_cast<uint32_t>(nbrs.size());
    csr.offsets[v + 1] = csr.adj.size();
  }
  return csr;
}

// ---------------------------------------------------------------------
// Hub orders. All of them are deterministic functions of (graph, seed).

std::vector<NodeId> DegreeOrder(const CsrAdjacency& csr) {
  std::vector<NodeId> order(csr.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return csr.degree[a] != csr.degree[b] ? csr.degree[a] > csr.degree[b]
                                          : a < b;
  });
  return order;
}

// Sampled Brandes betweenness, descending. Runs a full Dijkstra +
// dependency accumulation per sampled source. Each dependency is summed
// in 2^-20 fixed point, so the centrality totals — and the order —
// depend only on which sources are sampled, never on summation order.
std::vector<NodeId> BetweennessOrder(const CsrAdjacency& csr, uint64_t seed,
                                     uint32_t samples) {
  const NodeId n = csr.num_nodes();
  std::vector<uint64_t> sources;
  if (samples >= n) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), uint64_t{0});
  } else {
    Rng rng(seed);
    sources = rng.SampleWithoutReplacement(n, samples);
  }

  constexpr double kScale = static_cast<double>(1u << 20);
  std::vector<int64_t> centrality(n, 0);
  graph::DijkstraWorkspace ws;
  std::vector<double> sigma;    // shortest-path counts from the source
  std::vector<double> delta;    // dependency accumulator
  std::vector<NodeId> settled;  // pop order
  for (uint64_t s : sources) {
    const NodeId src = static_cast<NodeId>(s);
    ws.Reset(n);
    sigma.assign(n, 0.0);
    delta.assign(n, 0.0);
    settled.clear();
    auto& heap = ws.heap();
    heap.Push(0.0, src);
    ws.SetBest(src, 0.0);
    sigma[src] = 1.0;
    while (!heap.empty()) {
      const auto [dist, u] = heap.Pop();
      if (dist > ws.Best(u)) {
        continue;
      }
      settled.push_back(u);
      for (const AdjEntry& a : csr.Neighbors(u)) {
        const Weight nd = dist + a.weight;
        if (nd < ws.Best(a.node)) {
          ws.SetBest(a.node, nd);
          heap.Push(nd, a.node);
          sigma[a.node] = sigma[u];
        } else if (nd == ws.Best(a.node)) {
          sigma[a.node] += sigma[u];
        }
      }
    }
    // Dependency back-propagation in reverse settle order; v is a
    // predecessor of u exactly when the relaxation above set (or tied)
    // u's distance through v, i.e. Best(v) + w == Best(u) in the same
    // FP arithmetic.
    for (size_t i = settled.size(); i-- > 0;) {
      const NodeId u = settled[i];
      for (const AdjEntry& a : csr.Neighbors(u)) {
        const NodeId v = a.node;
        if (ws.Best(v) + a.weight == ws.Best(u) && sigma[u] > 0.0) {
          delta[v] += sigma[v] / sigma[u] * (1.0 + delta[u]);
        }
      }
      if (u != src) {
        centrality[u] += std::llround(delta[u] * kScale);
      }
    }
  }

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (centrality[a] != centrality[b]) {
      return centrality[a] > centrality[b];
    }
    return csr.degree[a] != csr.degree[b] ? csr.degree[a] > csr.degree[b]
                                          : a < b;
  });
  return order;
}

std::vector<NodeId> HubProcessingOrder(const CsrAdjacency& csr,
                                       const HubLabelBuildOptions& options) {
  switch (options.order) {
    case HubOrder::kDegreeDesc:
      return DegreeOrder(csr);
    case HubOrder::kPartition:
      return storage::ComputeSeparatorOrder(csr.offsets, csr.adj,
                                            csr.degree);
    case HubOrder::kBetweennessApprox:
      return BetweennessOrder(csr, options.seed,
                              options.betweenness_samples);
  }
  GRNN_CHECK(false);
  return {};
}

// ---------------------------------------------------------------------
// Pruned landmark labeling: for each hub in rank order, a pruned
// Dijkstra appends the uncovered reachable nodes. Returns pruned-pop
// count.

uint64_t PrunedLandmarkLabeling(const CsrAdjacency& csr,
                                std::span<const NodeId> order,
                                std::vector<std::vector<HubEntry>>& labels,
                                graph::DijkstraWorkspace& ws) {
  const NodeId n = csr.num_nodes();
  uint64_t pruned_pops = 0;

  // d(hub, h) for every h in the current hub's own label, indexed by
  // node id; `touched` undoes the writes after each hub so the reset
  // stays O(|L(hub)|) instead of O(n).
  std::vector<Weight> hub_dist(n, kInfinity);
  std::vector<NodeId> touched;

  for (NodeId hub : order) {
    touched.clear();
    for (const HubEntry& e : labels[hub]) {
      hub_dist[e.hub] = e.dist;
      touched.push_back(e.hub);
    }

    // Pruned Dijkstra from `hub`: a node u popped at distance d whose
    // existing labels already witness d(hub, u) <= d is covered by an
    // earlier (higher-ranked) hub on some shortest path — neither u nor
    // anything beyond it (through u) needs this hub. The plain <= keeps
    // the cover canonical: equal-distance witnesses always defer to the
    // earlier hub.
    ws.Reset(n);
    auto& heap = ws.heap();
    heap.Push(0.0, hub);
    ws.SetBest(hub, 0.0);
    while (!heap.empty()) {
      const auto [dist, node] = heap.Pop();
      if (dist > ws.Best(node)) {
        continue;  // stale entry; the node settled at a smaller key
      }
      Weight covered = kInfinity;
      for (const HubEntry& e : labels[node]) {
        const Weight via = hub_dist[e.hub];
        if (via != kInfinity && via + e.dist < covered) {
          covered = via + e.dist;
        }
      }
      if (covered <= dist) {
        ++pruned_pops;
        continue;  // pruned: an earlier hub already covers this pair
      }
      labels[node].push_back(HubEntry{hub, dist});
      for (const AdjEntry& a : csr.Neighbors(node)) {
        const Weight nd = dist + a.weight;
        if (nd < ws.Best(a.node)) {
          ws.SetBest(a.node, nd);
          heap.Push(nd, a.node);
        }
      }
    }

    for (NodeId t : touched) {
      hub_dist[t] = kInfinity;
    }
  }
  return pruned_pops;
}

}  // namespace

Result<Weight> QueryViaStore(const LabelStore& labels, NodeId u, NodeId v,
                             LabelCursor& cu, LabelCursor& cv) {
  GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> lu, labels.Scan(u, cu));
  GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> lv, labels.Scan(v, cv));
  return MergeQuery(lu, lv);
}

Result<std::span<const HubEntry>> VirtualLabel(
    const LabelStore& labels, std::span<const NodeId> nodes,
    std::span<const Weight> offsets, LabelCursor& cursor,
    VirtualLabelBuffers& buffers) {
  GRNN_DCHECK(offsets.empty() || offsets.size() == nodes.size());
  if (nodes.size() == 1 && (offsets.empty() || offsets[0] == 0)) {
    return labels.Scan(nodes[0], cursor);
  }
  std::vector<HubEntry>& copies = buffers.copies_;
  std::vector<VirtualLabelBuffers::Head>& heads = buffers.heads_;
  copies.clear();
  heads.clear();
  for (size_t i = 0; i < nodes.size(); ++i) {
    GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> label,
                          labels.Scan(nodes[i], cursor));
    const Weight offset = offsets.empty() ? Weight{0} : offsets[i];
    const size_t begin = copies.size();
    for (const HubEntry& e : label) {
      copies.push_back(HubEntry{e.hub, offset + e.dist});
    }
    if (copies.size() > begin) {
      heads.push_back({begin, copies.size()});
    }
  }

  // Min-heap of the source heads by their next hub: each step takes the
  // smallest pending hub, folds it into the output, and advances its
  // source. Sources tied on a hub pop back to back, in any order —
  // min() does not care.
  const auto later = [&copies](const auto& a, const auto& b) {
    return copies[a.next].hub > copies[b.next].hub;
  };
  std::vector<HubEntry>& merged = buffers.merged_;
  merged.clear();
  std::make_heap(heads.begin(), heads.end(), later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    VirtualLabelBuffers::Head& head = heads.back();
    const HubEntry& e = copies[head.next];
    if (!merged.empty() && merged.back().hub == e.hub) {
      merged.back().dist = std::min(merged.back().dist, e.dist);
    } else {
      merged.push_back(e);
    }
    if (++head.next < head.end) {
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }
  }
  return std::span<const HubEntry>(merged);
}

Weight HubLabelIndex::Query(NodeId u, NodeId v) const {
  GRNN_DCHECK(u < num_nodes());
  GRNN_DCHECK(v < num_nodes());
  return MergeQuery(Label(u), Label(v));
}

Result<std::span<const HubEntry>> HubLabelIndex::Scan(
    NodeId n, LabelCursor& /*cursor: the CSR serves its own arrays*/) const {
  if (n >= num_nodes()) {
    return Status::OutOfRange("node id out of range");
  }
  return Label(n);
}

Result<HubLabelIndex> HubLabelBuilder::Build(
    const graph::NetworkView& g, const HubLabelBuildOptions& options) {
  return Build(g, options, nullptr);
}

Result<HubLabelIndex> HubLabelBuilder::Build(
    const graph::NetworkView& g, const HubLabelBuildOptions& options,
    HubLabelBuildStats* stats) {
  const NodeId n = g.num_nodes();
  if (n == 0) {
    return Status::InvalidArgument("cannot label an empty graph");
  }

  WallTimer timer;
  graph::DijkstraWorkspace ws;
  GRNN_ASSIGN_OR_RETURN(const CsrAdjacency csr, MaterializeCsr(g, ws));
  const std::vector<NodeId> order = HubProcessingOrder(csr, options);
  const double order_s = timer.ElapsedSeconds();

  std::vector<std::vector<HubEntry>> labels(n);
  timer.Reset();
  const uint64_t pruned_pops =
      PrunedLandmarkLabeling(csr, order, labels, ws);
  const double traverse_s = timer.ElapsedSeconds();

  timer.Reset();
  HubLabelIndex idx;
  idx.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  size_t total = 0;
  size_t max_label = 0;
  for (NodeId v = 0; v < n; ++v) {
    idx.offsets_[v] = total;
    total += labels[v].size();
    max_label = std::max(max_label, labels[v].size());
  }
  idx.offsets_[n] = total;
  idx.entries_.reserve(total);
  for (NodeId v = 0; v < n; ++v) {
    std::sort(labels[v].begin(), labels[v].end(),
              [](const HubEntry& a, const HubEntry& b) {
                return a.hub < b.hub;
              });
    idx.entries_.insert(idx.entries_.end(), labels[v].begin(),
                        labels[v].end());
  }
  if (stats != nullptr) {
    stats->num_entries = total;
    stats->avg_label_size =
        static_cast<double>(total) / static_cast<double>(n);
    stats->max_label_size = max_label;
    stats->pruned_pops = pruned_pops;
    stats->order_s = order_s;
    stats->traverse_s = traverse_s;
    stats->finalize_s = timer.ElapsedSeconds();
  }
  return idx;
}

}  // namespace grnn::index
