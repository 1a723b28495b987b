#include "index/hub_label.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"
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
// plain arrays: every order strategy shares the one degree pass (the old
// degree probe re-scanned the whole graph per build), traversals skip
// the NetworkView virtual dispatch + I/O accounting on every relaxation,
// and — decisive for the parallel build — concurrent Dijkstra roots can
// scan adjacency without contending on a shared cursor.
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

std::vector<NodeId> RandomOrder(NodeId n, uint64_t seed) {
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  Rng rng(seed);
  rng.Shuffle(order);
  return order;
}

// Sampled Brandes betweenness, descending. Runs a full Dijkstra +
// dependency accumulation per sampled source; parallel sources
// accumulate into fixed-point atomics (integer addition is associative,
// so the total — and therefore the order — is independent of thread
// interleaving, unlike a double accumulator).
std::vector<NodeId> BetweennessOrder(const CsrAdjacency& csr, uint64_t seed,
                                     uint32_t samples, int threads,
                                     common::ThreadPool* pool) {
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
  std::vector<std::atomic<int64_t>> centrality(n);

  struct Scratch {
    graph::DijkstraWorkspace ws;
    std::vector<double> sigma;   // shortest-path counts from the source
    std::vector<double> delta;   // dependency accumulator
    std::vector<NodeId> settled; // pop order
  };
  const int workers =
      pool == nullptr ? 1 : std::min(threads, pool->num_threads());
  std::vector<Scratch> scratch(static_cast<size_t>(std::max(workers, 1)));

  const auto run_source = [&](Scratch& s, NodeId src) {
    s.ws.Reset(n);
    s.sigma.assign(n, 0.0);
    s.delta.assign(n, 0.0);
    s.settled.clear();
    auto& heap = s.ws.heap();
    heap.Push(0.0, src);
    s.ws.SetBest(src, 0.0);
    s.sigma[src] = 1.0;
    while (!heap.empty()) {
      const auto [dist, u] = heap.Pop();
      if (dist > s.ws.Best(u)) {
        continue;
      }
      s.settled.push_back(u);
      for (const AdjEntry& a : csr.Neighbors(u)) {
        const Weight nd = dist + a.weight;
        if (nd < s.ws.Best(a.node)) {
          s.ws.SetBest(a.node, nd);
          heap.Push(nd, a.node);
          s.sigma[a.node] = s.sigma[u];
        } else if (nd == s.ws.Best(a.node)) {
          s.sigma[a.node] += s.sigma[u];
        }
      }
    }
    // Dependency back-propagation in reverse settle order; v is a
    // predecessor of u exactly when the relaxation above set (or tied)
    // u's distance through v, i.e. Best(v) + w == Best(u) in the same
    // FP arithmetic.
    for (size_t i = s.settled.size(); i-- > 0;) {
      const NodeId u = s.settled[i];
      for (const AdjEntry& a : csr.Neighbors(u)) {
        const NodeId v = a.node;
        if (s.ws.Best(v) + a.weight == s.ws.Best(u) && s.sigma[u] > 0.0) {
          s.delta[v] += s.sigma[v] / s.sigma[u] * (1.0 + s.delta[u]);
        }
      }
      if (u != src) {
        centrality[u].fetch_add(std::llround(s.delta[u] * kScale),
                                std::memory_order_relaxed);
      }
    }
  };

  if (pool == nullptr || workers <= 1 || sources.size() < 2) {
    for (uint64_t src : sources) {
      run_source(scratch[0], static_cast<NodeId>(src));
    }
  } else {
    pool->ParallelFor(
        sources.size(),
        [&](int worker, size_t i) {
          run_source(scratch[static_cast<size_t>(worker)],
                     static_cast<NodeId>(sources[i]));
        },
        workers);
  }

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const int64_t ca = centrality[a].load(std::memory_order_relaxed);
    const int64_t cb = centrality[b].load(std::memory_order_relaxed);
    if (ca != cb) {
      return ca > cb;
    }
    return csr.degree[a] != csr.degree[b] ? csr.degree[a] > csr.degree[b]
                                          : a < b;
  });
  return order;
}

std::vector<NodeId> HubProcessingOrder(const CsrAdjacency& csr,
                                       const HubLabelBuildOptions& options,
                                       int threads,
                                       common::ThreadPool* pool) {
  switch (options.order) {
    case HubOrder::kDegreeDesc:
      return DegreeOrder(csr);
    case HubOrder::kRandom:
      return RandomOrder(csr.num_nodes(), options.seed);
    case HubOrder::kPartition:
      return storage::ComputeSeparatorOrder(csr.offsets, csr.adj,
                                            csr.degree);
    case HubOrder::kBetweennessApprox:
      return BetweennessOrder(csr, options.seed,
                              options.betweenness_samples, threads, pool);
  }
  GRNN_CHECK(false);
  return {};
}

// ---------------------------------------------------------------------
// Canonical serial build: for each hub in rank order, a pruned Dijkstra
// appends the uncovered reachable nodes. Returns pruned-pop count.

uint64_t SerialPll(const CsrAdjacency& csr, std::span<const NodeId> order,
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

// ---------------------------------------------------------------------
// Rank-windowed parallel build.
//
// Correctness sketch (bit-identity with SerialPll): take a window
// [w0, w1) of ranks. Phase A runs each window hub's pruned Dijkstra
// against the labels FROZEN at rank w0 and records, for every settled
// pop, the node's frozen cover value — the min over frozen label pairs,
// a property of (labels[hub], labels[node]) alone, independent of the
// traversal. Phase B then REPLAYS each hub's pruned Dijkstra serially
// in rank order against the live labels. A replay's cover test
// decomposes exactly: live labels differ from frozen ones only by
// entries whose hub ranks in [w0, rank), which sit in a contiguous
// suffix of each label (entries append in rank order), so
//   covered_live = min(covered_frozen, suffix entries via labels[hub])
// with both parts built from the same sums the serial test would form
// (min is order-insensitive, so the FP result is identical). The replay
// therefore expands exactly the nodes SerialPll expands, at the same
// (possibly detour-inflated) pop distances — the traversal itself is
// re-run precisely because pruning in weighted graphs gates
// REACHABILITY, not just label insertion — and appends exactly the
// serial entries in serial order. Every replay pop has a Phase A
// record: frozen pruning is weaker than live pruning, so Phase A's
// expansion is a superset of the replay's at pointwise <= distances.
// What parallelizes is the dominant O(|L|) cover scans; the replay pays
// only heap traffic plus an O(window) suffix walk per pop. Memory
// visibility across phases rides on the pool's internal mutex
// (happens-before on ParallelFor entry/exit).
struct ParallelPllOut {
  uint64_t pruned_pops = 0;
  uint64_t merge_rejected = 0;
  double traverse_s = 0.0;
  double merge_s = 0.0;
  size_t windows = 0;
};

ParallelPllOut ParallelPll(const CsrAdjacency& csr,
                           std::span<const NodeId> order, int threads,
                           uint32_t window_opt, common::ThreadPool* pool,
                           std::vector<std::vector<HubEntry>>& labels) {
  const NodeId n = csr.num_nodes();
  const int workers = std::min(threads, pool->num_threads());
  const size_t window_size =
      window_opt > 0 ? window_opt : static_cast<size_t>(4 * workers);

  // One settled Phase A pop: the node and its cover value under the
  // window-start labels (kInfinity when uncovered).
  struct PopRecord {
    NodeId node;
    Weight covered;
  };
  struct Worker {
    graph::DijkstraWorkspace ws;
    std::vector<Weight> hub_dist;
    std::vector<NodeId> touched;
    uint64_t pruned_pops = 0;
  };
  std::vector<Worker> worker_state(static_cast<size_t>(workers));
  for (Worker& w : worker_state) {
    w.hub_dist.assign(n, kInfinity);
  }
  std::vector<std::vector<PopRecord>> pops(window_size);

  // rank_of[v] = position of v in the hub order; the replay uses it to
  // find the same-window suffix of a label.
  std::vector<uint32_t> rank_of(n);
  for (size_t i = 0; i < order.size(); ++i) {
    rank_of[order[i]] = static_cast<uint32_t>(i);
  }

  // Replay-side scratch (main thread only).
  graph::DijkstraWorkspace replay_ws;
  std::vector<Weight> hub_dist(n, kInfinity);
  std::vector<NodeId> touched;
  std::vector<Weight> frozen_cov(n, 0);
  std::vector<uint8_t> has_cov(n, 0);
  std::vector<NodeId> cov_touched;

  ParallelPllOut out;
  WallTimer timer;
  for (size_t w0 = 0; w0 < order.size(); w0 += window_size) {
    const size_t slots = std::min(window_size, order.size() - w0);
    ++out.windows;

    // Phase A: per-root pruned Dijkstras against the frozen labels,
    // recording every settled pop's frozen cover value.
    timer.Reset();
    pool->ParallelFor(
        slots,
        [&](int worker, size_t slot) {
          Worker& me = worker_state[static_cast<size_t>(worker)];
          const NodeId hub = order[w0 + slot];
          std::vector<PopRecord>& rec = pops[slot];
          rec.clear();
          me.touched.clear();
          for (const HubEntry& e : labels[hub]) {
            me.hub_dist[e.hub] = e.dist;
            me.touched.push_back(e.hub);
          }
          me.ws.Reset(n);
          auto& heap = me.ws.heap();
          heap.Push(0.0, hub);
          me.ws.SetBest(hub, 0.0);
          while (!heap.empty()) {
            const auto [dist, node] = heap.Pop();
            if (dist > me.ws.Best(node)) {
              continue;  // stale entry; settled at a smaller key
            }
            Weight covered = kInfinity;
            for (const HubEntry& e : labels[node]) {
              const Weight via = me.hub_dist[e.hub];
              if (via != kInfinity && via + e.dist < covered) {
                covered = via + e.dist;
              }
            }
            rec.push_back(PopRecord{node, covered});
            if (covered <= dist) {
              ++me.pruned_pops;
              continue;
            }
            for (const AdjEntry& a : csr.Neighbors(node)) {
              const Weight nd = dist + a.weight;
              if (nd < me.ws.Best(a.node)) {
                me.ws.SetBest(a.node, nd);
                heap.Push(nd, a.node);
              }
            }
          }
          for (NodeId t : me.touched) {
            me.hub_dist[t] = kInfinity;
          }
        },
        workers);
    out.traverse_s += timer.ElapsedSeconds();

    // Phase B: serial rank-order replay against the live labels. The
    // cover test is covered_frozen (Phase A's record) corrected by the
    // label entries this window appended — bit-equal to the serial
    // test, at replay cost O(heap + window) per pop instead of O(|L|).
    timer.Reset();
    for (size_t slot = 0; slot < slots; ++slot) {
      const NodeId hub = order[w0 + slot];
      cov_touched.clear();
      for (const PopRecord& r : pops[slot]) {
        frozen_cov[r.node] = r.covered;
        has_cov[r.node] = 1;
        cov_touched.push_back(r.node);
      }
      touched.clear();
      for (const HubEntry& e : labels[hub]) {
        hub_dist[e.hub] = e.dist;
        touched.push_back(e.hub);
      }
      replay_ws.Reset(n);
      auto& heap = replay_ws.heap();
      heap.Push(0.0, hub);
      replay_ws.SetBest(hub, 0.0);
      while (!heap.empty()) {
        const auto [dist, node] = heap.Pop();
        if (dist > replay_ws.Best(node)) {
          continue;
        }
        const std::vector<HubEntry>& lab = labels[node];
        Weight covered;
        if (has_cov[node]) {
          covered = frozen_cov[node];
          // Same-window additions form a suffix (labels append in rank
          // order); pair them against the live labels[hub] distances.
          for (size_t i = lab.size(); i-- > 0;) {
            const HubEntry& e = lab[i];
            if (rank_of[e.hub] < w0) {
              break;
            }
            const Weight via = hub_dist[e.hub];
            if (via != kInfinity && via + e.dist < covered) {
              covered = via + e.dist;
            }
          }
        } else {
          // Unreachable by the superset argument; the full live scan
          // keeps the replay correct regardless.
          covered = kInfinity;
          for (const HubEntry& e : lab) {
            const Weight via = hub_dist[e.hub];
            if (via != kInfinity && via + e.dist < covered) {
              covered = via + e.dist;
            }
          }
        }
        if (covered <= dist) {
          ++out.merge_rejected;
          continue;
        }
        labels[node].push_back(HubEntry{hub, dist});
        for (const AdjEntry& a : csr.Neighbors(node)) {
          const Weight nd = dist + a.weight;
          if (nd < replay_ws.Best(a.node)) {
            replay_ws.SetBest(a.node, nd);
            heap.Push(nd, a.node);
          }
        }
      }
      for (NodeId t : touched) {
        hub_dist[t] = kInfinity;
      }
      for (NodeId t : cov_touched) {
        has_cov[t] = 0;
      }
    }
    out.merge_s += timer.ElapsedSeconds();
  }
  for (const Worker& w : worker_state) {
    out.pruned_pops += w.pruned_pops;
  }
  return out;
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
    NodeId n, LabelCursor& cursor) const {
  if (n >= num_nodes()) {
    return Status::OutOfRange("node id out of range");
  }
  // Invalidate the cursor's previous span (it may pin another store's
  // pages); the CSR itself needs no lease.
  cursor.Reset();
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

  int threads = std::max(options.num_threads, 1);
  std::unique_ptr<common::ThreadPool> local_pool;
  common::ThreadPool* pool = nullptr;
  if (threads > 1) {
    pool = options.pool;
    if (pool == nullptr) {
      local_pool = std::make_unique<common::ThreadPool>(threads);
      pool = local_pool.get();
    }
    threads = std::min(threads, pool->num_threads());
  }

  WallTimer timer;
  graph::DijkstraWorkspace ws;
  GRNN_ASSIGN_OR_RETURN(const CsrAdjacency csr, MaterializeCsr(g, ws));
  const std::vector<NodeId> order =
      HubProcessingOrder(csr, options, threads, pool);
  const double order_s = timer.ElapsedSeconds();

  std::vector<std::vector<HubEntry>> labels(n);
  ParallelPllOut par;
  timer.Reset();
  if (threads <= 1) {
    par.pruned_pops = SerialPll(csr, order, labels, ws);
    par.traverse_s = timer.ElapsedSeconds();
  } else {
    par = ParallelPll(csr, order, threads, options.window, pool, labels);
    if (options.verify_canonical) {
      std::vector<std::vector<HubEntry>> canonical(n);
      SerialPll(csr, order, canonical, ws);
      if (labels != canonical) {
        return Status::Internal(
            "parallel hub-label build diverged from the canonical serial "
            "build");
      }
    }
  }

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
    stats->pruned_pops = par.pruned_pops;
    stats->merge_rejected = par.merge_rejected;
    stats->order_s = order_s;
    stats->traverse_s = par.traverse_s;
    stats->merge_s = par.merge_s;
    stats->finalize_s = timer.ElapsedSeconds();
    stats->threads = threads;
    stats->windows = par.windows;
  }
  return idx;
}

}  // namespace grnn::index
