// Hub-label subsystem: builder exactness and determinism, Query(u,v)
// against the Dijkstra oracle, and the kNN / RkNN label primitives
// against the brute-force semantics of core/types.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "core/brute_force.h"
#include "core/bichromatic.h"
#include "graph/dijkstra.h"
#include "graph/network_view.h"
#include "index/hub_label.h"
#include "index/hub_point_index.h"
#include "index/hub_rknn.h"
#include "index/label_file.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_fixtures.h"

namespace grnn::index {
namespace {

using core::testfix::Ids;
using core::testfix::PaperExample;
using core::testfix::RandomConnectedGraph;
using core::testfix::RandomPoints;

void ExpectAllPairsExact(const graph::Graph& g,
                         const HubLabelIndex& index) {
  graph::GraphView view(&g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto dist = graph::SingleSourceDistances(view, u).ValueOrDie();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const Weight got = index.Query(u, v);
      if (dist[v] == kInfinity) {
        EXPECT_EQ(got, kInfinity) << "u=" << u << " v=" << v;
      } else {
        EXPECT_NEAR(got, dist[v], 1e-9) << "u=" << u << " v=" << v;
      }
    }
  }
}

TEST(HubLabelBuilder, PaperExampleAllPairsExact) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  EXPECT_EQ(index.num_nodes(), f.g.num_nodes());
  ExpectAllPairsExact(f.g, index);
}

TEST(HubLabelBuilder, SelfDistanceIsZero) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  for (NodeId u = 0; u < f.g.num_nodes(); ++u) {
    EXPECT_EQ(index.Query(u, u), 0.0);
  }
}

TEST(HubLabelBuilder, RandomWorldsAllPairsExact) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const bool unit = seed % 2 == 0;
    auto g = RandomConnectedGraph(60, 0.5, rng, unit);
    graph::GraphView view(&g);
    auto index = HubLabelBuilder::Build(view).ValueOrDie();
    ExpectAllPairsExact(g, index);
  }
}

TEST(HubLabelBuilder, DisconnectedPairsReportInfinity) {
  // Two 3-node components.
  auto g = graph::Graph::FromEdges(
               6, {{0, 1, 1.0}, {1, 2, 2.0}, {3, 4, 1.0}, {4, 5, 2.0}})
               .ValueOrDie();
  graph::GraphView view(&g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  ExpectAllPairsExact(g, index);
  EXPECT_EQ(index.Query(0, 5), kInfinity);
}

TEST(HubLabelBuilder, DeterministicAcrossBuilds) {
  Rng rng(11);
  auto g = RandomConnectedGraph(50, 0.7, rng);
  graph::GraphView view(&g);
  auto a = HubLabelBuilder::Build(view).ValueOrDie();
  auto b = HubLabelBuilder::Build(view).ValueOrDie();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_entries(), b.num_entries());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    auto la = a.Label(n);
    auto lb = b.Label(n);
    ASSERT_EQ(la.size(), lb.size()) << "node " << n;
    for (size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i], lb[i]) << "node " << n << " slot " << i;
    }
  }
}

TEST(HubLabelBuilder, LabelsSortedByHubAndCoverSelf) {
  Rng rng(13);
  auto g = RandomConnectedGraph(45, 0.6, rng);
  graph::GraphView view(&g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    auto label = index.Label(n);
    bool has_self = false;
    for (size_t i = 0; i < label.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(label[i - 1].hub, label[i].hub);
      }
      has_self = has_self || (label[i].hub == n && label[i].dist == 0.0);
    }
    EXPECT_TRUE(has_self) << "node " << n;
  }
}

TEST(HubLabelBuilder, EmptyGraphRejected) {
  graph::Graph g;
  graph::GraphView view(&g);
  EXPECT_FALSE(HubLabelBuilder::Build(view).ok());
}

TEST(HubLabelIndex, ScanMatchesLabelAndRangeChecks) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  LabelCursor cursor;
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    auto span = index.Scan(n, cursor).ValueOrDie();
    auto want = index.Label(n);
    ASSERT_EQ(span.size(), want.size());
    EXPECT_TRUE(std::equal(span.begin(), span.end(), want.begin()));
  }
  EXPECT_TRUE(index.Scan(index.num_nodes(), cursor)
                  .status()
                  .IsOutOfRange());
}

TEST(QueryViaStore, MatchesDirectQuery) {
  Rng rng(17);
  auto g = RandomConnectedGraph(30, 0.5, rng);
  graph::GraphView view(&g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  LabelCursor cu, cv;
  for (int i = 0; i < 50; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    EXPECT_EQ(QueryViaStore(index, u, v, cu, cv).ValueOrDie(),
              index.Query(u, v));
  }
}

TEST(KnnViaLabels, MatchesDijkstraOrderedDistances) {
  for (uint64_t seed : {3u, 4u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(50, 0.6, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    auto points = RandomPoints(g.num_nodes(), 12, rng);
    auto index = HubLabelBuilder::Build(view).ValueOrDie();
    auto occ = HubPointIndex::Build(index, points).ValueOrDie();
    LabelWorkspace ws;
    std::vector<core::NnResult> got;
    for (NodeId q = 0; q < g.num_nodes(); q += 7) {
      auto dist = graph::SingleSourceDistances(view, q).ValueOrDie();
      for (int k : {1, 3, 5}) {
        for (PointId exclude :
             {kInvalidPoint, static_cast<PointId>(0)}) {
          ASSERT_TRUE(
              KnnViaLabelsInto(index, occ, q, k, exclude, ws, &got).ok());
          // Oracle: all live points by (dist, id), exclude removed.
          std::vector<std::pair<Weight, PointId>> want;
          for (PointId p : points.LivePoints()) {
            if (p == exclude || dist[points.NodeOf(p)] == kInfinity) {
              continue;
            }
            want.push_back({dist[points.NodeOf(p)], p});
          }
          std::sort(want.begin(), want.end());
          const size_t expect_n =
              std::min<size_t>(want.size(), static_cast<size_t>(k));
          ASSERT_EQ(got.size(), expect_n) << "q=" << q << " k=" << k;
          for (size_t i = 0; i < expect_n; ++i) {
            EXPECT_NEAR(got[i].dist, want[i].first, 1e-9)
                << "q=" << q << " k=" << k << " slot=" << i;
          }
        }
      }
    }
  }
}

TEST(RknnViaLabels, MonochromaticMatchesBruteForce) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(60, 0.5, rng, seed % 2 == 1);
    graph::GraphView view(&g);
    auto points = RandomPoints(g.num_nodes(), 14, rng);
    auto index = HubLabelBuilder::Build(view).ValueOrDie();
    auto occ = HubPointIndex::Build(index, points).ValueOrDie();
    LabelWorkspace ws;
    auto live = points.LivePoints();
    for (int rep = 0; rep < 20; ++rep) {
      const bool self = rep % 2 == 0;
      core::RknnOptions options;
      options.k = 1 + rep % 3;
      NodeId q;
      if (self) {
        PointId qp = live[rng.UniformInt(live.size())];
        options.exclude_point = qp;
        q = points.NodeOf(qp);
      } else {
        q = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
      }
      auto got =
          RknnViaLabels(index, occ, occ, {&q, 1}, options, ws)
              .ValueOrDie();
      auto want =
          core::BruteForceRknn(view, points, {&q, 1}, options)
              .ValueOrDie();
      EXPECT_EQ(Ids(got), Ids(want))
          << "seed=" << seed << " rep=" << rep << " k=" << options.k;
    }
  }
}

TEST(RknnViaLabels, BichromaticMatchesBruteForce) {
  for (uint64_t seed : {8u, 9u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(60, 0.5, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    // Disjoint placements, as the differential worlds do.
    auto nodes = rng.SampleWithoutReplacement(g.num_nodes(), 20);
    std::vector<NodeId> p_locs(nodes.begin(), nodes.begin() + 13);
    std::vector<NodeId> q_locs(nodes.begin() + 13, nodes.end());
    auto points =
        core::NodePointSet::FromLocations(g.num_nodes(), p_locs)
            .ValueOrDie();
    auto sites =
        core::NodePointSet::FromLocations(g.num_nodes(), q_locs)
            .ValueOrDie();
    auto index = HubLabelBuilder::Build(view).ValueOrDie();
    auto occ_p = HubPointIndex::Build(index, points).ValueOrDie();
    auto occ_q = HubPointIndex::Build(index, sites).ValueOrDie();
    LabelWorkspace ws;
    auto live_sites = sites.LivePoints();
    for (int rep = 0; rep < 20; ++rep) {
      core::RknnOptions options;
      options.k = 1 + rep % 3;
      NodeId q;
      if (rep % 2 == 0) {
        PointId qs = live_sites[rng.UniformInt(live_sites.size())];
        options.exclude_point = qs;
        q = sites.NodeOf(qs);
      } else {
        q = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
      }
      auto got =
          RknnViaLabels(index, occ_p, occ_q, {&q, 1}, options, ws)
              .ValueOrDie();
      auto want = core::BruteForceBichromaticRknn(view, points, sites,
                                                  {&q, 1}, options)
                      .ValueOrDie();
      EXPECT_EQ(Ids(got), Ids(want))
          << "seed=" << seed << " rep=" << rep << " k=" << options.k;
    }
  }
}

TEST(RknnViaLabels, ValidatesInput) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  auto occ = HubPointIndex::Build(index, f.points).ValueOrDie();
  LabelWorkspace ws;
  core::RknnOptions options;
  options.k = 0;
  NodeId q = 0;
  EXPECT_TRUE(RknnViaLabels(index, occ, occ, {&q, 1}, options, ws)
                  .status()
                  .IsInvalidArgument());
  options.k = 1;
  NodeId bad = f.g.num_nodes();
  EXPECT_TRUE(RknnViaLabels(index, occ, occ, {&bad, 1}, options, ws)
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(
      RknnViaLabels(index, occ, occ, {}, options, ws)
          .status()
          .IsInvalidArgument());
}

// Bit-for-bit equality of two occurrence indexes: counters and every
// per-hub (dist, point)-sorted run.
void ExpectIdentical(const HubPointIndex& got, const HubPointIndex& want) {
  ASSERT_EQ(got.num_hubs(), want.num_hubs());
  EXPECT_EQ(got.num_entries(), want.num_entries());
  EXPECT_EQ(got.num_points(), want.num_points());
  EXPECT_EQ(got.point_id_bound(), want.point_id_bound());
  for (NodeId h = 0; h < want.num_hubs(); ++h) {
    auto a = got.ListOf(h);
    auto b = want.ListOf(h);
    ASSERT_EQ(a.size(), b.size()) << "hub=" << h;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "hub=" << h << " entry=" << i;
    }
  }
}

TEST(HubPointIndex, IncrementalNodeOpsMatchFromScratchBuild) {
  for (uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(40, 0.5, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    auto points = RandomPoints(g.num_nodes(), 8, rng);
    auto occ = HubPointIndex::Build(labels, points).ValueOrDie();

    // Interleave inserts and deletes; after every op the spliced index
    // must equal a from-scratch Build over the mutated set, bit for bit.
    for (int op = 0; op < 12; ++op) {
      if (op % 3 == 2) {
        auto live = points.LivePoints();
        PointId victim = live[rng.UniformInt(live.size())];
        const NodeId host = points.NodeOf(victim);
        ASSERT_TRUE(points.RemovePoint(victim).ok());
        ASSERT_TRUE(occ.ErasePoint(labels, victim, host).ok());
      } else {
        NodeId n = kInvalidNode;
        do {
          n = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
        } while (points.Contains(n));
        PointId p = points.AddPoint(n).ValueOrDie();
        ASSERT_TRUE(occ.InsertPoint(labels, p, n).ok());
      }
      auto want = HubPointIndex::Build(labels, points).ValueOrDie();
      ExpectIdentical(occ, want);
    }
  }
}

TEST(HubPointIndex, IncrementalEdgeOpsMatchFromScratchBuild) {
  for (uint64_t seed : {13u, 14u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(40, 0.5, rng, seed % 2 == 1);
    graph::GraphView view(&g);
    auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    auto edges = g.CollectEdges();
    std::vector<core::EdgePosition> positions;
    for (size_t i = 0; i < 8; ++i) {
      const Edge& e = edges[rng.UniformInt(edges.size())];
      positions.push_back({e.u, e.v, rng.Uniform(0.0, e.w)});
    }
    auto points = core::EdgePointSet::Create(g, positions).ValueOrDie();
    auto occ = HubPointIndex::Build(labels, points).ValueOrDie();

    for (int op = 0; op < 12; ++op) {
      if (op % 3 == 2) {
        auto live = points.LivePoints();
        PointId victim = live[rng.UniformInt(live.size())];
        // Capture BEFORE the removal tombstones the position away.
        const core::EdgePosition pos = points.PositionOf(victim);
        const Weight ew = points.EdgeWeightOfPoint(victim);
        ASSERT_TRUE(points.RemovePoint(victim).ok());
        ASSERT_TRUE(occ.EraseEdgePoint(labels, victim, pos, ew).ok());
      } else {
        const Edge& e = edges[rng.UniformInt(edges.size())];
        PointId p =
            points.AddPoint(g, {e.u, e.v, rng.Uniform(0.0, e.w)})
                .ValueOrDie();
        ASSERT_TRUE(occ.InsertEdgePoint(labels, p,
                                        points.PositionOf(p),
                                        points.EdgeWeightOfPoint(p))
                        .ok());
      }
      auto want = HubPointIndex::Build(labels, points).ValueOrDie();
      ExpectIdentical(occ, want);
    }
  }
}

TEST(HubPointIndex, EraseOfUnknownOccurrenceReportsInternal) {
  Rng rng(15);
  auto g = RandomConnectedGraph(20, 0.5, rng, false);
  graph::GraphView view(&g);
  auto labels = HubLabelBuilder::Build(view).ValueOrDie();
  auto points = RandomPoints(g.num_nodes(), 4, rng);
  auto occ = HubPointIndex::Build(labels, points).ValueOrDie();
  // A point that was never indexed has no occurrence entries — the
  // erase must fail (and with it the engine's update), not silently
  // corrupt the runs.
  EXPECT_EQ(occ.ErasePoint(labels, 1000, 0).code(),
            StatusCode::kInternal);
  const Edge e = g.CollectEdges().front();
  EXPECT_EQ(
      occ.EraseEdgePoint(labels, 1000, {e.u, e.v, e.w / 2}, e.w).code(),
      StatusCode::kInternal);
}

// --- Hub-order matrix ---------------------------------------------------

constexpr HubOrder kAllOrders[] = {
    HubOrder::kDegreeDesc, HubOrder::kPartition,
    HubOrder::kBetweennessApprox};

void ExpectIdenticalLabels(const HubLabelIndex& a, const HubLabelIndex& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_entries(), b.num_entries());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    auto la = a.Label(n);
    auto lb = b.Label(n);
    ASSERT_EQ(la.size(), lb.size()) << "node " << n;
    for (size_t i = 0; i < la.size(); ++i) {
      ASSERT_EQ(la[i], lb[i]) << "node " << n << " slot " << i;
    }
  }
}

TEST(HubOrderMatrix, EveryOrderStaysExactAndDeterministic) {
  for (uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(50, 0.5, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    for (HubOrder order : kAllOrders) {
      HubLabelBuildOptions options;
      options.order = order;
      options.seed = 31;
      auto index = HubLabelBuilder::Build(view, options).ValueOrDie();
      ExpectAllPairsExact(g, index);
      auto again = HubLabelBuilder::Build(view, options).ValueOrDie();
      ExpectIdenticalLabels(index, again);
    }
  }
}

TEST(HubOrderMatrix, PartitionOrderHandlesDisconnectedGraphs) {
  // Two components of different shapes: the separator recursion must
  // emit every node exactly once and the labels must stay exact.
  auto g = graph::Graph::FromEdges(9, {{0, 1, 1.0},
                                       {1, 2, 2.0},
                                       {2, 3, 1.5},
                                       {3, 0, 1.0},
                                       {4, 5, 1.0},
                                       {5, 6, 2.0},
                                       {6, 7, 0.5}})
               .ValueOrDie();  // node 8 is isolated
  graph::GraphView view(&g);
  HubLabelBuildOptions options;
  options.order = HubOrder::kPartition;
  auto index = HubLabelBuilder::Build(view, options).ValueOrDie();
  ExpectAllPairsExact(g, index);
  EXPECT_EQ(index.Query(0, 4), kInfinity);
}

TEST(HubOrderMatrix, BuildStatsReportLabelShapeAndPhases) {
  Rng rng(23);
  auto g = RandomConnectedGraph(40, 0.6, rng);
  graph::GraphView view(&g);
  HubLabelBuildOptions options;
  options.order = HubOrder::kPartition;
  HubLabelBuildStats stats;
  auto index = HubLabelBuilder::Build(view, options, &stats).ValueOrDie();
  EXPECT_EQ(stats.num_entries, index.num_entries());
  EXPECT_DOUBLE_EQ(stats.avg_label_size, index.AverageLabelSize());
  size_t max_label = 0;
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    max_label = std::max(max_label, index.LabelSize(n));
  }
  EXPECT_EQ(stats.max_label_size, max_label);
  EXPECT_GE(stats.order_s, 0.0);
  EXPECT_GE(stats.traverse_s, 0.0);
}

TEST(HubPointIndex, CopySharesRunsAndPatchClonesOnlyTouchedHubs) {
  Rng rng(16);
  auto g = RandomConnectedGraph(40, 0.5, rng, true);
  graph::GraphView view(&g);
  auto labels = HubLabelBuilder::Build(view).ValueOrDie();
  auto points = RandomPoints(g.num_nodes(), 10, rng);
  const auto orig = HubPointIndex::Build(labels, points).ValueOrDie();

  HubPointIndex copy = orig;
  NodeId host = kInvalidNode;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (!points.Contains(n)) {
      host = n;
      break;
    }
  }
  ASSERT_NE(host, kInvalidNode);
  PointId p = points.AddPoint(host).ValueOrDie();
  ASSERT_TRUE(copy.InsertPoint(labels, p, host).ok());

  // The original is untouched — still the pre-insert index.
  EXPECT_EQ(orig.num_points(), copy.num_points() - 1);
  size_t shared = 0, cloned = 0;
  for (NodeId h = 0; h < orig.num_hubs(); ++h) {
    auto a = orig.ListOf(h);
    auto b = copy.ListOf(h);
    if (a.size() == b.size()) {
      // Untouched run: the copy must SHARE the original's storage
      // (copy-on-write at hub granularity), not own a clone.
      EXPECT_EQ(a.data(), b.data()) << "hub=" << h;
      shared += a.empty() ? 0 : 1;
    } else {
      ASSERT_EQ(b.size(), a.size() + 1) << "hub=" << h;
      ++cloned;
    }
  }
  // The label of `host` covers itself, so at least one run was patched;
  // a 10-point build leaves plenty untouched.
  EXPECT_GE(cloned, 1u);
  EXPECT_GE(shared, 1u);
}

// --- Multi-node sweeps over the merged virtual label --------------------

// Two random components side by side: nodes [0, 25) and [25, 45).
graph::Graph TwoComponentGraph(Rng& rng) {
  const auto a = RandomConnectedGraph(25, 0.5, rng);
  const auto b = RandomConnectedGraph(20, 0.5, rng);
  std::vector<Edge> edges = a.CollectEdges();
  for (Edge e : b.CollectEdges()) {
    e.u += a.num_nodes();
    e.v += a.num_nodes();
    edges.push_back(e);
  }
  return graph::Graph::FromEdges(a.num_nodes() + b.num_nodes(), edges)
      .ValueOrDie();
}

// One reopened LabelFile behind an 8-frame pool: every Scan overwrites
// the cursor buffer the previous span pointed into.
struct ReopenedLabels {
  storage::MemoryDiskManager disk{512};
  std::unique_ptr<LabelFile> file;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<StoredLabelIndex> store;

  explicit ReopenedLabels(const HubLabelIndex& labels) {
    const PageId first =
        LabelFile::Build(labels, &disk).ValueOrDie().first_page();
    file = std::make_unique<LabelFile>(
        LabelFile::Open(&disk, first).ValueOrDie());
    pool = std::make_unique<storage::BufferPool>(&disk, 8);
    store = std::make_unique<StoredLabelIndex>(file.get(), pool.get());
  }
};

// Runs `check(store, name, pinned)` against the in-memory labels and a
// reopened LabelFile serving the same labels; `pinned()` reports the
// buffer-pool pins held right now (always 0 for memory).
template <typename Check>
void ForEachStore(const HubLabelIndex& labels, Check check) {
  check(static_cast<const LabelStore&>(labels), "memory",
        [] { return size_t{0}; });
  ReopenedLabels reopened(labels);
  check(static_cast<const LabelStore&>(*reopened.store), "stored",
        [&] { return reopened.pool->num_pinned(); });
  EXPECT_EQ(reopened.pool->num_pinned(), 0u);
}

TEST(MultiNodeSweep, RoutesMatchOracleAndPerNodeMinimumExactly) {
  for (uint64_t seed : {41u, 42u}) {
    Rng rng(seed);
    const auto g = TwoComponentGraph(rng);
    graph::GraphView view(&g);
    auto points = RandomPoints(g.num_nodes(), 16, rng);
    const auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    const std::vector<std::vector<NodeId>> routes = {
        {7},                  // one node
        {3, 9, 3, 3, 14, 9},  // repeated nodes
        {2, 30, 11, 40},      // nodes in both components
        {26, 26, 5, 26, 44},  // both: repeats across components
    };
    ForEachStore(labels, [&](const LabelStore& store, const char* name,
                             auto pinned) {
      const auto occ = HubPointIndex::Build(store, points).ValueOrDie();
      LabelWorkspace ws;
      LabelCursor cu, cv;
      for (const auto& route : routes) {
        for (int k : {1, 2, 3}) {
          core::RknnOptions options;
          options.k = k;
          auto got =
              RknnViaLabels(store, occ, occ, route, options, ws).ValueOrDie();
          auto want =
              core::BruteForceRknn(view, points, route, options).ValueOrDie();
          EXPECT_EQ(Ids(got), Ids(want))
              << name << " seed=" << seed << " k=" << k
              << " route[0]=" << route[0];
          EXPECT_EQ(pinned(), 0u) << name;
          for (const core::PointMatch& m : got.results) {
            Weight nearest = kInfinity;
            for (NodeId q : route) {
              nearest = std::min(
                  nearest, QueryViaStore(store, q, m.node, cu, cv).ValueOrDie());
            }
            EXPECT_EQ(m.dist, nearest) << name << " point=" << m.point;
          }
        }
      }
      EXPECT_EQ(pinned(), 0u) << name;
    });
  }
}

TEST(MultiNodeSweep, RepeatedNodeRouteSweepsLikeOneNode) {
  Rng rng(43);
  const auto g = RandomConnectedGraph(50, 0.6, rng);
  graph::GraphView view(&g);
  auto points = RandomPoints(g.num_nodes(), 15, rng);
  const auto labels = HubLabelBuilder::Build(view).ValueOrDie();
  ForEachStore(labels, [&](const LabelStore& store, const char* name,
                           auto pinned) {
    const auto occ = HubPointIndex::Build(store, points).ValueOrDie();
    LabelWorkspace ws;
    core::RknnOptions options;
    options.k = 2;
    for (NodeId q : {NodeId{0}, NodeId{17}, NodeId{49}}) {
      const auto one =
          RknnViaLabels(store, occ, occ, {&q, 1}, options, ws).ValueOrDie();
      for (size_t m : {2u, 5u, 8u}) {
        const std::vector<NodeId> route(m, q);
        const auto many =
            RknnViaLabels(store, occ, occ, route, options, ws).ValueOrDie();
        // Each hub's run is read once, however many copies name it.
        EXPECT_EQ(many.stats.label_entries, one.stats.label_entries)
            << name << " q=" << q << " m=" << m;
        EXPECT_EQ(many.results, one.results) << name << " q=" << q;
        EXPECT_EQ(pinned(), 0u) << name;
      }
    }
  });
}

TEST(MultiNodeSweep, EdgeOccurrencesAreTheOffsetEndpointMinimum) {
  Rng rng(44);
  const auto g = TwoComponentGraph(rng);
  graph::GraphView view(&g);
  const auto labels = HubLabelBuilder::Build(view).ValueOrDie();
  const auto edges = g.CollectEdges();
  std::vector<core::EdgePosition> positions;
  for (uint64_t i : rng.SampleWithoutReplacement(edges.size(), 14)) {
    const Edge& e = edges[i];
    positions.push_back({e.u, e.v, rng.Uniform(0.0, e.w)});
  }
  auto points = core::EdgePointSet::Create(g, positions).ValueOrDie();

  // Expected occurrence distances straight from the labels:
  // min(d(u,h) + pos, d(v,h) + w - pos) per hub of either endpoint.
  std::vector<std::map<NodeId, Weight>> want(points.point_id_bound());
  size_t want_entries = 0;
  for (PointId p : points.LivePoints()) {
    const core::EdgePosition& pos = points.PositionOf(p);
    const Weight w = points.EdgeWeightOfPoint(p);
    for (const HubEntry& e : labels.Label(pos.u)) {
      want[p][e.hub] = e.dist + pos.pos;
    }
    for (const HubEntry& e : labels.Label(pos.v)) {
      const Weight via_v = e.dist + (w - pos.pos);
      auto [it, fresh] = want[p].emplace(e.hub, via_v);
      if (!fresh) {
        it->second = std::min(it->second, via_v);
      }
    }
    want_entries += want[p].size();
  }

  ForEachStore(labels, [&](const LabelStore& store, const char* name,
                           auto pinned) {
    const auto occ = HubPointIndex::Build(store, points).ValueOrDie();
    EXPECT_EQ(occ.num_entries(), want_entries) << name;
    for (NodeId h = 0; h < occ.num_hubs(); ++h) {
      for (const HubPointIndex::Entry& entry : occ.ListOf(h)) {
        const auto it = want[entry.point].find(h);
        ASSERT_NE(it, want[entry.point].end())
            << name << " hub=" << h << " point=" << entry.point;
        EXPECT_EQ(entry.dist, it->second)
            << name << " hub=" << h << " point=" << entry.point;
        EXPECT_EQ(entry.node, points.PositionOf(entry.point).u);
      }
    }

    // Position queries sweep the same two-endpoint virtual label; route
    // queries with repeats and both components sweep the merged one.
    LabelWorkspace ws;
    graph::NeighborCursor nbr;
    const auto live = points.LivePoints();
    std::vector<core::UnrestrictedQuery> queries;
    for (size_t i = 0; i < 4; ++i) {
      core::UnrestrictedQuery q;
      q.position = points.PositionOf(live[i]);
      queries.push_back(q);
    }
    core::UnrestrictedQuery route;
    route.is_position = false;
    route.route = {4, 30, 4, 12, 30};
    queries.push_back(route);
    for (const auto& q : queries) {
      for (int k : {1, 2}) {
        core::RknnOptions options;
        options.k = k;
        auto got = UnrestrictedRknnViaLabels(store, view, points, occ, q,
                                             options, ws, nbr)
                       .ValueOrDie();
        auto want_ids =
            core::UnrestrictedBruteForceRknn(view, points, q, options)
                .ValueOrDie();
        EXPECT_EQ(Ids(got), Ids(want_ids))
            << name << " k=" << k << " position=" << q.is_position;
        EXPECT_EQ(pinned(), 0u) << name;
      }
    }
  });
}

}  // namespace
}  // namespace grnn::index
