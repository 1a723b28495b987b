// Snapshot-mode RknnEngine semantics (EngineSources::snapshot_reads):
// the serving layer's contract changes relative to lock mode — versions
// are authoritative and the caller's sinks are init-only, updates
// publish atomically or not at all, hub staleness is per-version, and
// stored maintained stores are rejected at Create. Equivalence with the
// lock-mode engine across kinds and algorithms is the anchor: the
// serving layer may change HOW queries are served, never WHAT they
// answer.

#include <gtest/gtest.h>

#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "gen/grid.h"
#include "gen/points.h"
#include "index/hub_label.h"

namespace grnn::core {
namespace {

// Address-stable world data; tests create a graph::GraphView over `g`
// locally once the struct has its final address (the repo's fixture
// idiom — the view holds a raw Graph pointer).
struct SnapshotWorld {
  graph::Graph g;
  NodePointSet points{0};
  NodePointSet sites{0};
  MemoryKnnStore knn{0, 0};
  MemoryKnnStore site_knn{0, 0};

  static SnapshotWorld Make(uint64_t seed) {
    SnapshotWorld w;
    gen::GridConfig cfg;
    cfg.rows = 10;
    cfg.cols = 10;
    cfg.seed = seed;
    w.g = gen::GenerateGrid(cfg).ValueOrDie();
    graph::GraphView view(&w.g);
    Rng rng(seed * 7 + 3);
    w.points =
        gen::PlaceNodePoints(w.g.num_nodes(), 0.2, rng).ValueOrDie();
    w.sites =
        gen::PlaceNodePoints(w.g.num_nodes(), 0.1, rng).ValueOrDie();
    w.knn = MemoryKnnStore(w.g.num_nodes(), 4);
    w.site_knn = MemoryKnnStore(w.g.num_nodes(), 4);
    EXPECT_TRUE(BuildAllNn(view, w.points, &w.knn).ok());
    EXPECT_TRUE(BuildAllNn(view, w.sites, &w.site_knn).ok());
    return w;
  }

  EngineSources Sources(const graph::GraphView* view, bool snapshot,
                        bool updatable) {
    EngineSources s;
    s.graph = view;
    s.points = &points;
    s.sites = &sites;
    s.knn = &knn;
    s.site_knn = &site_knn;
    s.snapshot_reads = snapshot;
    if (updatable) {
      s.updates.points = &points;
      s.updates.knn = &knn;
      s.updates.sites = &sites;
      s.updates.site_knn = &site_knn;
    }
    return s;
  }
};

std::vector<NodeId> Nodes(const RknnResult& r) {
  std::vector<NodeId> nodes;
  for (const PointMatch& m : r.results) {
    nodes.push_back(m.node);
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

TEST(EngineSnapshotTest, MatchesLockModeAcrossKindsAndAlgorithms) {
  SnapshotWorld w = SnapshotWorld::Make(/*seed=*/17);
  graph::GraphView view(&w.g);
  auto lock_engine =
      RknnEngine::Create(w.Sources(&view, false, false)).ValueOrDie();
  auto snap_engine =
      RknnEngine::Create(w.Sources(&view, true, false)).ValueOrDie();

  Rng rng(41);
  std::vector<QuerySpec> specs;
  for (Algorithm algo : kAllAlgorithms) {
    for (int k = 1; k <= 3; ++k) {
      const NodeId n =
          static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
      specs.push_back(QuerySpec::Monochromatic(algo, n, k));
      specs.push_back(QuerySpec::Bichromatic(algo, n, k));
      specs.push_back(QuerySpec::Continuous(
          algo, {n, static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()))},
          k));
    }
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    auto lock_r = lock_engine.Run(specs[i]);
    auto snap_r = snap_engine.Run(specs[i]);
    ASSERT_TRUE(lock_r.ok()) << lock_r.status().ToString();
    ASSERT_TRUE(snap_r.ok()) << snap_r.status().ToString();
    EXPECT_EQ(Nodes(*lock_r), Nodes(*snap_r)) << "spec " << i;
  }
  // Every snapshot dispatch pinned an epoch; nothing was published.
  EXPECT_GE(snap_engine.epoch_stats().pins, specs.size());
  EXPECT_EQ(snap_engine.world_seq(), 0u);
  EXPECT_EQ(lock_engine.epoch_stats().pins, 0u);
}

TEST(EngineSnapshotTest, UpdatesPublishVersionsAndLeaveSinksUntouched) {
  SnapshotWorld w = SnapshotWorld::Make(/*seed=*/19);
  graph::GraphView view(&w.g);
  auto engine =
      RknnEngine::Create(w.Sources(&view, true, true)).ValueOrDie();

  NodeId free_node = kInvalidNode;
  for (NodeId n = 0; n < w.g.num_nodes(); ++n) {
    if (!w.points.Contains(n)) {
      free_node = n;
      break;
    }
  }
  ASSERT_NE(free_node, kInvalidNode);

  auto ins = engine.ApplyUpdate(UpdateSpec::InsertPoint(free_node));
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(engine.world_seq(), 1u);
  // Init-only contract: the CALLER'S set did not change — the insert
  // lives in the published version.
  EXPECT_FALSE(w.points.Contains(free_node));
  auto probe = engine.Run(QuerySpec::Monochromatic(
      Algorithm::kBruteForce, free_node, 1, ins->point));
  ASSERT_TRUE(probe.ok());

  // The engine serves the inserted point: an eager query AT the free
  // node excluding nothing must now see a point hosted there iff it is
  // its own nearest… simplest decisive check: delete round-trips.
  auto del = engine.ApplyUpdate(UpdateSpec::DeletePoint(ins->point));
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(engine.world_seq(), 2u);

  // Failed updates publish nothing.
  auto bad = engine.ApplyUpdate(UpdateSpec::DeletePoint(ins->point));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(engine.world_seq(), 2u);

  // With no readers in flight, retired versions drain.
  engine.ReclaimVersions();
  const serve::EpochStats es = engine.epoch_stats();
  EXPECT_EQ(es.retired, 2u);
  EXPECT_EQ(es.reclaimed, 2u);
  EXPECT_EQ(es.limbo, 0u);
}

TEST(EngineSnapshotTest, InsertIsVisibleToQueriesAgainstTheNewVersion) {
  SnapshotWorld w = SnapshotWorld::Make(/*seed=*/23);
  graph::GraphView view(&w.g);
  auto engine =
      RknnEngine::Create(w.Sources(&view, true, true)).ValueOrDie();
  // Oracle: lock-mode engine over a private copy, updated in place.
  SnapshotWorld w2 = SnapshotWorld::Make(/*seed=*/23);
  graph::GraphView view2(&w2.g);
  auto oracle =
      RknnEngine::Create(w2.Sources(&view2, false, true)).ValueOrDie();

  Rng rng(59);
  for (int round = 0; round < 10; ++round) {
    NodeId free_node = kInvalidNode;
    while (free_node == kInvalidNode) {
      const NodeId n =
          static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
      // Both worlds hold identical sets, so one containment check works.
      if (!w2.points.Contains(n)) {
        free_node = n;
      }
    }
    auto ins = engine.ApplyUpdate(UpdateSpec::InsertPoint(free_node));
    auto oracle_ins =
        oracle.ApplyUpdate(UpdateSpec::InsertPoint(free_node));
    ASSERT_TRUE(ins.ok());
    ASSERT_TRUE(oracle_ins.ok());
    for (Algorithm algo : kAllAlgorithms) {
      const QuerySpec spec = QuerySpec::Monochromatic(
          algo, static_cast<NodeId>(rng.UniformInt(w.g.num_nodes())), 2);
      auto got = engine.Run(spec);
      auto want = oracle.Run(spec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(Nodes(*got), Nodes(*want)) << "round " << round;
    }
    if (round % 2 == 1) {
      ASSERT_TRUE(
          engine.ApplyUpdate(UpdateSpec::DeletePoint(ins->point)).ok());
      ASSERT_TRUE(
          oracle.ApplyUpdate(UpdateSpec::DeletePoint(oracle_ins->point))
              .ok());
    }
  }
}

TEST(EngineSnapshotTest, HubIndexStaysFreshAcrossPublishedVersions) {
  SnapshotWorld w = SnapshotWorld::Make(/*seed=*/29);
  graph::GraphView view(&w.g);
  auto labels = index::HubLabelBuilder::Build(view).ValueOrDie();
  EngineSources sources = w.Sources(&view, true, true);
  sources.hub_labels = &labels;
  auto engine = RknnEngine::Create(sources).ValueOrDie();

  Rng rng(71);
  const NodeId q = static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
  const QuerySpec hub_spec =
      QuerySpec::Monochromatic(Algorithm::kHubLabel, q, 2);
  const QuerySpec eager_spec =
      QuerySpec::Monochromatic(Algorithm::kEager, q, 2);

  // Fresh at Create: hub answers without fallback.
  auto fresh = engine.Run(hub_spec);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->stats.hub_fallbacks, 0u);

  // A node-domain update clones-and-splices the hub index onto the
  // published successor version (PR 8): the label path keeps serving,
  // exactly, with no fallback.
  NodeId free_node = kInvalidNode;
  for (NodeId n = 0; n < w.g.num_nodes(); ++n) {
    if (!w.points.Contains(n)) {
      free_node = n;
      break;
    }
  }
  auto ins = engine.ApplyUpdate(UpdateSpec::InsertPoint(free_node));
  ASSERT_TRUE(ins.ok());
  auto patched = engine.Run(hub_spec);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(patched->stats.hub_fallbacks, 0u);
  EXPECT_GT(patched->stats.label_entries, 0u);
  auto eager = engine.Run(eager_spec);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(Nodes(*patched), Nodes(*eager));

  // A delete splices back out, still without going dark.
  ASSERT_TRUE(
      engine.ApplyUpdate(UpdateSpec::DeletePoint(ins->point)).ok());
  auto deleted = engine.Run(hub_spec);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->stats.hub_fallbacks, 0u);
  EXPECT_GT(deleted->stats.label_entries, 0u);
  auto deleted_eager = engine.Run(eager_spec);
  ASSERT_TRUE(deleted_eager.ok());
  EXPECT_EQ(Nodes(*deleted), Nodes(*deleted_eager));
}

TEST(EngineSnapshotTest, RejectsStoredMaintainedStores) {
  // A FileKnnStore-backed updatable engine is valid in lock mode but
  // must be rejected in snapshot mode: its pages mutate in place.
  gen::GridConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.seed = 31;
  graph::Graph g = gen::GenerateGrid(cfg).ValueOrDie();
  Rng rng(31);
  NodePointSet points =
      gen::PlaceNodePoints(g.num_nodes(), 0.2, rng).ValueOrDie();
  auto env = bench::BuildStoredRestricted(g, points, /*K=*/4,
                                          /*pool_pages=*/8,
                                          /*pool_shards=*/1)
                 .ValueOrDie();
  auto lock_engine = bench::MakeRestrictedUpdatableEngine(env, points);
  ASSERT_TRUE(lock_engine.ok());

  EngineSources sources = lock_engine->sources();
  sources.snapshot_reads = true;
  auto rejected = RknnEngine::Create(sources);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
}

TEST(EngineSnapshotTest, EdgeDomainUpdatesPublishVersions) {
  gen::GridConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.seed = 37;
  graph::Graph g = gen::GenerateGrid(cfg).ValueOrDie();
  graph::GraphView view(&g);
  Rng rng(37);
  EdgePointSet edge_points =
      gen::PlaceEdgePoints(g, 0.2, rng).ValueOrDie();

  EngineSources sources;
  sources.graph = &view;
  sources.edge_points = &edge_points;
  sources.updates.edge_points = &edge_points;
  sources.updates.base_graph = &g;
  sources.snapshot_reads = true;
  auto engine = RknnEngine::Create(sources).ValueOrDie();

  // Oracle over a private copy, lock mode.
  EdgePointSet oracle_points = edge_points;
  EngineSources oracle_sources;
  oracle_sources.graph = &view;
  oracle_sources.edge_points = &oracle_points;
  oracle_sources.updates.edge_points = &oracle_points;
  oracle_sources.updates.base_graph = &g;
  auto oracle = RknnEngine::Create(oracle_sources).ValueOrDie();

  const PointId victim = edge_points.LivePoints().front();
  const EdgePosition pos = edge_points.PositionOf(victim);
  ASSERT_TRUE(
      engine.ApplyUpdate(UpdateSpec::DeleteEdgePoint(victim)).ok());
  ASSERT_TRUE(
      oracle.ApplyUpdate(UpdateSpec::DeleteEdgePoint(victim)).ok());
  EXPECT_EQ(engine.world_seq(), 1u);
  // Init-only: the caller's edge set still holds the victim.
  EXPECT_TRUE(edge_points.IsLive(victim));

  for (Algorithm algo :
       {Algorithm::kEager, Algorithm::kLazy, Algorithm::kBruteForce}) {
    const QuerySpec spec = QuerySpec::Unrestricted(algo, pos, 2);
    auto got = engine.Run(spec);
    auto want = oracle.Run(spec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(Nodes(*got), Nodes(*want));
  }
}

}  // namespace
}  // namespace grnn::core
