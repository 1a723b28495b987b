// RknnEngine: the unified session API. Every (query kind x algorithm)
// combination is cross-checked against the brute-force oracle on small
// fixture graphs; batched execution must match one-at-a-time execution
// and reuse the workspace without leaking state between queries.

#include "core/engine.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <tuple>

#include "core/durability.h"
#include "graph/network_view.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/knn_file.h"
#include "storage/wal.h"
#include "test_fixtures.h"

namespace grnn::core {
namespace {

using testfix::Ids;
using testfix::RandomConnectedGraph;

// One world with every point source: node points P, sites Q and
// edge-resident points, plus the materializations each kind needs.
struct EngineWorld {
  graph::Graph g;
  std::optional<graph::GraphView> view;
  NodePointSet points{0};
  NodePointSet sites{0};
  EdgePointSet edge_points;
  MemoryKnnStore knn{0, 1};
  MemoryKnnStore site_knn{0, 1};
  MemoryKnnStore edge_knn{0, 1};
};

std::unique_ptr<EngineWorld> MakeWorld(uint64_t seed, uint32_t max_k) {
  auto w = std::make_unique<EngineWorld>();
  Rng rng(seed * 7919 + 17);
  w->g = RandomConnectedGraph(40, 1.0, rng);
  w->view.emplace(&w->g);

  // Node points P on 10 distinct nodes, sites Q on 6 others.
  auto p_nodes = rng.SampleWithoutReplacement(w->g.num_nodes(), 16);
  std::vector<NodeId> p_locs(p_nodes.begin(), p_nodes.begin() + 10);
  std::vector<NodeId> q_locs(p_nodes.begin() + 10, p_nodes.end());
  w->points =
      NodePointSet::FromLocations(w->g.num_nodes(), p_locs).ValueOrDie();
  w->sites =
      NodePointSet::FromLocations(w->g.num_nodes(), q_locs).ValueOrDie();

  // Edge points on 10 distinct random edges.
  auto edges = w->g.CollectEdges();
  std::vector<EdgePosition> positions;
  for (uint64_t ei : rng.SampleWithoutReplacement(edges.size(), 10)) {
    const Edge& e = edges[ei];
    positions.push_back({e.u, e.v, rng.Uniform(0.0, e.w)});
  }
  w->edge_points = EdgePointSet::Create(w->g, positions).ValueOrDie();

  w->knn = MemoryKnnStore(w->g.num_nodes(), max_k + 1);
  EXPECT_TRUE(BuildAllNn(*w->view, w->points, &w->knn).ok());
  w->site_knn = MemoryKnnStore(w->g.num_nodes(), max_k + 1);
  EXPECT_TRUE(BuildAllNn(*w->view, w->sites, &w->site_knn).ok());
  w->edge_knn = MemoryKnnStore(w->g.num_nodes(), max_k + 1);
  EXPECT_TRUE(
      UnrestrictedBuildAllNn(*w->view, w->edge_points, &w->edge_knn).ok());
  return w;
}

// Engine serving the node-resident kinds (mono, bichromatic, continuous
// routes over P).
RknnEngine NodeEngine(EngineWorld& w) {
  EngineSources sources;
  sources.graph = &*w.view;
  sources.points = &w.points;
  sources.sites = &w.sites;
  sources.knn = &w.knn;
  sources.site_knn = &w.site_knn;
  return RknnEngine::Create(sources).ValueOrDie();
}

// Engine serving the unrestricted kinds (positions and routes over the
// edge-resident points).
RknnEngine EdgeEngine(EngineWorld& w) {
  EngineSources sources;
  sources.graph = &*w.view;
  sources.edge_points = &w.edge_points;
  sources.knn = &w.edge_knn;
  return RknnEngine::Create(sources).ValueOrDie();
}

// Builds a batch of specs of the given kind with mixed targets:
// queries at data points (paper workload, excluded from their own
// query) alternate with queries at arbitrary locations.
std::vector<QuerySpec> MakeSpecs(EngineWorld& w, QueryKind kind,
                                 Algorithm algo, int k, size_t count,
                                 Rng& rng) {
  std::vector<QuerySpec> specs;
  auto edges = w.g.CollectEdges();
  for (size_t i = 0; i < count; ++i) {
    QuerySpec spec;
    switch (kind) {
      case QueryKind::kMonochromatic: {
        if (i % 2 == 0) {
          auto live = w.points.LivePoints();
          PointId qp = live[rng.UniformInt(live.size())];
          spec = QuerySpec::Monochromatic(algo, w.points.NodeOf(qp), k,
                                          qp);
        } else {
          spec = QuerySpec::Monochromatic(
              algo, static_cast<NodeId>(rng.UniformInt(w.g.num_nodes())),
              k);
        }
        break;
      }
      case QueryKind::kBichromatic: {
        if (i % 2 == 0) {
          // "What if" at an existing site, competing against the rest.
          auto live = w.sites.LivePoints();
          PointId qs = live[rng.UniformInt(live.size())];
          spec = QuerySpec::Bichromatic(algo, w.sites.NodeOf(qs), k, qs);
        } else {
          spec = QuerySpec::Bichromatic(
              algo, static_cast<NodeId>(rng.UniformInt(w.g.num_nodes())),
              k);
        }
        break;
      }
      case QueryKind::kContinuous: {
        std::vector<NodeId> route;
        NodeId cur =
            static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
        route.push_back(cur);
        for (int hop = 0; hop < 3; ++hop) {
          auto nbrs = w.g.Neighbors(cur);
          cur = nbrs[rng.UniformInt(nbrs.size())].node;
          route.push_back(cur);
        }
        spec = QuerySpec::Continuous(algo, std::move(route), k);
        break;
      }
      case QueryKind::kUnrestricted: {
        if (i % 2 == 0) {
          auto live = w.edge_points.LivePoints();
          PointId qp = live[rng.UniformInt(live.size())];
          spec = QuerySpec::Unrestricted(
              algo, w.edge_points.PositionOf(qp), k, qp);
        } else {
          const Edge& e = edges[rng.UniformInt(edges.size())];
          spec = QuerySpec::Unrestricted(
              algo, EdgePosition{e.u, e.v, rng.Uniform(0.0, e.w)}, k);
        }
        break;
      }
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

// ---------------------------------------------------------------------
// Matrix: every (kind x algorithm) agrees with the brute-force oracle.

class EngineMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<QueryKind, Algorithm, int, int>> {};

TEST_P(EngineMatrixTest, AgreesWithBruteForceOracle) {
  const auto [kind, algo, k, seed] = GetParam();
  auto w = MakeWorld(static_cast<uint64_t>(seed), /*max_k=*/3);
  RknnEngine engine = kind == QueryKind::kUnrestricted ? EdgeEngine(*w)
                                                       : NodeEngine(*w);

  Rng rng(static_cast<uint64_t>(seed) * 31 + 5);
  auto specs = MakeSpecs(*w, kind, algo, k, /*count=*/6, rng);
  for (size_t i = 0; i < specs.size(); ++i) {
    auto result = engine.Run(specs[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    QuerySpec oracle_spec = specs[i];
    oracle_spec.algorithm = Algorithm::kBruteForce;
    auto oracle = engine.Run(oracle_spec);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(Ids(*result), Ids(*oracle))
        << QueryKindName(kind) << "/" << AlgorithmName(algo) << " k=" << k
        << " seed=" << seed << " query=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllAlgorithms, EngineMatrixTest,
    ::testing::Combine(
        ::testing::ValuesIn(kAllQueryKinds),
        ::testing::ValuesIn(kAllAlgorithms),
        ::testing::Values(1, 2),
        ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(QueryKindName(std::get<0>(info.param))) + "_" +
             AlgorithmShortName(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

// Routes over edge-resident points: kContinuous on an edge engine takes
// the unrestricted path and must match its oracle.
TEST(EngineTest, ContinuousOverEdgePointsMatchesOracle) {
  auto w = MakeWorld(9, 3);
  RknnEngine engine = EdgeEngine(*w);
  Rng rng(77);
  for (Algorithm algo : kAllAlgorithms) {
    auto specs =
        MakeSpecs(*w, QueryKind::kContinuous, algo, /*k=*/2, 4, rng);
    for (const QuerySpec& spec : specs) {
      auto result = engine.Run(spec);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      QuerySpec oracle_spec = spec;
      oracle_spec.algorithm = Algorithm::kBruteForce;
      auto oracle = engine.Run(oracle_spec).ValueOrDie();
      EXPECT_EQ(Ids(*result), Ids(oracle)) << AlgorithmName(algo);
    }
  }
}

// ---------------------------------------------------------------------
// Batched execution.

TEST(EngineBatchTest, BatchMatchesOneAtATime) {
  auto w = MakeWorld(4, 3);
  Rng rng(1234);

  // A mixed batch across kinds and algorithms on the node engine...
  std::vector<QuerySpec> specs;
  for (Algorithm algo : kAllAlgorithms) {
    for (QueryKind kind :
         {QueryKind::kMonochromatic, QueryKind::kBichromatic,
          QueryKind::kContinuous}) {
      auto part = MakeSpecs(*w, kind, algo, /*k=*/2, 10, rng);
      specs.insert(specs.end(), part.begin(), part.end());
    }
  }
  ASSERT_GE(specs.size(), 100u);

  RknnEngine batch_engine = NodeEngine(*w);
  auto batch = batch_engine.RunBatch(specs).ValueOrDie();
  ASSERT_EQ(batch.results.size(), specs.size());
  EXPECT_EQ(batch.stats.queries, specs.size());

  // ... must agree, result by result, with fresh one-at-a-time runs.
  RknnEngine single_engine = NodeEngine(*w);
  SearchStats sum;
  for (size_t i = 0; i < specs.size(); ++i) {
    auto single = single_engine.Run(specs[i]).ValueOrDie();
    EXPECT_EQ(batch.results[i].results, single.results) << "query " << i;
    sum += single.stats;
  }
  EXPECT_EQ(batch.stats.search.nodes_expanded, sum.nodes_expanded);
  EXPECT_EQ(batch.stats.search.verify_calls, sum.verify_calls);
}

TEST(EngineBatchTest, NoWorkspaceAllocationOnceWarm) {
  auto w = MakeWorld(6, 3);
  Rng rng(99);
  std::vector<QuerySpec> specs;
  for (Algorithm algo : kAllAlgorithms) {
    auto part =
        MakeSpecs(*w, QueryKind::kMonochromatic, algo, /*k=*/2, 25, rng);
    specs.insert(specs.end(), part.begin(), part.end());
  }
  ASSERT_GE(specs.size(), 100u);

  RknnEngine engine = NodeEngine(*w);
  // First pass warms the workspace to its high-water mark...
  auto warm = engine.RunBatch(specs).ValueOrDie();
  // ... after which re-running the identical >= 100-query batch must not
  // allocate any pooled buffer again.
  auto second = engine.RunBatch(specs).ValueOrDie();
  EXPECT_EQ(second.stats.workspace_grows, 0u)
      << "warm batch reallocated workspace buffers (first pass grew "
      << warm.stats.workspace_grows << " times)";
  EXPECT_EQ(second.stats.queries, specs.size());
}

TEST(EngineBatchTest, UnrestrictedBatchNoAllocationOnceWarm) {
  auto w = MakeWorld(8, 3);
  Rng rng(5);
  std::vector<QuerySpec> specs;
  for (Algorithm algo : kAllAlgorithms) {
    auto part =
        MakeSpecs(*w, QueryKind::kUnrestricted, algo, /*k=*/2, 25, rng);
    specs.insert(specs.end(), part.begin(), part.end());
  }
  RknnEngine engine = EdgeEngine(*w);
  (void)engine.RunBatch(specs).ValueOrDie();
  auto second = engine.RunBatch(specs).ValueOrDie();
  EXPECT_EQ(second.stats.workspace_grows, 0u);
}

TEST(EngineBatchTest, WorkspaceReuseDoesNotLeakStateBetweenQueries) {
  auto w = MakeWorld(3, 3);
  RknnEngine engine = NodeEngine(*w);

  // Alternating queries with different k, exclusions and kinds, each
  // repeated: a reused workspace must give identical answers every time.
  auto live = w->points.LivePoints();
  const NodeId a = w->points.NodeOf(live[0]);
  const NodeId b = w->points.NodeOf(live[1]);
  std::vector<QuerySpec> alternating;
  for (int rep = 0; rep < 5; ++rep) {
    alternating.push_back(QuerySpec::Monochromatic(
        Algorithm::kLazy, a, /*k=*/1, live[0]));
    alternating.push_back(QuerySpec::Monochromatic(
        Algorithm::kLazy, b, /*k=*/3, live[1]));
    alternating.push_back(
        QuerySpec::Bichromatic(Algorithm::kLazyEp, a, /*k=*/2));
  }
  auto batch = engine.RunBatch(alternating).ValueOrDie();
  for (int rep = 1; rep < 5; ++rep) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(batch.results[3 * rep + j].results,
                batch.results[j].results)
          << "repetition " << rep << " slot " << j
          << " diverged from its first occurrence";
    }
  }
}

// ---------------------------------------------------------------------
// Validation and error paths.

TEST(EngineTest, CreateValidatesSources) {
  EngineSources empty;
  EXPECT_FALSE(RknnEngine::Create(empty).ok());

  auto w = MakeWorld(1, 1);
  EngineSources no_points;
  no_points.graph = &*w->view;
  EXPECT_FALSE(RknnEngine::Create(no_points).ok());
}

TEST(EngineTest, MissingSourcesAreReported) {
  auto w = MakeWorld(1, 1);

  // A node engine without sites rejects bichromatic queries...
  EngineSources sources;
  sources.graph = &*w->view;
  sources.points = &w->points;
  auto engine = RknnEngine::Create(sources).ValueOrDie();
  EXPECT_FALSE(
      engine.Run(QuerySpec::Bichromatic(Algorithm::kEager, 0)).ok());
  // ... and unrestricted ones.
  auto pos = w->edge_points.PositionOf(0);
  EXPECT_FALSE(
      engine.Run(QuerySpec::Unrestricted(Algorithm::kEager, pos)).ok());
  // Eager-M without a store is rejected, other algorithms work.
  EXPECT_FALSE(
      engine.Run(QuerySpec::Monochromatic(Algorithm::kEagerM, 0)).ok());
  EXPECT_TRUE(
      engine.Run(QuerySpec::Monochromatic(Algorithm::kEager, 0)).ok());
}

TEST(EngineTest, RejectsMalformedSpecs) {
  auto w = MakeWorld(2, 1);
  RknnEngine engine = NodeEngine(*w);

  QuerySpec two_nodes = QuerySpec::Monochromatic(Algorithm::kEager, 0);
  two_nodes.query_nodes.push_back(1);
  EXPECT_FALSE(engine.Run(two_nodes).ok());

  EXPECT_FALSE(
      engine.Run(QuerySpec::Monochromatic(Algorithm::kEager, 0, 0)).ok());

  QuerySpec empty_route =
      QuerySpec::Continuous(Algorithm::kEager, {});
  EXPECT_FALSE(engine.Run(empty_route).ok());
}

TEST(EngineTest, BatchAbortsOnFirstError) {
  auto w = MakeWorld(2, 1);
  RknnEngine engine = NodeEngine(*w);
  std::vector<QuerySpec> specs{
      QuerySpec::Monochromatic(Algorithm::kEager, 0),
      QuerySpec::Monochromatic(Algorithm::kEager, 1, /*k=*/0),  // invalid
      QuerySpec::Monochromatic(Algorithm::kEager, 2)};
  EXPECT_FALSE(engine.RunBatch(specs).ok());
}

TEST(EngineTest, LifetimeStatsAccumulate) {
  auto w = MakeWorld(2, 1);
  RknnEngine engine = NodeEngine(*w);
  ASSERT_TRUE(
      engine.Run(QuerySpec::Monochromatic(Algorithm::kEager, 0)).ok());
  std::vector<QuerySpec> specs{
      QuerySpec::Monochromatic(Algorithm::kLazy, 1),
      QuerySpec::Monochromatic(Algorithm::kLazy, 2)};
  ASSERT_TRUE(engine.RunBatch(specs).ok());
  EXPECT_EQ(engine.lifetime_stats().queries, 3u);
  EXPECT_GT(engine.lifetime_stats().search.nodes_scanned, 0u);
}

TEST(EngineTest, QueryKindNames) {
  EXPECT_STREQ(QueryKindName(QueryKind::kMonochromatic), "monochromatic");
  EXPECT_STREQ(QueryKindName(QueryKind::kBichromatic), "bichromatic");
  EXPECT_STREQ(QueryKindName(QueryKind::kContinuous), "continuous");
  EXPECT_STREQ(QueryKindName(QueryKind::kUnrestricted), "unrestricted");
}

// ---------------------------------------------------------------------
// Algorithm::kHubLabel: the label-backed index path (PR 5).

// Node engine with a hub-label index attached (and optionally the
// update sinks and the snapshot read path, for the update tests).
RknnEngine HubNodeEngine(EngineWorld& w,
                         const index::LabelStore& labels,
                         bool updatable = false,
                         bool snapshot_reads = false) {
  EngineSources sources;
  sources.snapshot_reads = snapshot_reads;
  sources.graph = &*w.view;
  sources.points = &w.points;
  sources.sites = &w.sites;
  sources.knn = &w.knn;
  sources.site_knn = &w.site_knn;
  sources.hub_labels = &labels;
  if (updatable) {
    sources.updates.points = &w.points;
    sources.updates.sites = &w.sites;
    sources.updates.knn = &w.knn;
    sources.updates.site_knn = &w.site_knn;
  }
  return RknnEngine::Create(sources).ValueOrDie();
}

// Edge engine with the hub-label index attached (and optionally the
// update sinks).
RknnEngine HubEdgeEngine(EngineWorld& w,
                         const index::LabelStore& labels,
                         bool updatable = false) {
  EngineSources sources;
  sources.graph = &*w.view;
  sources.edge_points = &w.edge_points;
  sources.knn = &w.edge_knn;
  sources.hub_labels = &labels;
  if (updatable) {
    sources.updates.edge_points = &w.edge_points;
    sources.updates.knn = &w.edge_knn;
    sources.updates.base_graph = &w.g;
  }
  return RknnEngine::Create(sources).ValueOrDie();
}

TEST(EngineHubTest, HubMatchesOracleOnAllFourKinds) {
  auto w = MakeWorld(21, 3);
  auto labels = index::HubLabelBuilder::Build(*w->view).ValueOrDie();
  RknnEngine node_engine = HubNodeEngine(*w, labels);
  RknnEngine edge_engine = HubEdgeEngine(*w, labels);
  Rng rng(99);
  for (QueryKind kind :
       {QueryKind::kMonochromatic, QueryKind::kBichromatic,
        QueryKind::kContinuous, QueryKind::kUnrestricted}) {
    // Routes over node points go to the node engine; positions (and
    // routes over edge points) to the edge engine.
    RknnEngine& engine =
        kind == QueryKind::kUnrestricted ? edge_engine : node_engine;
    for (int k = 1; k <= 3; ++k) {
      auto specs =
          MakeSpecs(*w, kind, Algorithm::kHubLabel, k, 8, rng);
      for (QuerySpec spec : specs) {
        auto hub = engine.Run(spec);
        ASSERT_TRUE(hub.ok()) << hub.status().ToString();
        EXPECT_EQ(hub->stats.hub_fallbacks, 0u);
        spec.algorithm = Algorithm::kBruteForce;
        auto oracle = engine.Run(spec);
        ASSERT_TRUE(oracle.ok());
        EXPECT_EQ(Ids(*hub), Ids(*oracle))
            << QueryKindName(kind) << " k=" << k;
      }
    }
  }
  // Routes over EDGE points take the label path too (continuous on an
  // edge engine dispatches as an unrestricted route query).
  for (int k = 1; k <= 3; ++k) {
    auto specs = MakeSpecs(*w, QueryKind::kContinuous,
                           Algorithm::kHubLabel, k, 6, rng);
    for (QuerySpec spec : specs) {
      auto hub = edge_engine.Run(spec);
      ASSERT_TRUE(hub.ok()) << hub.status().ToString();
      EXPECT_EQ(hub->stats.hub_fallbacks, 0u);
      EXPECT_GT(hub->stats.label_entries, 0u);
      spec.algorithm = Algorithm::kBruteForce;
      auto oracle = edge_engine.Run(spec);
      ASSERT_TRUE(oracle.ok());
      EXPECT_EQ(Ids(*hub), Ids(*oracle)) << "edge route k=" << k;
    }
  }
}

TEST(EngineHubTest, HubWithoutIndexIsRejected) {
  auto w = MakeWorld(23, 3);
  RknnEngine engine = NodeEngine(*w);
  auto r = engine.Run(
      QuerySpec::Monochromatic(Algorithm::kHubLabel, 0));
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineHubTest, CreateRejectsMismatchedLabelUniverse) {
  auto w = MakeWorld(24, 3);
  Rng rng(5);
  auto small = RandomConnectedGraph(5, 0.5, rng);
  graph::GraphView small_view(&small);
  auto labels = index::HubLabelBuilder::Build(small_view).ValueOrDie();
  EngineSources sources;
  sources.graph = &*w->view;
  sources.points = &w->points;
  sources.hub_labels = &labels;
  EXPECT_FALSE(RknnEngine::Create(sources).ok());
}

TEST(EngineHubTest, UpdatesMaintainIndexIncrementally) {
  auto w = MakeWorld(25, 3);
  auto labels = index::HubLabelBuilder::Build(*w->view).ValueOrDie();
  RknnEngine engine = HubNodeEngine(*w, labels, /*updatable=*/true);

  auto live = w->points.LivePoints();
  const PointId qp = live[0];
  const QuerySpec hub_spec = QuerySpec::Monochromatic(
      Algorithm::kHubLabel, w->points.NodeOf(qp), 2, qp);
  QuerySpec oracle_spec = hub_spec;
  oracle_spec.algorithm = Algorithm::kBruteForce;

  auto before = engine.Run(hub_spec);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->stats.hub_fallbacks, 0u);

  // A points update splices the new point into the derived index under
  // the update's own exclusive section: the label path never goes dark.
  NodeId free = kInvalidNode;
  for (NodeId n = 0; n < w->g.num_nodes(); ++n) {
    if (!w->points.Contains(n) && !w->sites.Contains(n)) {
      free = n;
      break;
    }
  }
  ASSERT_NE(free, kInvalidNode);
  auto ins = engine.ApplyUpdate(UpdateSpec::InsertPoint(free));
  ASSERT_TRUE(ins.ok());

  auto during = engine.Run(hub_spec);
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during->stats.hub_fallbacks, 0u);
  EXPECT_GT(during->stats.label_entries, 0u);
  auto oracle = engine.Run(oracle_spec);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Ids(*during), Ids(*oracle));

  // Deletes splice back out; still exact, still no fallback.
  ASSERT_TRUE(
      engine.ApplyUpdate(UpdateSpec::DeletePoint(ins->point)).ok());
  auto deleted = engine.Run(hub_spec);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->stats.hub_fallbacks, 0u);
  auto deleted_oracle = engine.Run(oracle_spec);
  ASSERT_TRUE(deleted_oracle.ok());
  EXPECT_EQ(Ids(*deleted), Ids(*deleted_oracle));

  // Site updates are maintained too (bichromatic shares the machinery).
  ASSERT_TRUE(engine.ApplyUpdate(UpdateSpec::InsertSite(free)).ok());
  auto bi = engine.Run(
      QuerySpec::Bichromatic(Algorithm::kHubLabel, free, 2));
  ASSERT_TRUE(bi.ok());
  EXPECT_EQ(bi->stats.hub_fallbacks, 0u);
  auto bi_oracle = engine.Run(
      QuerySpec::Bichromatic(Algorithm::kBruteForce, free, 2));
  ASSERT_TRUE(bi_oracle.ok());
  EXPECT_EQ(Ids(*bi), Ids(*bi_oracle));
}

TEST(EngineHubTest, EdgeUpdatesMaintainIndexIncrementally) {
  auto w = MakeWorld(27, 3);
  auto labels = index::HubLabelBuilder::Build(*w->view).ValueOrDie();
  RknnEngine engine = HubEdgeEngine(*w, labels, /*updatable=*/true);

  auto live = w->edge_points.LivePoints();
  const QuerySpec hub_spec = QuerySpec::Unrestricted(
      Algorithm::kHubLabel, w->edge_points.PositionOf(live[0]), 2,
      live[0]);
  QuerySpec oracle_spec = hub_spec;
  oracle_spec.algorithm = Algorithm::kBruteForce;

  // Insert an edge point, query through labels, delete it again — the
  // edge-resident index must track every step without fallback.
  auto edges = w->g.CollectEdges();
  const Edge& e = edges[edges.size() / 2];
  auto ins = engine.ApplyUpdate(
      UpdateSpec::InsertEdgePoint(EdgePosition{e.u, e.v, e.w / 3}));
  ASSERT_TRUE(ins.ok());
  auto during = engine.Run(hub_spec);
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during->stats.hub_fallbacks, 0u);
  EXPECT_GT(during->stats.label_entries, 0u);
  auto oracle = engine.Run(oracle_spec);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Ids(*during), Ids(*oracle));

  ASSERT_TRUE(
      engine.ApplyUpdate(UpdateSpec::DeleteEdgePoint(ins->point)).ok());
  auto deleted = engine.Run(hub_spec);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->stats.hub_fallbacks, 0u);
  auto deleted_oracle = engine.Run(oracle_spec);
  ASSERT_TRUE(deleted_oracle.ok());
  EXPECT_EQ(Ids(*deleted), Ids(*deleted_oracle));
}

// A NaN or infinite offset lies on no edge: every algorithm rejects the
// query, and an insert there is refused without adding a point.
TEST(EngineHubTest, NonFinitePositionsAreInvalidUnderEveryAlgorithm) {
  auto w = MakeWorld(29, 3);
  auto labels = index::HubLabelBuilder::Build(*w->view).ValueOrDie();
  RknnEngine engine = HubEdgeEngine(*w, labels, /*updatable=*/true);
  const Edge e = w->g.CollectEdges().front();
  for (double pos : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    const EdgePosition off_edge{e.u, e.v, pos};
    for (Algorithm algo :
         {Algorithm::kEager, Algorithm::kLazy, Algorithm::kLazyEp,
          Algorithm::kEagerM, Algorithm::kBruteForce,
          Algorithm::kHubLabel}) {
      auto r = engine.Run(QuerySpec::Unrestricted(algo, off_edge));
      EXPECT_TRUE(r.status().IsInvalidArgument())
          << AlgorithmName(algo) << " pos=" << pos << ": "
          << r.status().ToString();
    }
    const size_t live = w->edge_points.num_points();
    const PointId bound = w->edge_points.point_id_bound();
    auto ins = engine.ApplyUpdate(UpdateSpec::InsertEdgePoint(off_edge));
    EXPECT_TRUE(ins.status().IsInvalidArgument()) << "pos=" << pos;
    EXPECT_EQ(w->edge_points.num_points(), live);
    EXPECT_EQ(w->edge_points.point_id_bound(), bound);
  }
}

// Point ids never recycle, so every insert raises the id bound of the
// id-indexed workspace buffers by one. Those buffers must reallocate
// geometrically, and workspace_grows must count only real
// reallocations: a handful over 200 insert-then-query rounds, not one
// per query.
TEST(EngineHubTest, FreshPointIdsGrowWorkspaceOnlyGeometrically) {
  auto w = MakeWorld(29, 3);
  auto labels = index::HubLabelBuilder::Build(*w->view).ValueOrDie();
  EngineSources sources;
  sources.graph = &*w->view;
  sources.points = &w->points;
  sources.knn = &w->knn;
  sources.hub_labels = &labels;
  sources.updates.points = &w->points;
  sources.updates.knn = &w->knn;
  sources.snapshot_reads = true;
  RknnEngine engine = RknnEngine::Create(sources).ValueOrDie();

  NodeId free = kInvalidNode;
  for (NodeId n = 0; n < w->g.num_nodes() && free == kInvalidNode; ++n) {
    if (!w->points.Contains(n)) {
      free = n;
    }
  }
  ASSERT_NE(free, kInvalidNode);
  const QuerySpec spec =
      QuerySpec::Monochromatic(Algorithm::kHubLabel, free, 2);
  ASSERT_TRUE(engine.Run(spec).ok());  // warm the pooled workspace
  const uint64_t grows_before = engine.lifetime_stats().workspace_grows;
  for (int round = 0; round < 200; ++round) {
    auto ins = engine.ApplyUpdate(UpdateSpec::InsertPoint(free));
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    auto r = engine.Run(spec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.hub_fallbacks, 0u);
    ASSERT_TRUE(engine.ApplyUpdate(UpdateSpec::DeletePoint(ins->point)).ok());
  }
  const uint64_t grows =
      engine.lifetime_stats().workspace_grows - grows_before;
  EXPECT_LE(grows, 8u) << "200 fresh ids grew the workspace " << grows
                       << " times";
}

// LabelStore wrapper that fails Scans of one chosen node: the handle a
// test has on a failing hub-index patch.
class FailingLabelStore final : public index::LabelStore {
 public:
  explicit FailingLabelStore(const index::LabelStore* base)
      : base_(base) {}
  NodeId num_nodes() const override { return base_->num_nodes(); }
  size_t num_entries() const override { return base_->num_entries(); }
  Result<std::span<const index::HubEntry>> Scan(
      NodeId n, index::LabelCursor& cursor) const override {
    if (n == fail_node_) {
      return Status::Internal("injected label scan failure");
    }
    return base_->Scan(n, cursor);
  }
  void set_fail_node(NodeId n) { fail_node_ = n; }

 private:
  const index::LabelStore* base_;
  NodeId fail_node_ = kInvalidNode;
};

// Runs a monochromatic and a bichromatic hub query (k = 2) at every
// node and counts those that fail or disagree with brute force. Adds
// the label entries the hub queries read to `*label_entries`.
int HubMismatchesAtEveryNode(RknnEngine& engine, NodeId num_nodes,
                             uint64_t* label_entries) {
  int mismatches = 0;
  for (NodeId n = 0; n < num_nodes; ++n) {
    for (QuerySpec spec :
         {QuerySpec::Monochromatic(Algorithm::kHubLabel, n, 2),
          QuerySpec::Bichromatic(Algorithm::kHubLabel, n, 2)}) {
      auto hub = engine.Run(spec);
      spec.algorithm = Algorithm::kBruteForce;
      auto oracle = engine.Run(spec);
      if (!hub.ok() || !oracle.ok() || Ids(*hub) != Ids(*oracle)) {
        ++mismatches;
        continue;
      }
      *label_entries += hub->stats.label_entries;
    }
  }
  return mismatches;
}

// An update whose hub-index patch fails fails whole, in both read
// modes: it returns the label scan's Status, the caller's set (lock
// mode) or the published world (snapshot mode) stays as it was, and the
// label path keeps answering exactly. Once the labels heal, the same
// insert and delete go through.
TEST(EngineHubTest, FailedIndexPatchFailsTheUpdate) {
  for (bool snapshot : {false, true}) {
    SCOPED_TRACE(snapshot ? "snapshot mode" : "lock mode");
    auto w = MakeWorld(25, 3);
    auto labels = index::HubLabelBuilder::Build(*w->view).ValueOrDie();
    FailingLabelStore flaky(&labels);
    RknnEngine engine =
        HubNodeEngine(*w, flaky, /*updatable=*/true, snapshot);

    NodeId free = kInvalidNode;
    for (NodeId n = 0; n < w->g.num_nodes() && free == kInvalidNode; ++n) {
      if (!w->points.Contains(n) && !w->sites.Contains(n)) {
        free = n;
      }
    }
    ASSERT_NE(free, kInvalidNode);
    const std::vector<PointId> live_before = w->points.LivePoints();
    const PointId victim = live_before[0];
    const NodeId victim_host = w->points.NodeOf(victim);
    const uint64_t seq_before = engine.world_seq();

    flaky.set_fail_node(free);
    auto ins = engine.ApplyUpdate(UpdateSpec::InsertPoint(free));
    EXPECT_EQ(ins.status().code(), StatusCode::kInternal);
    EXPECT_EQ(ins.status().message(), "injected label scan failure");
    flaky.set_fail_node(victim_host);
    auto del = engine.ApplyUpdate(UpdateSpec::DeletePoint(victim));
    EXPECT_EQ(del.status().code(), StatusCode::kInternal);
    EXPECT_EQ(del.status().message(), "injected label scan failure");
    flaky.set_fail_node(kInvalidNode);
    if (snapshot) {
      EXPECT_EQ(engine.world_seq(), seq_before);
    } else {
      EXPECT_EQ(w->points.LivePoints(), live_before);
    }

    uint64_t label_entries = 0;
    EXPECT_EQ(HubMismatchesAtEveryNode(engine, w->g.num_nodes(),
                                       &label_entries),
              0);
    EXPECT_GT(label_entries, 0u);

    ASSERT_TRUE(engine.ApplyUpdate(UpdateSpec::InsertPoint(free)).ok());
    ASSERT_TRUE(engine.ApplyUpdate(UpdateSpec::DeletePoint(victim)).ok());
    EXPECT_EQ(HubMismatchesAtEveryNode(engine, w->g.num_nodes(),
                                       &label_entries),
              0);
  }
}

// KnnStore over a MemoryKnnStore whose CommitUpdate fails once armed,
// as a durable store's does when its WAL flush fails.
class FailingCommitStore final : public KnnStore {
 public:
  explicit FailingCommitStore(MemoryKnnStore base) : base_(std::move(base)) {}
  uint32_t k() const override { return base_.k(); }
  NodeId num_nodes() const override { return base_.num_nodes(); }
  Status Read(NodeId n, std::vector<NnEntry>* out) const override {
    return base_.Read(n, out);
  }
  Status Write(NodeId n, const std::vector<NnEntry>& entries) override {
    return base_.Write(n, entries);
  }
  Status CommitUpdate(UpdateStats*) override {
    return fail_ ? Status::IOError("injected commit failure")
                 : Status::OK();
  }
  void set_fail(bool fail) { fail_ = fail; }

 private:
  MemoryKnnStore base_;
  bool fail_ = false;
};

// A lock-mode delete whose store commit fails has already taken the
// point out of the set (see the ApplyUpdate contract). The hub index
// must lose it with the set, or hub queries keep naming it.
TEST(EngineHubTest, FailedDeleteCommitKeepsIndexEqualToSet) {
  auto w = MakeWorld(25, 3);
  auto labels = index::HubLabelBuilder::Build(*w->view).ValueOrDie();
  FailingCommitStore store(w->knn);
  EngineSources sources;
  sources.graph = &*w->view;
  sources.points = &w->points;
  sources.knn = &store;
  sources.hub_labels = &labels;
  sources.updates.points = &w->points;
  sources.updates.knn = &store;
  RknnEngine engine = RknnEngine::Create(sources).ValueOrDie();

  const PointId victim = w->points.LivePoints()[0];
  store.set_fail(true);
  auto del = engine.ApplyUpdate(UpdateSpec::DeletePoint(victim));
  EXPECT_TRUE(del.status().IsIOError()) << del.status().ToString();
  ASSERT_EQ(w->points.NodeOf(victim), kInvalidNode);

  for (NodeId n = 0; n < w->g.num_nodes(); ++n) {
    auto hub =
        engine.Run(QuerySpec::Monochromatic(Algorithm::kHubLabel, n, 2));
    auto oracle =
        engine.Run(QuerySpec::Monochromatic(Algorithm::kBruteForce, n, 2));
    ASSERT_TRUE(hub.ok()) << hub.status().ToString();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(Ids(*hub), Ids(*oracle)) << "node " << n;
    const std::vector<PointId> ids = Ids(*hub);
    EXPECT_EQ(std::count(ids.begin(), ids.end(), victim), 0)
        << "node " << n << " names the deleted point";
  }
}

// A DurableKnnStore on in-memory devices whose KnnFile starts out
// holding `seed`'s lists.
struct MemoryDurableStore {
  explicit MemoryDurableStore(const MemoryKnnStore& seed) {
    file.emplace(
        storage::KnnFile::Create(&data, seed.num_nodes(), seed.k())
            .ValueOrDie());
    wal.emplace(storage::Wal::Create(&log).ValueOrDie());
    pool.emplace(&data, /*capacity_pages=*/16);
    pool->AttachWal(&*wal);
    std::vector<NnEntry> list;
    for (NodeId n = 0; n < seed.num_nodes(); ++n) {
      EXPECT_TRUE(seed.Read(n, &list).ok());
      EXPECT_TRUE(file->Write(&*pool, n, list).ok());
    }
    store.emplace(&*file, &*pool, &*wal, /*store_id=*/1);
  }
  storage::MemoryDiskManager data;
  storage::MemoryDiskManager log;
  std::optional<storage::KnnFile> file;
  std::optional<storage::Wal> wal;
  std::optional<storage::BufferPool> pool;
  std::optional<DurableKnnStore> store;
};

// Rolling back an insert burns its point id (sets never reuse one), so
// the log of a durable store no longer reproduces the in-memory ids and
// the store must refuse further updates until recovered. An insert
// whose hub-index patch fails is rolled back too, so it must reach the
// store as an aborted update, for node and for edge points alike.
TEST(EngineHubTest, FailedInsertPatchAbortsTheDurableUpdate) {
  auto w = MakeWorld(25, 3);
  auto labels = index::HubLabelBuilder::Build(*w->view).ValueOrDie();
  FailingLabelStore flaky(&labels);

  {
    SCOPED_TRACE("node points");
    MemoryDurableStore durable(w->knn);
    EngineSources sources;
    sources.graph = &*w->view;
    sources.points = &w->points;
    sources.knn = &*durable.store;
    sources.hub_labels = &flaky;
    sources.updates.points = &w->points;
    sources.updates.knn = &*durable.store;
    RknnEngine engine = RknnEngine::Create(sources).ValueOrDie();
    NodeId free = kInvalidNode;
    for (NodeId n = 0; n < w->g.num_nodes() && free == kInvalidNode; ++n) {
      if (!w->points.Contains(n)) {
        free = n;
      }
    }
    ASSERT_NE(free, kInvalidNode);
    const std::vector<PointId> live_before = w->points.LivePoints();

    flaky.set_fail_node(free);
    auto ins = engine.ApplyUpdate(UpdateSpec::InsertPoint(free));
    EXPECT_EQ(ins.status().code(), StatusCode::kInternal);
    EXPECT_EQ(w->points.LivePoints(), live_before);
    EXPECT_TRUE(durable.store->poisoned());
    EXPECT_EQ(durable.store->last_commit_lsn(), 0u);
    flaky.set_fail_node(kInvalidNode);
    EXPECT_EQ(engine.ApplyUpdate(UpdateSpec::InsertPoint(free))
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
  }
  {
    SCOPED_TRACE("edge points");
    MemoryDurableStore durable(w->edge_knn);
    EngineSources sources;
    sources.graph = &*w->view;
    sources.edge_points = &w->edge_points;
    sources.knn = &*durable.store;
    sources.hub_labels = &flaky;
    sources.updates.edge_points = &w->edge_points;
    sources.updates.knn = &*durable.store;
    sources.updates.base_graph = &w->g;
    RknnEngine engine = RknnEngine::Create(sources).ValueOrDie();
    const Edge e = w->g.CollectEdges()[0];
    const std::vector<PointId> live_before = w->edge_points.LivePoints();

    flaky.set_fail_node(e.u);
    auto ins = engine.ApplyUpdate(
        UpdateSpec::InsertEdgePoint(EdgePosition{e.u, e.v, e.w / 3}));
    EXPECT_EQ(ins.status().code(), StatusCode::kInternal);
    EXPECT_EQ(w->edge_points.LivePoints(), live_before);
    EXPECT_TRUE(durable.store->poisoned());
    EXPECT_EQ(durable.store->last_commit_lsn(), 0u);
  }
}

TEST(EngineHubTest, ParseAndNamesIncludeHub) {
  EXPECT_EQ(ParseAlgorithm("hub").ValueOrDie(), Algorithm::kHubLabel);
  EXPECT_EQ(ParseAlgorithm("H").ValueOrDie(), Algorithm::kHubLabel);
  EXPECT_EQ(ParseAlgorithm("hub-label").ValueOrDie(),
            Algorithm::kHubLabel);
  EXPECT_STREQ(AlgorithmName(Algorithm::kHubLabel), "hub");
  EXPECT_STREQ(AlgorithmShortName(Algorithm::kHubLabel), "H");
}

// ---------------------------------------------------------------------
// Huge k. k >= |P| is a valid query (every reachable point answers), so
// k = INT_MAX must match brute force without sizing any allocation by k.

// Runs every kind x algorithm at k = INT_MAX and counts the queries that
// failed or disagreed with brute force. Eager-M must reject the query:
// k exceeds its materialized K, as any k > K does.
int IntMaxKMismatches(EngineWorld& w, const index::LabelStore& labels) {
  RknnEngine node_engine = HubNodeEngine(w, labels);
  RknnEngine edge_engine = HubEdgeEngine(w, labels);
  Rng rng(61);
  int mismatches = 0;
  for (QueryKind kind : kAllQueryKinds) {
    RknnEngine& engine =
        kind == QueryKind::kUnrestricted ? edge_engine : node_engine;
    for (Algorithm algo :
         {Algorithm::kEager, Algorithm::kEagerM, Algorithm::kLazy,
          Algorithm::kLazyEp, Algorithm::kHubLabel}) {
      for (QuerySpec spec :
           MakeSpecs(w, kind, algo, std::numeric_limits<int>::max(),
                     /*count=*/4, rng)) {
        auto got = engine.Run(spec);
        if (algo == Algorithm::kEagerM) {
          mismatches +=
              got.status().code() != StatusCode::kInvalidArgument;
          continue;
        }
        spec.algorithm = Algorithm::kBruteForce;
        auto want = engine.Run(spec);
        mismatches += !got.ok() || !want.ok() || Ids(*got) != Ids(*want);
      }
    }
  }
  return mismatches;
}

TEST(EngineTest, IntMaxKMatchesBruteForce) {
  auto w = MakeWorld(31, 3);
  auto labels = index::HubLabelBuilder::Build(*w->view).ValueOrDie();
  EXPECT_EQ(IntMaxKMismatches(*w, labels), 0);
}

// ASan and TSan reserve terabytes of shadow address space, which the
// address-space limit below would refuse.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GRNN_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GRNN_TEST_SANITIZED 1
#endif
#endif

// The same queries in a child capped at 4 GiB of address space: a
// k-sized reservation (16 GiB of distances at INT_MAX) throws
// std::bad_alloc there and kills the child.
TEST(EngineTest, IntMaxKFitsInFourGiBOfAddressSpace) {
#ifdef GRNN_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer shadow memory exceeds the address-space cap";
#else
  auto w = MakeWorld(31, 3);
  auto labels = index::HubLabelBuilder::Build(*w->view).ValueOrDie();
  EXPECT_EXIT(
      {
        rlimit limit{};
        if (getrlimit(RLIMIT_AS, &limit) != 0) {
          std::_Exit(2);
        }
        limit.rlim_cur = std::min<rlim_t>(limit.rlim_max, rlim_t{4} << 30);
        if (setrlimit(RLIMIT_AS, &limit) != 0) {
          std::_Exit(2);
        }
        std::_Exit(IntMaxKMismatches(*w, labels) == 0 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace grnn::core
