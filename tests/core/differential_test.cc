// Randomized differential harness for the whole engine surface.
//
// Each seed deterministically generates a world from one of the paper's
// graph families (grid / BRITE / road, src/gen/), places node points,
// sites and edge points, and fires QuerySpecs across every
// kind x algorithm x k x exclusion combination. Every result is checked
// against the independent brute-force oracle, and the full spec list is
// re-executed by concurrent threads calling Run, which must match the
// same list run serially through Run bit-for-bit (points, hosting nodes
// and distances).
//
// On failure, the gtest parameter is the seed: replay with
//   differential_test --gtest_filter='*/DifferentialHarness.*/<seed>'
//
// Registered under the `stress` ctest label (tier1 jobs skip it; the
// dedicated stress job and the TSan job run it).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force.h"
#include "core/engine.h"
#include "crash_harness.h"
#include "gen/brite.h"
#include "gen/grid.h"
#include "gen/points.h"
#include "gen/road_network.h"
#include "graph/network_view.h"
#include "index/hub_label.h"
#include "index/hub_point_index.h"
#include "index/label_file.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/graph_file.h"
#include "storage/stored_graph.h"
#include "test_fixtures.h"

namespace grnn::core {
namespace {

using testfix::Ids;
using testfix::RunSerially;

// Everything one seed's world serves queries from. Kept on the heap so
// engine source pointers stay stable.
struct World {
  graph::Graph g;
  std::optional<graph::GraphView> view;
  NodePointSet points{0};
  NodePointSet sites{0};
  EdgePointSet edge_points;
  MemoryKnnStore knn{0, 1};
  MemoryKnnStore site_knn{0, 1};
  MemoryKnnStore edge_knn{0, 1};
};

constexpr uint32_t kMaxK = 3;

graph::Graph GenerateGraph(uint64_t seed) {
  switch (seed % 3) {
    case 0: {
      gen::GridConfig cfg;
      cfg.rows = 8;
      cfg.cols = 8;
      cfg.avg_degree = 4.5;
      cfg.unit_weights = (seed % 2 == 0);  // exercise distance ties
      cfg.seed = seed;
      return gen::GenerateGrid(cfg).ValueOrDie();
    }
    case 1: {
      gen::BriteConfig cfg;
      cfg.num_nodes = 70;
      cfg.unit_weights = true;  // hop counts: ties abound
      cfg.seed = seed;
      return gen::GenerateBrite(cfg).ValueOrDie();
    }
    default: {
      gen::RoadConfig cfg;
      cfg.num_nodes = 80;
      cfg.seed = seed;
      return gen::GenerateRoadNetwork(cfg).ValueOrDie().g;
    }
  }
}

std::unique_ptr<World> MakeWorld(uint64_t seed) {
  auto w = std::make_unique<World>();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  w->g = GenerateGraph(seed);
  w->view.emplace(&w->g);
  const NodeId n = w->g.num_nodes();

  // Disjoint node placements: ~20% of nodes host points, 8 host sites.
  const size_t num_points = std::max<size_t>(4, n / 5);
  auto nodes = rng.SampleWithoutReplacement(n, num_points + 8);
  std::vector<NodeId> p_locs(nodes.begin(),
                             nodes.begin() + static_cast<long>(num_points));
  std::vector<NodeId> q_locs(nodes.begin() + static_cast<long>(num_points),
                             nodes.end());
  w->points = NodePointSet::FromLocations(n, p_locs).ValueOrDie();
  w->sites = NodePointSet::FromLocations(n, q_locs).ValueOrDie();

  // Edge points on ~12 distinct random edges.
  auto edges = w->g.CollectEdges();
  std::vector<EdgePosition> positions;
  for (uint64_t ei : rng.SampleWithoutReplacement(
           edges.size(), std::min<size_t>(12, edges.size()))) {
    const Edge& e = edges[ei];
    positions.push_back({e.u, e.v, rng.Uniform(0.0, e.w)});
  }
  w->edge_points = EdgePointSet::Create(w->g, positions).ValueOrDie();

  w->knn = MemoryKnnStore(n, kMaxK + 1);
  EXPECT_TRUE(BuildAllNn(*w->view, w->points, &w->knn).ok());
  w->site_knn = MemoryKnnStore(n, kMaxK + 1);
  EXPECT_TRUE(BuildAllNn(*w->view, w->sites, &w->site_knn).ok());
  w->edge_knn = MemoryKnnStore(n, kMaxK + 1);
  EXPECT_TRUE(
      UnrestrictedBuildAllNn(*w->view, w->edge_points, &w->edge_knn).ok());
  return w;
}

RknnEngine NodeEngine(World& w) {
  EngineSources sources;
  sources.graph = &*w.view;
  sources.points = &w.points;
  sources.sites = &w.sites;
  sources.knn = &w.knn;
  sources.site_knn = &w.site_knn;
  return RknnEngine::Create(sources).ValueOrDie();
}

RknnEngine EdgeEngine(World& w) {
  EngineSources sources;
  sources.graph = &*w.view;
  sources.edge_points = &w.edge_points;
  sources.knn = &w.edge_knn;
  return RknnEngine::Create(sources).ValueOrDie();
}

// Same engines with the live-update path unlocked: point-set mutation
// and incremental KNN maintenance flow through ApplyUpdate.
RknnEngine UpdatableNodeEngine(World& w) {
  EngineSources sources;
  sources.graph = &*w.view;
  sources.points = &w.points;
  sources.sites = &w.sites;
  sources.knn = &w.knn;
  sources.site_knn = &w.site_knn;
  sources.updates.points = &w.points;
  sources.updates.sites = &w.sites;
  sources.updates.knn = &w.knn;
  sources.updates.site_knn = &w.site_knn;
  return RknnEngine::Create(sources).ValueOrDie();
}

RknnEngine UpdatableEdgeEngine(World& w) {
  EngineSources sources;
  sources.graph = &*w.view;
  sources.edge_points = &w.edge_points;
  sources.knn = &w.edge_knn;
  sources.updates.edge_points = &w.edge_points;
  sources.updates.knn = &w.edge_knn;
  sources.updates.base_graph = &w.g;
  return RknnEngine::Create(sources).ValueOrDie();
}

// One spec of the given kind. `exclude_self` queries from a live data
// point / site and excludes it (the paper's workload); otherwise the
// target is an arbitrary location.
QuerySpec MakeSpec(World& w, QueryKind kind, Algorithm algo, int k,
                   bool exclude_self, Rng& rng) {
  switch (kind) {
    case QueryKind::kMonochromatic: {
      if (exclude_self) {
        auto live = w.points.LivePoints();
        PointId qp = live[rng.UniformInt(live.size())];
        return QuerySpec::Monochromatic(algo, w.points.NodeOf(qp), k, qp);
      }
      return QuerySpec::Monochromatic(
          algo, static_cast<NodeId>(rng.UniformInt(w.g.num_nodes())), k);
    }
    case QueryKind::kBichromatic: {
      if (exclude_self) {
        auto live = w.sites.LivePoints();
        PointId qs = live[rng.UniformInt(live.size())];
        return QuerySpec::Bichromatic(algo, w.sites.NodeOf(qs), k, qs);
      }
      return QuerySpec::Bichromatic(
          algo, static_cast<NodeId>(rng.UniformInt(w.g.num_nodes())), k);
    }
    case QueryKind::kContinuous: {
      std::vector<NodeId> route;
      NodeId cur = static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
      route.push_back(cur);
      for (int hop = 0; hop < 4; ++hop) {
        auto nbrs = w.g.Neighbors(cur);
        cur = nbrs[rng.UniformInt(nbrs.size())].node;
        route.push_back(cur);
      }
      // Routes query arbitrary locations; exclusion still exercises the
      // competitor filter.
      PointId excl = kInvalidPoint;
      if (exclude_self) {
        auto live = w.points.LivePoints();
        excl = live[rng.UniformInt(live.size())];
      }
      return QuerySpec::Continuous(algo, std::move(route), k, excl);
    }
    case QueryKind::kUnrestricted:
      break;
  }
  if (exclude_self) {
    auto live = w.edge_points.LivePoints();
    PointId qp = live[rng.UniformInt(live.size())];
    return QuerySpec::Unrestricted(algo, w.edge_points.PositionOf(qp), k,
                                   qp);
  }
  auto edges = w.g.CollectEdges();
  const Edge& e = edges[rng.UniformInt(edges.size())];
  return QuerySpec::Unrestricted(
      algo, EdgePosition{e.u, e.v, rng.Uniform(0.0, e.w)}, k);
}

// The full combination sweep for the kinds an engine serves:
// every algorithm x k in [1, kMaxK] x {exclude-self, arbitrary target},
// `reps` random targets each.
std::vector<QuerySpec> MakeSpecsForAlgos(World& w,
                                         std::vector<QueryKind> kinds,
                                         std::span<const Algorithm> algos,
                                         int reps, Rng& rng) {
  std::vector<QuerySpec> specs;
  for (QueryKind kind : kinds) {
    for (Algorithm algo : algos) {
      for (int k = 1; k <= static_cast<int>(kMaxK); ++k) {
        for (bool exclude_self : {true, false}) {
          for (int rep = 0; rep < reps; ++rep) {
            specs.push_back(
                MakeSpec(w, kind, algo, k, exclude_self, rng));
          }
        }
      }
    }
  }
  return specs;
}

std::vector<QuerySpec> MakeSpecs(World& w,
                                 std::vector<QueryKind> kinds,
                                 int reps, Rng& rng) {
  return MakeSpecsForAlgos(w, std::move(kinds), kAllAlgorithms, reps,
                           rng);
}

void CheckAgainstOracle(RknnEngine& engine,
                        const std::vector<QuerySpec>& specs,
                        uint64_t seed) {
  for (size_t i = 0; i < specs.size(); ++i) {
    auto result = engine.Run(specs[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    QuerySpec oracle_spec = specs[i];
    oracle_spec.algorithm = Algorithm::kBruteForce;
    auto oracle = engine.Run(oracle_spec);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(Ids(*result), Ids(*oracle))
        << "replay: seed=" << seed << " spec=" << i << " kind="
        << QueryKindName(specs[i].kind) << " algo="
        << AlgorithmName(specs[i].algorithm) << " k=" << specs[i].k
        << " exclude=" << specs[i].exclude_point;
  }
}

// Concurrent dispatch on one engine: 4 threads call Run over the whole
// spec list, each from its own offset so different queries overlap.
// Every answer must equal the serial run's bit for bit, and each
// thread's summed search counters must equal the serial run's:
// concurrent callers lose no stat and leak no workspace state into each
// other.
void CheckConcurrentRunsMatchSerial(RknnEngine& engine,
                                    const std::vector<QuerySpec>& specs,
                                    uint64_t seed) {
  auto serial = RunSerially(engine, specs);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::optional<RknnResult>>> got(
      kThreads, std::vector<std::optional<RknnResult>>(specs.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t j = 0; j < specs.size(); ++j) {
        const size_t i = (j + t * specs.size() / kThreads) % specs.size();
        auto r = engine.Run(specs[i]);
        if (r.ok()) {
          got[t][i] = std::move(*r);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    SearchStats sum;
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(got[t][i].has_value())
          << "replay: seed=" << seed << " spec=" << i << " thread=" << t;
      // Bit-for-bit: same points, same hosting nodes, same distances.
      EXPECT_EQ(got[t][i]->results, serial->results[i].results)
          << "replay: seed=" << seed << " spec=" << i << " thread=" << t;
      sum += got[t][i]->stats;
    }
    EXPECT_EQ(sum.nodes_expanded, serial->stats.nodes_expanded);
    EXPECT_EQ(sum.verify_calls, serial->stats.verify_calls);
    EXPECT_EQ(sum.heap_pushes, serial->stats.heap_pushes);
  }
}

// A node free in BOTH node populations (engine updates keep the
// points/sites placements disjoint, like the seeded worlds).
NodeId FreeNode(World& w, Rng& rng) {
  for (int attempt = 0; attempt < 256; ++attempt) {
    NodeId n = static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
    if (!w.points.Contains(n) && !w.sites.Contains(n)) {
      return n;
    }
  }
  return kInvalidNode;
}

// Applies one random engine update per iteration: inserts/deletes over
// points, sites and edge points, guarded so every population keeps at
// least three live members (the spec generator samples from them).
void ApplyRandomBurst(World& w, RknnEngine& node_engine,
                      RknnEngine& edge_engine, size_t ops, Rng& rng) {
  auto edges = w.g.CollectEdges();
  for (size_t i = 0; i < ops; ++i) {
    switch (rng.UniformInt(6)) {
      case 0: {  // insert data point
        NodeId n = FreeNode(w, rng);
        if (n != kInvalidNode) {
          ASSERT_TRUE(
              node_engine.ApplyUpdate(UpdateSpec::InsertPoint(n)).ok());
        }
        break;
      }
      case 1: {  // delete data point
        auto live = w.points.LivePoints();
        if (live.size() > 3) {
          PointId victim = live[rng.UniformInt(live.size())];
          ASSERT_TRUE(
              node_engine.ApplyUpdate(UpdateSpec::DeletePoint(victim))
                  .ok());
        }
        break;
      }
      case 2: {  // insert site
        NodeId n = FreeNode(w, rng);
        if (n != kInvalidNode) {
          ASSERT_TRUE(
              node_engine.ApplyUpdate(UpdateSpec::InsertSite(n)).ok());
        }
        break;
      }
      case 3: {  // delete site
        auto live = w.sites.LivePoints();
        if (live.size() > 3) {
          PointId victim = live[rng.UniformInt(live.size())];
          ASSERT_TRUE(
              node_engine.ApplyUpdate(UpdateSpec::DeleteSite(victim))
                  .ok());
        }
        break;
      }
      case 4: {  // insert edge point
        const Edge& e = edges[rng.UniformInt(edges.size())];
        ASSERT_TRUE(edge_engine
                        .ApplyUpdate(UpdateSpec::InsertEdgePoint(
                            {e.u, e.v, rng.Uniform(0.0, e.w)}))
                        .ok());
        break;
      }
      default: {  // delete edge point
        auto live = w.edge_points.LivePoints();
        if (live.size() > 3) {
          PointId victim = live[rng.UniformInt(live.size())];
          ASSERT_TRUE(
              edge_engine.ApplyUpdate(UpdateSpec::DeleteEdgePoint(victim))
                  .ok());
        }
        break;
      }
    }
  }
}

// The maintenance oracle: the incrementally maintained store must hold,
// for every node, the same nearest-neighbor DISTANCE multiset as a
// from-scratch rebuild over the mutated world. (Point ids can
// legitimately differ at tied boundary distances — unit-weight worlds
// tie constantly — but the k nearest distances are unique.)
void CheckStoreMatchesRebuild(const KnnStore& maintained,
                              const KnnStore& rebuilt, NodeId num_nodes,
                              uint64_t seed, const char* label) {
  std::vector<NnEntry> have, want;
  for (NodeId n = 0; n < num_nodes; ++n) {
    ASSERT_TRUE(maintained.Read(n, &have).ok());
    ASSERT_TRUE(rebuilt.Read(n, &want).ok());
    ASSERT_EQ(have.size(), want.size())
        << "replay: seed=" << seed << " store=" << label << " node=" << n;
    for (size_t i = 0; i < have.size(); ++i) {
      EXPECT_NEAR(have[i].dist, want[i].dist, 1e-9)
          << "replay: seed=" << seed << " store=" << label << " node="
          << n << " slot=" << i;
    }
  }
}

class DifferentialHarness : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialHarness, EveryCombinationMatchesOracleAndParallel) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  SCOPED_TRACE("replay: differential_test seed=" + std::to_string(seed));
  auto w = MakeWorld(seed);
  Rng rng(seed * 31 + 7);

  RknnEngine node_engine = NodeEngine(*w);
  auto node_specs = MakeSpecs(
      *w,
      {QueryKind::kMonochromatic, QueryKind::kBichromatic,
       QueryKind::kContinuous},
      /*reps=*/2, rng);
  CheckAgainstOracle(node_engine, node_specs, seed);
  CheckConcurrentRunsMatchSerial(node_engine, node_specs, seed);

  RknnEngine edge_engine = EdgeEngine(*w);
  auto edge_specs = MakeSpecs(
      *w, {QueryKind::kUnrestricted, QueryKind::kContinuous},
      /*reps=*/2, rng);
  CheckAgainstOracle(edge_engine, edge_specs, seed);
  CheckConcurrentRunsMatchSerial(edge_engine, edge_specs, seed);
}

// The update-aware oracle: seeded bursts of engine inserts/deletes
// mutate every population through ApplyUpdate (which incrementally
// maintains the KNN stores, Figs 9-11), and after each burst
//   (a) every maintained store must match a from-scratch BuildAllNn
//       rebuild of the mutated world (distance multisets per node), and
//   (b) the full kind x algorithm x k matrix must still match the
//       brute-force oracle, serially and under concurrent Run
//       callers.
TEST_P(DifferentialHarness, UpdateBurstsKeepStoresAndMatrixExact) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  SCOPED_TRACE("replay: differential_test seed=" + std::to_string(seed) +
               " (update phase)");
  auto w = MakeWorld(seed);
  Rng rng(seed * 131 + 29);

  RknnEngine node_engine = UpdatableNodeEngine(*w);
  RknnEngine edge_engine = UpdatableEdgeEngine(*w);

  constexpr int kBursts = 3;
  constexpr size_t kOpsPerBurst = 10;
  for (int burst = 0; burst < kBursts; ++burst) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    ApplyRandomBurst(*w, node_engine, edge_engine, kOpsPerBurst, rng);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }

    // (a) maintained stores vs from-scratch rebuilds of the mutated
    // world.
    const NodeId n = w->g.num_nodes();
    MemoryKnnStore fresh_knn(n, kMaxK + 1);
    ASSERT_TRUE(BuildAllNn(*w->view, w->points, &fresh_knn).ok());
    CheckStoreMatchesRebuild(w->knn, fresh_knn, n, seed, "points");
    MemoryKnnStore fresh_site_knn(n, kMaxK + 1);
    ASSERT_TRUE(BuildAllNn(*w->view, w->sites, &fresh_site_knn).ok());
    CheckStoreMatchesRebuild(w->site_knn, fresh_site_knn, n, seed,
                             "sites");
    MemoryKnnStore fresh_edge_knn(n, kMaxK + 1);
    ASSERT_TRUE(
        UnrestrictedBuildAllNn(*w->view, w->edge_points, &fresh_edge_knn)
            .ok());
    CheckStoreMatchesRebuild(w->edge_knn, fresh_edge_knn, n, seed,
                             "edge_points");

    // (b) the full query matrix over the mutated world.
    auto node_specs = MakeSpecs(
        *w,
        {QueryKind::kMonochromatic, QueryKind::kBichromatic,
         QueryKind::kContinuous},
        /*reps=*/1, rng);
    CheckAgainstOracle(node_engine, node_specs, seed);
    CheckConcurrentRunsMatchSerial(node_engine, node_specs, seed);
    auto edge_specs = MakeSpecs(
        *w, {QueryKind::kUnrestricted, QueryKind::kContinuous},
        /*reps=*/1, rng);
    CheckAgainstOracle(edge_engine, edge_specs, seed);
    CheckConcurrentRunsMatchSerial(edge_engine, edge_specs, seed);
  }

  // Update accounting survived the bursts: every applied op was counted.
  EXPECT_GT(node_engine.lifetime_stats().updates +
                edge_engine.lifetime_stats().updates,
            0u);
}

// The storage-equivalence phase: the same spec matrix answered through
// a disk-backed StoredGraph view must match the in-memory GraphView
// engine bit-for-bit (points, hosting nodes, distances), serially and
// under concurrent Run callers.
struct StoredWorld {
  std::unique_ptr<storage::MemoryDiskManager> disk;
  std::unique_ptr<storage::GraphFile> file;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<storage::StoredGraph> view;
};

StoredWorld MakeStoredWorld(const graph::Graph& g) {
  StoredWorld sw;
  // 512-byte pages so the small worlds still span many pages, behind a
  // 64-frame pool.
  sw.disk = std::make_unique<storage::MemoryDiskManager>(512);
  sw.file = std::make_unique<storage::GraphFile>(
      storage::GraphFile::Build(g, sw.disk.get()).ValueOrDie());
  sw.pool = std::make_unique<storage::BufferPool>(sw.disk.get(), 64);
  sw.view =
      std::make_unique<storage::StoredGraph>(sw.file.get(), sw.pool.get());
  return sw;
}

TEST_P(DifferentialHarness, StoredGraphMatchesMemoryEngineBitForBit) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  SCOPED_TRACE("replay: differential_test seed=" + std::to_string(seed) +
               " (stored phase)");
  auto w = MakeWorld(seed);
  Rng rng(seed * 977 + 13);

  RknnEngine mem_node = NodeEngine(*w);
  RknnEngine mem_edge = EdgeEngine(*w);
  auto node_specs = MakeSpecs(
      *w,
      {QueryKind::kMonochromatic, QueryKind::kBichromatic,
       QueryKind::kContinuous},
      /*reps=*/1, rng);
  auto edge_specs = MakeSpecs(
      *w, {QueryKind::kUnrestricted, QueryKind::kContinuous},
      /*reps=*/1, rng);
  auto node_want = RunSerially(mem_node, node_specs);
  ASSERT_TRUE(node_want.ok());
  auto edge_want = RunSerially(mem_edge, edge_specs);
  ASSERT_TRUE(edge_want.ok());

  StoredWorld sw = MakeStoredWorld(w->g);

  EngineSources node_sources;
  node_sources.graph = sw.view.get();
  node_sources.points = &w->points;
  node_sources.sites = &w->sites;
  node_sources.knn = &w->knn;
  node_sources.site_knn = &w->site_knn;
  node_sources.pool = sw.pool.get();
  RknnEngine stored_node = RknnEngine::Create(node_sources).ValueOrDie();

  auto serial = RunSerially(stored_node, node_specs);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (size_t i = 0; i < node_specs.size(); ++i) {
    EXPECT_EQ(serial->results[i].results, node_want->results[i].results)
        << "spec=" << i;
  }
  EXPECT_EQ(sw.pool->num_pinned(), 0u);
  CheckConcurrentRunsMatchSerial(stored_node, node_specs, seed);
  EXPECT_EQ(sw.pool->num_pinned(), 0u);

  EngineSources edge_sources;
  edge_sources.graph = sw.view.get();
  edge_sources.edge_points = &w->edge_points;
  edge_sources.knn = &w->edge_knn;
  edge_sources.pool = sw.pool.get();
  RknnEngine stored_edge = RknnEngine::Create(edge_sources).ValueOrDie();
  auto edge_serial = RunSerially(stored_edge, edge_specs);
  ASSERT_TRUE(edge_serial.ok()) << edge_serial.status().ToString();
  for (size_t i = 0; i < edge_specs.size(); ++i) {
    EXPECT_EQ(edge_serial->results[i].results, edge_want->results[i].results)
        << "spec=" << i;
  }
  CheckConcurrentRunsMatchSerial(stored_edge, edge_specs, seed);
  EXPECT_EQ(sw.pool->num_pinned(), 0u);
}

// Bit-for-bit comparison of two hub point indexes: every counter and
// every per-hub (dist, point)-sorted run identical.
void ExpectHubIndexesIdentical(const index::HubPointIndex& got,
                               const index::HubPointIndex& want,
                               const char* what) {
  SCOPED_TRACE(what);
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

// The hub-label phase: the full kind matrix — monochromatic,
// bichromatic, and continuous through the node engine; unrestricted
// and continuous through the edge engine — x k x exclusion through
// Algorithm::kHubLabel must match the brute-force oracle, from the
// in-memory HubLabelIndex AND from a LabelFile reopened off disk,
// serially and under concurrent Run callers, with the two label
// backends bit-for-bit identical to each other. Then seeded update
// bursts flow through updatable engines: every update must succeed and
// keep the label path serving oracle-exact answers, and a test-side
// mirror patched with the same splices must equal a from-scratch
// HubPointIndex::Build over the mutated sets bit for bit.
TEST_P(DifferentialHarness, HubLabelMatchesOracleFromBothLabelBackends) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  SCOPED_TRACE("replay: differential_test seed=" + std::to_string(seed) +
               " (hub-label phase)");
  auto w = MakeWorld(seed);
  Rng rng(seed * 523 + 3);

  auto labels = index::HubLabelBuilder::Build(*w->view).ValueOrDie();

  EngineSources sources;
  sources.graph = &*w->view;
  sources.points = &w->points;
  sources.sites = &w->sites;
  sources.knn = &w->knn;
  sources.site_knn = &w->site_knn;
  sources.hub_labels = &labels;
  RknnEngine mem_engine = RknnEngine::Create(sources).ValueOrDie();

  constexpr Algorithm kHubOnly[] = {Algorithm::kHubLabel};
  const std::vector<QueryKind> kNodeKinds{QueryKind::kMonochromatic,
                                          QueryKind::kBichromatic,
                                          QueryKind::kContinuous};
  const std::vector<QueryKind> kEdgeKinds{QueryKind::kUnrestricted,
                                          QueryKind::kContinuous};
  auto specs =
      MakeSpecsForAlgos(*w, kNodeKinds, kHubOnly, /*reps=*/2, rng);
  CheckAgainstOracle(mem_engine, specs, seed);
  CheckConcurrentRunsMatchSerial(mem_engine, specs, seed);
  auto mem_serial = RunSerially(mem_engine, specs);
  ASSERT_TRUE(mem_serial.ok());
  // The label path actually served these (no silent fallback).
  EXPECT_EQ(mem_serial->stats.hub_fallbacks, 0u);
  EXPECT_GT(mem_serial->stats.label_entries, 0u);

  // Edge engine over the same labels: unrestricted queries walk the
  // edge-resident occurrence index; continuous routes sweep it per node.
  EngineSources edge_sources;
  edge_sources.graph = &*w->view;
  edge_sources.edge_points = &w->edge_points;
  edge_sources.knn = &w->edge_knn;
  edge_sources.hub_labels = &labels;
  RknnEngine mem_edge = RknnEngine::Create(edge_sources).ValueOrDie();
  auto edge_specs =
      MakeSpecsForAlgos(*w, kEdgeKinds, kHubOnly, /*reps=*/2, rng);
  CheckAgainstOracle(mem_edge, edge_specs, seed);
  CheckConcurrentRunsMatchSerial(mem_edge, edge_specs, seed);
  auto mem_edge_serial = RunSerially(mem_edge, edge_specs);
  ASSERT_TRUE(mem_edge_serial.ok());
  EXPECT_EQ(mem_edge_serial->stats.hub_fallbacks, 0u);
  EXPECT_GT(mem_edge_serial->stats.label_entries, 0u);

  // Stored-label engines: persist, reopen, serve through the pool.
  auto disk = std::make_unique<storage::MemoryDiskManager>(512);
  auto built = index::LabelFile::Build(labels, disk.get()).ValueOrDie();
  auto file = std::make_unique<index::LabelFile>(
      index::LabelFile::Open(disk.get(), built.first_page())
          .ValueOrDie());
  auto pool = std::make_unique<storage::BufferPool>(disk.get(), 64);
  index::StoredLabelIndex stored(file.get(), pool.get());
  sources.hub_labels = &stored;
  sources.pool = pool.get();
  RknnEngine stored_engine = RknnEngine::Create(sources).ValueOrDie();
  edge_sources.hub_labels = &stored;
  edge_sources.pool = pool.get();
  RknnEngine stored_edge = RknnEngine::Create(edge_sources).ValueOrDie();

  auto stored_serial = RunSerially(stored_engine, specs);
  ASSERT_TRUE(stored_serial.ok()) << stored_serial.status().ToString();
  for (size_t i = 0; i < specs.size(); ++i) {
    // Bit-for-bit across label backends: same bytes, same arithmetic.
    EXPECT_EQ(stored_serial->results[i].results,
              mem_serial->results[i].results)
        << "spec=" << i;
  }
  EXPECT_EQ(pool->num_pinned(), 0u);
  CheckConcurrentRunsMatchSerial(stored_engine, specs, seed);
  EXPECT_EQ(pool->num_pinned(), 0u);

  auto stored_edge_serial = RunSerially(stored_edge, edge_specs);
  ASSERT_TRUE(stored_edge_serial.ok())
      << stored_edge_serial.status().ToString();
  for (size_t i = 0; i < edge_specs.size(); ++i) {
    EXPECT_EQ(stored_edge_serial->results[i].results,
              mem_edge_serial->results[i].results)
        << "edge spec=" << i;
  }
  CheckConcurrentRunsMatchSerial(stored_edge, edge_specs, seed);
  EXPECT_EQ(pool->num_pinned(), 0u);

  // Incremental-maintenance bursts: every update splices its domain's
  // hub index, so the label path never goes dark. A test-side
  // mirror receives the same splices and must stay bit-for-bit equal
  // to a from-scratch Build over the mutated sets.
  EngineSources up_sources;
  up_sources.graph = &*w->view;
  up_sources.points = &w->points;
  up_sources.sites = &w->sites;
  up_sources.knn = &w->knn;
  up_sources.site_knn = &w->site_knn;
  up_sources.hub_labels = &labels;
  up_sources.updates.points = &w->points;
  up_sources.updates.sites = &w->sites;
  up_sources.updates.knn = &w->knn;
  up_sources.updates.site_knn = &w->site_knn;
  RknnEngine up_node = RknnEngine::Create(up_sources).ValueOrDie();
  EngineSources up_edge_sources;
  up_edge_sources.graph = &*w->view;
  up_edge_sources.edge_points = &w->edge_points;
  up_edge_sources.knn = &w->edge_knn;
  up_edge_sources.hub_labels = &labels;
  up_edge_sources.updates.edge_points = &w->edge_points;
  up_edge_sources.updates.knn = &w->edge_knn;
  up_edge_sources.updates.base_graph = &w->g;
  RknnEngine up_edge = RknnEngine::Create(up_edge_sources).ValueOrDie();

  auto mirror_points =
      index::HubPointIndex::Build(labels, w->points).ValueOrDie();
  auto mirror_sites =
      index::HubPointIndex::Build(labels, w->sites).ValueOrDie();
  auto mirror_edge =
      index::HubPointIndex::Build(labels, w->edge_points).ValueOrDie();
  auto edges = w->g.CollectEdges();

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("burst round " + std::to_string(round));
    // Points: one insert at a free node, one delete of a live point
    // (its host captured BEFORE the tombstone forgets it).
    NodeId free = FreeNode(*w, rng);
    ASSERT_NE(free, kInvalidNode);
    auto pin = up_node.ApplyUpdate(UpdateSpec::InsertPoint(free));
    ASSERT_TRUE(pin.ok());
    ASSERT_TRUE(mirror_points.InsertPoint(labels, pin->point, free).ok());
    auto live = w->points.LivePoints();
    PointId victim = live[rng.UniformInt(live.size())];
    NodeId victim_host = w->points.NodeOf(victim);
    ASSERT_TRUE(
        up_node.ApplyUpdate(UpdateSpec::DeletePoint(victim)).ok());
    ASSERT_TRUE(
        mirror_points.ErasePoint(labels, victim, victim_host).ok());

    // Sites: same dance through the bichromatic population.
    NodeId sfree = FreeNode(*w, rng);
    ASSERT_NE(sfree, kInvalidNode);
    auto sin = up_node.ApplyUpdate(UpdateSpec::InsertSite(sfree));
    ASSERT_TRUE(sin.ok());
    ASSERT_TRUE(mirror_sites.InsertPoint(labels, sin->point, sfree).ok());
    auto slive = w->sites.LivePoints();
    PointId svictim = slive[rng.UniformInt(slive.size())];
    NodeId svictim_host = w->sites.NodeOf(svictim);
    ASSERT_TRUE(
        up_node.ApplyUpdate(UpdateSpec::DeleteSite(svictim)).ok());
    ASSERT_TRUE(
        mirror_sites.ErasePoint(labels, svictim, svictim_host).ok());

    // Edge points: insert reads the canonicalized position back from
    // the set; delete captures position + weight pre-tombstone.
    const Edge& e = edges[rng.UniformInt(edges.size())];
    auto ein = up_edge.ApplyUpdate(UpdateSpec::InsertEdgePoint(
        EdgePosition{e.u, e.v, rng.Uniform(0.0, e.w)}));
    ASSERT_TRUE(ein.ok());
    ASSERT_TRUE(mirror_edge
                    .InsertEdgePoint(
                        labels, ein->point,
                        w->edge_points.PositionOf(ein->point),
                        w->edge_points.EdgeWeightOfPoint(ein->point))
                    .ok());
    auto elive = w->edge_points.LivePoints();
    PointId evictim = elive[rng.UniformInt(elive.size())];
    EdgePosition evictim_pos = w->edge_points.PositionOf(evictim);
    Weight evictim_w = w->edge_points.EdgeWeightOfPoint(evictim);
    ASSERT_TRUE(
        up_edge.ApplyUpdate(UpdateSpec::DeleteEdgePoint(evictim)).ok());
    ASSERT_TRUE(mirror_edge
                    .EraseEdgePoint(labels, evictim, evictim_pos,
                                    evictim_w)
                    .ok());

    // The spliced mirrors equal a from-scratch Build, bit for bit.
    ExpectHubIndexesIdentical(
        mirror_points,
        index::HubPointIndex::Build(labels, w->points).ValueOrDie(),
        "points");
    ExpectHubIndexesIdentical(
        mirror_sites,
        index::HubPointIndex::Build(labels, w->sites).ValueOrDie(),
        "sites");
    ExpectHubIndexesIdentical(
        mirror_edge,
        index::HubPointIndex::Build(labels, w->edge_points).ValueOrDie(),
        "edge_points");

    // Label-served, oracle-exact over the mutated world.
    auto node_specs =
        MakeSpecsForAlgos(*w, kNodeKinds, kHubOnly, /*reps=*/1, rng);
    CheckAgainstOracle(up_node, node_specs, seed);
    auto node_serial = RunSerially(up_node, node_specs);
    ASSERT_TRUE(node_serial.ok());
    EXPECT_EQ(node_serial->stats.hub_fallbacks, 0u);
    EXPECT_GT(node_serial->stats.label_entries, 0u);
    auto burst_edge_specs =
        MakeSpecsForAlgos(*w, kEdgeKinds, kHubOnly, /*reps=*/1, rng);
    CheckAgainstOracle(up_edge, burst_edge_specs, seed);
    auto edge_serial = RunSerially(up_edge, burst_edge_specs);
    ASSERT_TRUE(edge_serial.ok());
    EXPECT_EQ(edge_serial->stats.hub_fallbacks, 0u);
    EXPECT_GT(edge_serial->stats.label_entries, 0u);
  }

  auto final_node_specs =
      MakeSpecsForAlgos(*w, kNodeKinds, kHubOnly, /*reps=*/1, rng);
  auto final_edge_specs =
      MakeSpecsForAlgos(*w, kEdgeKinds, kHubOnly, /*reps=*/1, rng);
  CheckConcurrentRunsMatchSerial(up_node, final_node_specs, seed);
  CheckConcurrentRunsMatchSerial(up_edge, final_edge_specs, seed);
}

// The hub-order phase: labels built with the PARTITION hub order must
// serve the full kind matrix oracle-exactly through node and edge
// engines — and a LabelFile reopened off disk must answer bit-for-bit
// the same as the in-memory index. The hub order changes label CONTENT,
// so this phase proves engine correctness is order-invariant, not an
// artifact of the default degree order.
TEST_P(DifferentialHarness, PartitionOrderedLabelsMatchOracle) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  SCOPED_TRACE("replay: differential_test seed=" + std::to_string(seed) +
               " (partition-order phase)");
  auto w = MakeWorld(seed);
  Rng rng(seed * 769 + 11);

  index::HubLabelBuildOptions build_opts;
  build_opts.order = index::HubOrder::kPartition;
  auto labels =
      index::HubLabelBuilder::Build(*w->view, build_opts).ValueOrDie();

  EngineSources sources;
  sources.graph = &*w->view;
  sources.points = &w->points;
  sources.sites = &w->sites;
  sources.knn = &w->knn;
  sources.site_knn = &w->site_knn;
  sources.hub_labels = &labels;
  RknnEngine mem_engine = RknnEngine::Create(sources).ValueOrDie();

  constexpr Algorithm kHubOnly[] = {Algorithm::kHubLabel};
  const std::vector<QueryKind> kNodeKinds{QueryKind::kMonochromatic,
                                          QueryKind::kBichromatic,
                                          QueryKind::kContinuous};
  const std::vector<QueryKind> kEdgeKinds{QueryKind::kUnrestricted,
                                          QueryKind::kContinuous};
  auto specs =
      MakeSpecsForAlgos(*w, kNodeKinds, kHubOnly, /*reps=*/2, rng);
  CheckAgainstOracle(mem_engine, specs, seed);
  CheckConcurrentRunsMatchSerial(mem_engine, specs, seed);
  auto mem_serial = RunSerially(mem_engine, specs);
  ASSERT_TRUE(mem_serial.ok());
  EXPECT_EQ(mem_serial->stats.hub_fallbacks, 0u);
  EXPECT_GT(mem_serial->stats.label_entries, 0u);

  EngineSources edge_sources;
  edge_sources.graph = &*w->view;
  edge_sources.edge_points = &w->edge_points;
  edge_sources.knn = &w->edge_knn;
  edge_sources.hub_labels = &labels;
  RknnEngine mem_edge = RknnEngine::Create(edge_sources).ValueOrDie();
  auto edge_specs =
      MakeSpecsForAlgos(*w, kEdgeKinds, kHubOnly, /*reps=*/2, rng);
  CheckAgainstOracle(mem_edge, edge_specs, seed);
  CheckConcurrentRunsMatchSerial(mem_edge, edge_specs, seed);
  auto mem_edge_serial = RunSerially(mem_edge, edge_specs);
  ASSERT_TRUE(mem_edge_serial.ok());
  EXPECT_EQ(mem_edge_serial->stats.hub_fallbacks, 0u);

  // Stored labels reopened off disk: the decoded blobs must reproduce
  // the memory answers exactly.
  auto disk = std::make_unique<storage::MemoryDiskManager>(512);
  auto built = index::LabelFile::Build(labels, disk.get()).ValueOrDie();
  auto file = std::make_unique<index::LabelFile>(
      index::LabelFile::Open(disk.get(), built.first_page())
          .ValueOrDie());
  auto pool = std::make_unique<storage::BufferPool>(disk.get(), 64);
  index::StoredLabelIndex stored(file.get(), pool.get());
  sources.hub_labels = &stored;
  sources.pool = pool.get();
  RknnEngine stored_engine = RknnEngine::Create(sources).ValueOrDie();
  edge_sources.hub_labels = &stored;
  edge_sources.pool = pool.get();
  RknnEngine stored_edge = RknnEngine::Create(edge_sources).ValueOrDie();

  auto stored_serial = RunSerially(stored_engine, specs);
  ASSERT_TRUE(stored_serial.ok()) << stored_serial.status().ToString();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(stored_serial->results[i].results,
              mem_serial->results[i].results)
        << "spec=" << i;
  }
  CheckConcurrentRunsMatchSerial(stored_engine, specs, seed);
  auto stored_edge_serial = RunSerially(stored_edge, edge_specs);
  ASSERT_TRUE(stored_edge_serial.ok());
  for (size_t i = 0; i < edge_specs.size(); ++i) {
    EXPECT_EQ(stored_edge_serial->results[i].results,
              mem_edge_serial->results[i].results)
        << "edge spec=" << i;
  }
  EXPECT_EQ(pool->num_pinned(), 0u);
}

// The crash/recover phase: a seeded update burst over journaled stores
// is killed at an injected write point (a quartile of the world's
// enumerated WritePage/Sync sequence — the dedicated crash_recovery_test
// sweeps every point; here each differential seed samples three), the
// surviving devices are reopened, redo recovery replays the log, and
// the recovered world must (a) contain every acknowledged update,
// (b) match a from-scratch store rebuild, (c) recover idempotently,
// and (d) answer the full kind x algorithm matrix oracle-exactly.
TEST_P(DifferentialHarness, CrashRecoveryRestoresAckedStateExactly) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  SCOPED_TRACE("replay: differential_test seed=" + std::to_string(seed) +
               " (crash phase)");
  using core::testing::CrashWorldOptions;
  using core::testing::RunCrashCycle;
  using storage::testing::CrashSurvival;
  using storage::testing::FaultAction;

  CrashWorldOptions opts;
  opts.seed = seed;
  opts.ops = 30;
  const uint64_t n = core::testing::CountWritePoints(opts);
  ASSERT_GT(n, 0u);
  for (uint64_t quartile = 1; quartile <= 3; ++quartile) {
    const uint64_t point = quartile * n / 4;
    const CrashSurvival survival = quartile % 2 == 0
                                       ? CrashSurvival::kKeepUnsynced
                                       : CrashSurvival::kLoseUnsynced;
    const Status s = RunCrashCycle(opts, point, FaultAction::kFailStop,
                                   survival, /*check_queries=*/true);
    ASSERT_TRUE(s.ok()) << "seed " << seed << " crash point " << point
                        << "/" << n << ": " << s.ToString();
  }
}

// 6 seeds x (3 + 2) kinds x 4 algorithms x 3 k x 2 exclusion modes x
// 2 reps = 2880 oracle-checked queries, each additionally replayed
// by 4 concurrent Run threads — plus, per seed, 3 update bursts
// each re-verified against rebuilt stores and the reduced (reps=1)
// matrix, a storage-equivalence phase replaying the matrix through
// StoredGraph engines, a hub-label phase holding
// Algorithm::kHubLabel (memory + reopened stored labels, serial +
// concurrent, staleness probe included) to the same oracle, and a
// partition-order phase re-running that matrix over separator-ordered
// labels served from memory and from a reopened LabelFile.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialHarness,
                         ::testing::Range(1, 7),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace grnn::core
