// Pins the work each query algorithm and each update maintenance path
// does. A fixed, seeded list of queries runs per (engine, kind,
// algorithm) on a 24x24 grid, and the summed SearchStats (every field)
// must equal the constants below; on the stored engines, so must the
// buffer pool's logical and physical reads (a one-shard LRU pool,
// invalidated before each query). Likewise a seeded sequence of inserts
// and deletes runs per (engine, population), and the summed UpdateStats
// (every field, plus the pool's reads on the stored engine) must equal
// the update rows.
//
// The constants describe the algorithms as they are. Any change to an
// algorithm's work, a saving included, updates the affected rows in the
// same commit; a change that only moves code leaves every row as it is.
// On a mismatch the test prints the rows as they now read.
//
// This pins single algorithms on one small world; it does not replace
// a count gate over the benchmark's workloads (perfbench/).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "gen/grid.h"
#include "gen/points.h"
#include "index/hub_label.h"

namespace grnn::core {
namespace {

// One row: the summed work of one (engine, kind, algorithm) query list.
struct Counts {
  const char* engine;
  const char* kind;
  const char* algo;
  uint64_t nodes_expanded, nodes_scanned, nodes_pruned, range_nn_calls,
      verify_calls, knn_list_reads, heap_pushes, shortcut_accepts,
      label_entries, hub_fallbacks;
  uint64_t logical_reads, physical_reads;  // stored engines only
};

// clang-format off
const Counts kExpected[] = {
    {"memory-node", "mono", "E", 3067, 76303, 1210, 2977, 709, 0, 102954, 0, 0, 0, 0, 0},
    {"memory-node", "mono", "L", 31402, 110274, 3109, 0, 3149, 0, 191620, 0, 0, 0, 0, 0},
    {"memory-node", "mono", "LP", 4898, 76015, 1919, 0, 467, 0, 261805, 0, 0, 0, 0, 0},
    {"memory-node", "mono", "EM", 3067, 19085, 1210, 0, 627, 3776, 31426, 82, 0, 0, 0, 0},
    {"memory-node", "mono", "H", 0, 0, 0, 0, 5115, 0, 0, 0, 845735, 0, 0, 0},
    {"memory-node", "bi", "E", 5242, 182380, 1606, 5152, 0, 0, 220077, 0, 0, 0, 0, 0},
    {"memory-node", "bi", "L", 5795, 92536, 2237, 507, 0, 0, 304318, 0, 0, 0, 0, 0},
    {"memory-node", "bi", "LP", 5795, 92536, 2237, 507, 0, 0, 304318, 0, 0, 0, 0, 0},
    {"memory-node", "bi", "EM", 5242, 5242, 1606, 0, 0, 5242, 5938, 0, 0, 0, 0, 0},
    {"memory-node", "bi", "H", 0, 0, 0, 0, 5130, 0, 0, 0, 914927, 0, 0, 0},
    {"memory-node", "route", "E", 1545, 33377, 563, 1425, 339, 0, 45291, 0, 0, 0, 0, 0},
    {"memory-node", "route", "L", 10446, 35568, 1006, 0, 1050, 0, 61835, 0, 0, 0, 0, 0},
    {"memory-node", "route", "LP", 2264, 29663, 843, 0, 222, 0, 100518, 0, 0, 0, 0, 0},
    {"memory-node", "route", "EM", 1545, 8228, 563, 0, 299, 1884, 13675, 40, 0, 0, 0, 0},
    {"memory-node", "route", "H", 0, 0, 0, 0, 1710, 0, 0, 0, 298558, 0, 0, 0},
    {"memory-edge", "position", "E", 2140, 56400, 910, 2140, 529, 0, 77061, 0, 0, 0, 0, 0},
    {"memory-edge", "position", "L", 16815, 68662, 2275, 0, 1996, 0, 117971, 0, 0, 0, 0, 0},
    {"memory-edge", "position", "LP", 3096, 48309, 1298, 0, 368, 0, 162625, 0, 0, 0, 0, 0},
    {"memory-edge", "position", "EM", 2140, 15090, 910, 0, 529, 2140, 24340, 0, 0, 0, 0, 0},
    {"memory-edge", "position", "H", 0, 0, 0, 0, 3390, 0, 0, 0, 669964, 0, 0, 0},
    {"memory-edge", "route", "E", 1621, 34826, 594, 1501, 348, 0, 47272, 0, 0, 0, 0, 0},
    {"memory-edge", "route", "L", 8402, 33673, 1135, 0, 1045, 0, 57914, 0, 0, 0, 0, 0},
    {"memory-edge", "route", "LP", 1959, 26160, 752, 0, 240, 0, 86748, 0, 0, 0, 0, 0},
    {"memory-edge", "route", "EM", 1621, 9484, 594, 0, 348, 1621, 15216, 0, 0, 0, 0, 0},
    {"memory-edge", "route", "H", 0, 0, 0, 0, 1710, 0, 0, 0, 326924, 0, 0, 0},
    {"stored-node", "mono", "E", 3067, 76303, 1210, 2977, 709, 0, 102954, 0, 0, 0, 73696, 409},
    {"stored-node", "mono", "L", 31402, 110274, 3109, 0, 3149, 0, 191620, 0, 0, 0, 105766, 1152},
    {"stored-node", "mono", "LP", 4898, 76015, 1919, 0, 467, 0, 261805, 0, 0, 0, 75567, 1411},
    {"stored-node", "mono", "EM", 3067, 19085, 1210, 0, 627, 3776, 31426, 82, 0, 0, 21546, 1046},
    {"stored-edge", "position", "E", 2140, 56400, 910, 2140, 529, 0, 77061, 0, 0, 0, 66197, 364},
    {"stored-edge", "position", "L", 16815, 68662, 2275, 0, 1996, 0, 117971, 0, 0, 0, 85185, 1347},
    {"stored-edge", "position", "LP", 3096, 48309, 1298, 0, 368, 0, 162625, 0, 0, 0, 51127, 907},
    {"stored-edge", "position", "EM", 2140, 15090, 910, 0, 529, 2140, 24340, 0, 0, 0, 20995, 879},
};
// clang-format on

// One update row: the summed maintenance work of one (engine,
// population) insert/delete sequence.
struct UpdateCounts {
  const char* engine;
  const char* set;
  uint64_t nodes_touched, lists_written, heap_pushes, border_nodes,
      log_records, log_flushes, log_bytes;
  uint64_t logical_reads, physical_reads;  // stored engine only
};

// clang-format off
const UpdateCounts kExpectedUpdates[] = {
    {"memory-node", "points", 5295, 868, 5205, 149, 0, 0, 0, 0, 0},
    {"memory-node", "sites", 9410, 1572, 9427, 208, 0, 0, 0, 0, 0},
    {"memory-edge", "edge_points", 5671, 891, 5541, 177, 0, 0, 0, 0, 0},
    {"stored-node", "points", 5295, 868, 5205, 149, 0, 0, 0, 7898, 158},
};
// clang-format on

std::string Format(const Counts& c) {
  return StrPrintf(
      "{\"%s\", \"%s\", \"%s\", %llu, %llu, %llu, %llu, %llu, %llu, "
      "%llu, %llu, %llu, %llu, %llu, %llu},",
      c.engine, c.kind, c.algo,
      static_cast<unsigned long long>(c.nodes_expanded),
      static_cast<unsigned long long>(c.nodes_scanned),
      static_cast<unsigned long long>(c.nodes_pruned),
      static_cast<unsigned long long>(c.range_nn_calls),
      static_cast<unsigned long long>(c.verify_calls),
      static_cast<unsigned long long>(c.knn_list_reads),
      static_cast<unsigned long long>(c.heap_pushes),
      static_cast<unsigned long long>(c.shortcut_accepts),
      static_cast<unsigned long long>(c.label_entries),
      static_cast<unsigned long long>(c.hub_fallbacks),
      static_cast<unsigned long long>(c.logical_reads),
      static_cast<unsigned long long>(c.physical_reads));
}

std::string Format(const UpdateCounts& c) {
  return StrPrintf(
      "{\"%s\", \"%s\", %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
      "%llu},",
      c.engine, c.set, static_cast<unsigned long long>(c.nodes_touched),
      static_cast<unsigned long long>(c.lists_written),
      static_cast<unsigned long long>(c.heap_pushes),
      static_cast<unsigned long long>(c.border_nodes),
      static_cast<unsigned long long>(c.log_records),
      static_cast<unsigned long long>(c.log_flushes),
      static_cast<unsigned long long>(c.log_bytes),
      static_cast<unsigned long long>(c.logical_reads),
      static_cast<unsigned long long>(c.physical_reads));
}

constexpr uint32_t kK = 3;  // materialized K; queries use k = 1..K

struct World {
  graph::Graph g;
  std::optional<graph::GraphView> view;
  NodePointSet points{0};
  NodePointSet sites{0};
  EdgePointSet edge_points;
  MemoryKnnStore knn{0, 1};
  MemoryKnnStore site_knn{0, 1};
  MemoryKnnStore edge_knn{0, 1};
  std::optional<index::HubLabelIndex> labels;
};

std::unique_ptr<World> MakeWorld() {
  auto w = std::make_unique<World>();
  gen::GridConfig grid;
  grid.rows = 24;
  grid.cols = 24;
  grid.seed = 19;
  w->g = gen::GenerateGrid(grid).ValueOrDie();
  w->view.emplace(&w->g);
  Rng rng(1901);
  w->points =
      gen::PlaceNodePoints(w->g.num_nodes(), 0.1, rng).ValueOrDie();
  w->sites = gen::PlaceNodePoints(w->g.num_nodes(), 0.05, rng).ValueOrDie();
  w->edge_points = gen::PlaceEdgePoints(w->g, 0.1, rng).ValueOrDie();
  w->knn = MemoryKnnStore(w->g.num_nodes(), kK);
  EXPECT_TRUE(BuildAllNn(*w->view, w->points, &w->knn).ok());
  w->site_knn = MemoryKnnStore(w->g.num_nodes(), kK);
  EXPECT_TRUE(BuildAllNn(*w->view, w->sites, &w->site_knn).ok());
  w->edge_knn = MemoryKnnStore(w->g.num_nodes(), kK);
  EXPECT_TRUE(
      UnrestrictedBuildAllNn(*w->view, w->edge_points, &w->edge_knn).ok());
  w->labels.emplace(index::HubLabelBuilder::Build(*w->view).ValueOrDie());
  return w;
}

// The fixed query list of one kind, for one algorithm: 30 nodes (mono
// and bichromatic, each excluding the point or site it hosts), 10
// random-walk routes, 20 edge positions (even ones at an edge point,
// excluded), each at k = 1..K.
std::vector<QuerySpec> Queries(const World& w, QueryKind kind,
                               Algorithm algo) {
  Rng rng(77);
  const auto nodes = rng.SampleWithoutReplacement(w.g.num_nodes(), 30);
  const auto edges = w.g.CollectEdges();
  const auto edge_live = w.edge_points.LivePoints();
  std::vector<QuerySpec> specs;
  for (int k = 1; k <= static_cast<int>(kK); ++k) {
    switch (kind) {
      case QueryKind::kMonochromatic:
        for (uint64_t n : nodes) {
          const NodeId q = static_cast<NodeId>(n);
          specs.push_back(
              QuerySpec::Monochromatic(algo, q, k, w.points.PointAt(q)));
        }
        break;
      case QueryKind::kBichromatic:
        for (uint64_t n : nodes) {
          const NodeId q = static_cast<NodeId>(n);
          specs.push_back(
              QuerySpec::Bichromatic(algo, q, k, w.sites.PointAt(q)));
        }
        break;
      case QueryKind::kContinuous:
        for (int r = 0; r < 10; ++r) {
          const NodeId start =
              static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
          specs.push_back(QuerySpec::Continuous(
              algo, gen::RandomWalkRoute(w.g, start, 4, rng), k));
        }
        break;
      case QueryKind::kUnrestricted:
        for (int i = 0; i < 20; ++i) {
          if (i % 2 == 0) {
            const PointId p = edge_live[rng.UniformInt(edge_live.size())];
            specs.push_back(QuerySpec::Unrestricted(
                algo, w.edge_points.PositionOf(p), k, p));
          } else {
            const Edge& e = edges[rng.UniformInt(edges.size())];
            specs.push_back(QuerySpec::Unrestricted(
                algo, EdgePosition{e.u, e.v, rng.Uniform(0.0, e.w)}, k));
          }
        }
        break;
    }
  }
  return specs;
}

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kMonochromatic:
      return "mono";
    case QueryKind::kBichromatic:
      return "bi";
    case QueryKind::kContinuous:
      return "route";
    case QueryKind::kUnrestricted:
      return "position";
  }
  return "?";
}

// Runs the query list and sums its work; with a pool, invalidates it
// before each query and adds its read counts.
Counts Measure(const char* engine_name, RknnEngine& engine, const World& w,
               QueryKind kind, Algorithm algo, storage::BufferPool* pool) {
  Counts c{};
  c.engine = engine_name;
  c.kind = KindName(kind);
  c.algo = AlgorithmShortName(algo);
  SearchStats sum;
  storage::IoStats io;
  for (const QuerySpec& spec : Queries(w, kind, algo)) {
    storage::IoStats before;
    if (pool != nullptr) {
      EXPECT_TRUE(pool->Invalidate().ok());
      before = pool->stats();
    }
    auto r = engine.Run(spec);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) {
      continue;
    }
    sum += r->stats;
    if (pool != nullptr) {
      io += pool->stats() - before;
    }
  }
  c.nodes_expanded = sum.nodes_expanded;
  c.nodes_scanned = sum.nodes_scanned;
  c.nodes_pruned = sum.nodes_pruned;
  c.range_nn_calls = sum.range_nn_calls;
  c.verify_calls = sum.verify_calls;
  c.knn_list_reads = sum.knn_list_reads;
  c.heap_pushes = sum.heap_pushes;
  c.shortcut_accepts = sum.shortcut_accepts;
  c.label_entries = sum.label_entries;
  c.hub_fallbacks = sum.hub_fallbacks;
  c.logical_reads = io.logical_reads;
  c.physical_reads = io.physical_reads;
  return c;
}

TEST(WorkCountsTest, EveryAlgorithmDoesThePinnedWork) {
  auto w = MakeWorld();
  constexpr Algorithm kMemoryAlgos[] = {
      Algorithm::kEager, Algorithm::kLazy, Algorithm::kLazyEp,
      Algorithm::kEagerM, Algorithm::kHubLabel};
  constexpr Algorithm kStoredAlgos[] = {Algorithm::kEager, Algorithm::kLazy,
                                        Algorithm::kLazyEp,
                                        Algorithm::kEagerM};
  std::vector<Counts> got;

  EngineSources node_src;
  node_src.graph = &*w->view;
  node_src.points = &w->points;
  node_src.sites = &w->sites;
  node_src.knn = &w->knn;
  node_src.site_knn = &w->site_knn;
  node_src.hub_labels = &*w->labels;
  RknnEngine node = RknnEngine::Create(node_src).ValueOrDie();
  for (QueryKind kind : {QueryKind::kMonochromatic, QueryKind::kBichromatic,
                         QueryKind::kContinuous}) {
    for (Algorithm algo : kMemoryAlgos) {
      got.push_back(Measure("memory-node", node, *w, kind, algo, nullptr));
    }
  }

  EngineSources edge_src;
  edge_src.graph = &*w->view;
  edge_src.edge_points = &w->edge_points;
  edge_src.knn = &w->edge_knn;
  edge_src.hub_labels = &*w->labels;
  RknnEngine edge = RknnEngine::Create(edge_src).ValueOrDie();
  for (QueryKind kind : {QueryKind::kUnrestricted, QueryKind::kContinuous}) {
    for (Algorithm algo : kMemoryAlgos) {
      got.push_back(Measure("memory-edge", edge, *w, kind, algo, nullptr));
    }
  }

  constexpr size_t kPoolPages = 6;
  auto stored_node =
      bench::BuildStoredRestricted(w->g, w->points, kK, kPoolPages)
          .ValueOrDie();
  EngineSources sn_src;
  sn_src.graph = stored_node.view.get();
  sn_src.points = &w->points;
  sn_src.knn = stored_node.knn_store.get();
  sn_src.pool = stored_node.pool.get();
  RknnEngine sn = RknnEngine::Create(sn_src).ValueOrDie();
  for (Algorithm algo : kStoredAlgos) {
    got.push_back(Measure("stored-node", sn, *w, QueryKind::kMonochromatic,
                          algo, stored_node.pool.get()));
  }

  auto stored_edge =
      bench::BuildStoredUnrestricted(w->g, w->edge_points, kK, kPoolPages)
          .ValueOrDie();
  EngineSources se_src;
  se_src.graph = stored_edge.view.get();
  se_src.edge_points = &w->edge_points;
  se_src.edge_reader = stored_edge.reader.get();
  se_src.knn = stored_edge.knn_store.get();
  se_src.pool = stored_edge.pool.get();
  RknnEngine se = RknnEngine::Create(se_src).ValueOrDie();
  for (Algorithm algo : kStoredAlgos) {
    got.push_back(Measure("stored-edge", se, *w, QueryKind::kUnrestricted,
                          algo, stored_edge.pool.get()));
  }

  std::string table;
  for (const Counts& c : got) {
    table += "    " + Format(c) + "\n";
  }
  ASSERT_EQ(got.size(), std::size(kExpected)) << "rows now read:\n" << table;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Format(got[i]), Format(kExpected[i]))
        << "row " << i << " changed; rows now read:\n"
        << table;
  }
}

constexpr int kUpdateOps = 20;  // per (engine, population) row

// Applies a seeded sequence of kUpdateOps updates to one population:
// even steps insert (at a node free in that population, or at a random
// edge position), odd steps delete a random live point. Sums their
// maintenance work; with a pool, invalidates it before each update and
// adds its reads.
UpdateCounts MeasureUpdates(const char* engine_name, RknnEngine& engine,
                            const World& w, UpdateSet set,
                            storage::BufferPool* pool) {
  UpdateCounts c{};
  c.engine = engine_name;
  c.set = UpdateSetName(set);
  Rng rng(2301);
  const auto edges = w.g.CollectEdges();
  const NodePointSet& nodes = set == UpdateSet::kSites ? w.sites : w.points;
  UpdateStats sum;
  storage::IoStats io;
  for (int i = 0; i < kUpdateOps; ++i) {
    UpdateSpec spec;
    if (set == UpdateSet::kEdgePoints) {
      if (i % 2 == 0) {
        const Edge& e = edges[rng.UniformInt(edges.size())];
        spec = UpdateSpec::InsertEdgePoint(
            EdgePosition{e.u, e.v, rng.Uniform(0.0, e.w)});
      } else {
        const auto live = w.edge_points.LivePoints();
        spec = UpdateSpec::DeleteEdgePoint(live[rng.UniformInt(live.size())]);
      }
    } else if (i % 2 == 0) {
      NodeId n;
      do {
        n = static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
      } while (nodes.Contains(n));
      spec = set == UpdateSet::kSites ? UpdateSpec::InsertSite(n)
                                      : UpdateSpec::InsertPoint(n);
    } else {
      const auto live = nodes.LivePoints();
      const PointId p = live[rng.UniformInt(live.size())];
      spec = set == UpdateSet::kSites ? UpdateSpec::DeleteSite(p)
                                      : UpdateSpec::DeletePoint(p);
    }
    storage::IoStats before;
    if (pool != nullptr) {
      EXPECT_TRUE(pool->Invalidate().ok());
      before = pool->stats();
    }
    auto r = engine.ApplyUpdate(spec);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) {
      continue;
    }
    sum += r->stats;
    if (pool != nullptr) {
      io += pool->stats() - before;
    }
  }
  c.nodes_touched = sum.nodes_touched;
  c.lists_written = sum.lists_written;
  c.heap_pushes = sum.heap_pushes;
  c.border_nodes = sum.border_nodes;
  c.log_records = sum.log_records;
  c.log_flushes = sum.log_flushes;
  c.log_bytes = sum.log_bytes;
  c.logical_reads = io.logical_reads;
  c.physical_reads = io.physical_reads;
  return c;
}

TEST(WorkCountsTest, EveryUpdatePathDoesThePinnedWork) {
  std::vector<UpdateCounts> got;

  // Memory node engine: points and sites, each with its own store.
  auto node_world = MakeWorld();
  World& nw = *node_world;
  EngineSources node_src;
  node_src.graph = &*nw.view;
  node_src.points = &nw.points;
  node_src.sites = &nw.sites;
  node_src.knn = &nw.knn;
  node_src.site_knn = &nw.site_knn;
  node_src.updates.points = &nw.points;
  node_src.updates.sites = &nw.sites;
  node_src.updates.knn = &nw.knn;
  node_src.updates.site_knn = &nw.site_knn;
  RknnEngine node = RknnEngine::Create(node_src).ValueOrDie();
  for (UpdateSet set : {UpdateSet::kPoints, UpdateSet::kSites}) {
    got.push_back(MeasureUpdates("memory-node", node, nw, set, nullptr));
  }

  auto edge_world = MakeWorld();
  World& ew = *edge_world;
  EngineSources edge_src;
  edge_src.graph = &*ew.view;
  edge_src.edge_points = &ew.edge_points;
  edge_src.knn = &ew.edge_knn;
  edge_src.updates.edge_points = &ew.edge_points;
  edge_src.updates.knn = &ew.edge_knn;
  edge_src.updates.base_graph = &ew.g;
  RknnEngine edge = RknnEngine::Create(edge_src).ValueOrDie();
  got.push_back(MeasureUpdates("memory-edge", edge, ew,
                               UpdateSet::kEdgePoints, nullptr));

  // Stored node engine: the KNN file is maintained through the pool.
  auto stored_world = MakeWorld();
  World& sw = *stored_world;
  constexpr size_t kPoolPages = 6;
  auto stored = bench::BuildStoredRestricted(sw.g, sw.points, kK, kPoolPages)
                    .ValueOrDie();
  RknnEngine sn =
      bench::MakeRestrictedUpdatableEngine(stored, sw.points).ValueOrDie();
  got.push_back(MeasureUpdates("stored-node", sn, sw, UpdateSet::kPoints,
                               stored.pool.get()));

  std::string table;
  for (const UpdateCounts& c : got) {
    table += "    " + Format(c) + "\n";
  }
  ASSERT_EQ(got.size(), std::size(kExpectedUpdates))
      << "rows now read:\n" << table;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Format(got[i]), Format(kExpectedUpdates[i]))
        << "row " << i << " changed; rows now read:\n"
        << table;
  }
}

}  // namespace
}  // namespace grnn::core
