// Live-update concurrency stress for RknnEngine: 6 query threads and 2
// update threads hammer ONE engine over ONE shared sharded BufferPool.
// The updaters toggle two dedicated points (insert then delete, many
// rounds) through the engine's update path, so at any instant the world
// is one of four states: base, base+t0, base+t1, base+t0+t1. Every
// query result must equal the brute-force answer of ONE of those four
// worlds (the linearizability window: a query sees either the pre- or
// the post-update world, never a torn one), and no query/update counter
// may be lost.
//
// The same oracle harness runs against BOTH serving modes: the PR 3
// lock path (stored engine, per-domain shared_mutex) and the PR 6
// epoch-snapshot path (memory engine, snapshot_reads) — on the epoch
// path "one of the four worlds" literally means "one published
// WorldVersion", and the suite additionally checks the version/retire
// accounting and that limbo drains once the readers are gone.
//
// Both engines serve one hub-label index, and the histories include
// Algorithm::kHubLabel queries: every update must splice the hub point
// index in place (lock mode) or onto its successor version (snapshot
// mode), so the label path never goes stale and never falls back to
// expansion while writers run.
//
// Registered under the `stress`, `update` and `serve` ctest labels; the
// ThreadSanitizer CI job is what actually proves the domain
// shared_mutexes, the epoch pin/retire protocol, the sharded pin table
// and the stat accounting correct.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "gen/grid.h"
#include "gen/points.h"
#include "index/hub_label.h"

namespace grnn::core {
namespace {

// Sorted hosting nodes of a result. Toggled points get a fresh PointId
// on every re-insert, so results are compared by hosting node (at most
// one point lives per node; every world assigns a unique node set to
// each query answer).
std::vector<NodeId> Nodes(const RknnResult& r) {
  std::vector<NodeId> nodes;
  nodes.reserve(r.results.size());
  for (const PointMatch& m : r.results) {
    nodes.push_back(m.node);
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

struct UpdateStressWorld {
  graph::Graph g;
  NodePointSet points{0};
  bench::StoredRestricted env;
  // Hub labels over the grid, served by the engines of both modes.
  index::HubLabelIndex labels;
  NodeId toggles[2] = {kInvalidNode, kInvalidNode};
  std::vector<QuerySpec> specs;
  // expected[world][spec] = brute-force node set; world bit i = toggle i
  // present.
  std::vector<std::vector<std::vector<NodeId>>> expected;
};

UpdateStressWorld MakeUpdateStressWorld(uint64_t seed) {
  UpdateStressWorld w;
  gen::GridConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.seed = seed;
  w.g = gen::GenerateGrid(cfg).ValueOrDie();
  Rng rng(seed * 11 + 5);
  w.points = gen::PlaceNodePoints(w.g.num_nodes(), 0.15, rng).ValueOrDie();
  // An 8-page pool over kDefaultConcurrentShards: constant eviction
  // traffic through every shard while updates rewrite KNN pages.
  w.env = bench::BuildStoredRestricted(w.g, w.points, /*K=*/4,
                                       /*pool_pages=*/8,
                                       storage::kDefaultConcurrentShards)
              .ValueOrDie();
  graph::GraphView grid_view(&w.g);
  w.labels = index::HubLabelBuilder::Build(grid_view).ValueOrDie();

  // Two dedicated toggle nodes, initially free.
  int found = 0;
  while (found < 2) {
    NodeId n = static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
    if (!w.points.Contains(n) && (found == 0 || w.toggles[0] != n)) {
      w.toggles[found++] = n;
    }
  }

  auto live = w.points.LivePoints();
  for (Algorithm algo :
       {Algorithm::kEager, Algorithm::kEagerM, Algorithm::kLazy,
        Algorithm::kLazyEp, Algorithm::kHubLabel}) {
    for (int k = 1; k <= 3; ++k) {
      PointId qp = live[rng.UniformInt(live.size())];
      w.specs.push_back(
          QuerySpec::Monochromatic(algo, w.points.NodeOf(qp), k, qp));
      w.specs.push_back(QuerySpec::Monochromatic(
          algo, static_cast<NodeId>(rng.UniformInt(w.g.num_nodes())), k));
    }
  }

  // Brute-force ground truth for all four toggle subsets, over throwaway
  // in-memory worlds (brute force needs no KNN store).
  w.expected.resize(4);
  for (int world = 0; world < 4; ++world) {
    NodePointSet world_points = w.points;
    for (int bit = 0; bit < 2; ++bit) {
      if ((world >> bit) & 1) {
        (void)world_points.AddPoint(w.toggles[bit]).ValueOrDie();
      }
    }
    graph::GraphView view(&w.g);
    EngineSources sources;
    sources.graph = &view;
    sources.points = &world_points;
    auto oracle = RknnEngine::Create(sources).ValueOrDie();
    for (const QuerySpec& spec : w.specs) {
      QuerySpec bf = spec;
      bf.algorithm = Algorithm::kBruteForce;
      w.expected[world].push_back(Nodes(oracle.Run(bf).ValueOrDie()));
    }
  }
  return w;
}

// The 6-reader/2-writer linearizability harness, shared by the lock-mode
// and epoch-snapshot suites below.
void RunUpdateStress(RknnEngine& engine, const UpdateStressWorld& w) {
  constexpr int kQueryThreads = 6;
  constexpr int kQueryPasses = 6;
  // Writer-starvation guard: readers run a FIXED number of passes and
  // the updaters toggle until the readers finish (capped), so the test
  // terminates promptly even under a reader-preferring shared_mutex.
  constexpr int kMaxToggleCycles = 4000;
  std::atomic<int> readers_running{kQueryThreads};
  std::atomic<uint64_t> queries_issued{0};
  std::atomic<uint64_t> toggle_cycles[2] = {{0}, {0}};
  std::atomic<int> query_mismatches{0};
  std::atomic<int> update_failures{0};
  std::atomic<int> probe_mismatches{0};

  auto matches_some_world = [&](size_t spec_idx,
                                const RknnResult& result,
                                int required_bit) {
    const std::vector<NodeId> got = Nodes(result);
    for (int world = 0; world < 4; ++world) {
      if (required_bit >= 0 && ((world >> required_bit) & 1) == 0) {
        continue;  // this query ran while toggle `bit` was present
      }
      if (got == w.expected[static_cast<size_t>(world)][spec_idx]) {
        return true;
      }
    }
    return false;
  };

  std::vector<std::thread> threads;
  // Updater 0: plain ApplyUpdate insert/delete cycles on toggle 0.
  threads.emplace_back([&] {
    while (readers_running.load() > 0 &&
           toggle_cycles[0].load() < kMaxToggleCycles) {
      auto ins = engine.ApplyUpdate(UpdateSpec::InsertPoint(w.toggles[0]));
      if (!ins.ok()) {
        update_failures.fetch_add(1);
        break;
      }
      auto del = engine.ApplyUpdate(UpdateSpec::DeletePoint(ins->point));
      if (!del.ok()) {
        update_failures.fetch_add(1);
        break;
      }
      toggle_cycles[0].fetch_add(1);
    }
  });
  // Updater 1: insert, query (which must observe the just-committed
  // insert: read-your-writes on one thread), delete.
  threads.emplace_back([&] {
    const size_t probe = 1 % w.specs.size();
    while (readers_running.load() > 0 &&
           toggle_cycles[1].load() < kMaxToggleCycles) {
      auto ins = engine.ApplyUpdate(UpdateSpec::InsertPoint(w.toggles[1]));
      if (!ins.ok()) {
        update_failures.fetch_add(1);
        break;
      }
      // The probe ran after our insert committed: only worlds with
      // toggle 1 present are admissible.
      auto r = engine.Run(w.specs[probe]);
      if (!r.ok() || !matches_some_world(probe, *r, /*required_bit=*/1)) {
        probe_mismatches.fetch_add(1);
      }
      auto del = engine.ApplyUpdate(UpdateSpec::DeletePoint(ins->point));
      if (!del.ok()) {
        update_failures.fetch_add(1);
        break;
      }
      toggle_cycles[1].fetch_add(1);
    }
  });
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t issued = 0;
      for (int pass = 0; pass < kQueryPasses; ++pass) {
        for (size_t j = 0; j < w.specs.size(); ++j) {
          const size_t i =
              (j + static_cast<size_t>(t) * 5) % w.specs.size();
          auto r = engine.Run(w.specs[i]);
          issued++;
          if (!r.ok() || !matches_some_world(i, *r, /*required_bit=*/-1)) {
            query_mismatches.fetch_add(1);
          }
        }
        // Let blocked writers through between passes (shared_mutex may
        // prefer readers).
        std::this_thread::yield();
      }
      queries_issued.fetch_add(issued);
      readers_running.fetch_sub(1);
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  EXPECT_EQ(query_mismatches.load(), 0);
  EXPECT_EQ(probe_mismatches.load(), 0);
  EXPECT_EQ(update_failures.load(), 0);
  // The window was real: both updaters got toggles through while the
  // readers were running.
  EXPECT_GE(toggle_cycles[0].load(), 1u);
  EXPECT_GE(toggle_cycles[1].load(), 1u);

  // Zero stat loss: every query and every update is counted exactly
  // once, across Run and ApplyUpdate alike.
  const EngineStats stats = engine.lifetime_stats();
  const uint64_t cycles =
      toggle_cycles[0].load() + toggle_cycles[1].load();
  const uint64_t probe_queries = toggle_cycles[1].load();  // one per cycle
  EXPECT_EQ(stats.queries, queries_issued.load() + probe_queries);
  EXPECT_EQ(stats.updates, 2u * cycles);
  // Every insert rewrites at least the toggle node's own list.
  EXPECT_GE(stats.update.lists_written, cycles);
  // Every update patched the hub point index incrementally: no hub-label
  // query fell back to expansion, and the index never went stale.
  EXPECT_GT(stats.search.label_entries, 0u);
  EXPECT_EQ(stats.search.hub_fallbacks, 0u);
  EXPECT_FALSE(engine.hub_index_stale());

  // The world round-tripped: both toggles are deleted again, so a final
  // serial check must reproduce the base world exactly.
  for (size_t i = 0; i < w.specs.size(); ++i) {
    auto r = engine.Run(w.specs[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Nodes(*r), w.expected[0][i]) << "spec " << i;
  }
  EXPECT_GE(engine.num_pooled_workspaces(), 1u);
}

TEST(EngineUpdateConcurrencyTest, QueriesSeePreOrPostUpdateWorlds) {
  UpdateStressWorld w = MakeUpdateStressWorld(/*seed=*/11);
  NodePointSet points = w.points;
  EngineSources sources;
  sources.graph = w.env.view.get();
  sources.points = &points;
  sources.knn = w.env.knn_store.get();
  sources.hub_labels = &w.labels;
  sources.pool = w.env.pool.get();
  sources.updates.points = &points;
  sources.updates.knn = w.env.knn_store.get();
  auto engine = RknnEngine::Create(sources).ValueOrDie();
  RunUpdateStress(engine, w);
  // Lock mode has no serving layer: epoch counters stay at zero.
  EXPECT_EQ(engine.epoch_stats().pins, 0u);
  EXPECT_EQ(engine.world_seq(), 0u);
}

// Satellite of the serving-layer PR: the SAME oracle harness over the
// epoch-snapshot path. Every result must match one published version,
// every update publishes exactly one version, and the retired-version
// limbo drains to zero once the readers are gone.
TEST(EngineUpdateConcurrencyTest, EpochSnapshotQueriesSeePublishedWorlds) {
  UpdateStressWorld w = MakeUpdateStressWorld(/*seed=*/11);
  graph::GraphView view(&w.g);
  NodePointSet points = w.points;
  MemoryKnnStore store(w.g.num_nodes(), /*k=*/4);
  ASSERT_TRUE(BuildAllNn(view, points, &store).ok());
  EngineSources sources;
  sources.graph = &view;
  sources.points = &points;
  sources.knn = &store;
  sources.hub_labels = &w.labels;
  sources.updates.points = &points;
  sources.updates.knn = &store;
  sources.snapshot_reads = true;
  auto engine = RknnEngine::Create(sources).ValueOrDie();

  RunUpdateStress(engine, w);

  // Version accounting: every committed update published exactly one
  // version (and retired its predecessor); every dispatch pinned an
  // epoch; with no reader left, one reclaim pass empties limbo.
  const EngineStats stats = engine.lifetime_stats();
  EXPECT_EQ(engine.world_seq(), stats.updates);
  serve::EpochStats es = engine.epoch_stats();
  EXPECT_EQ(es.retired, stats.updates);
  EXPECT_GE(es.pins, stats.queries);
  engine.ReclaimVersions();
  es = engine.epoch_stats();
  EXPECT_EQ(es.limbo, 0u);
  EXPECT_EQ(es.reclaimed, es.retired);
}

}  // namespace
}  // namespace grnn::core
