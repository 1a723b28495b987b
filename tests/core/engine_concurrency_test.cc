// Concurrency stress for RknnEngine: many OS threads hammering Run on ONE
// engine over ONE shared disk-backed BufferPool. Results must be stable
// (every thread sees the serial answer) and no stat is lost (lifetime
// counters add up exactly).
//
// Registered under the `stress` ctest label and exercised by the
// ThreadSanitizer CI job, which is what actually proves the locking in
// BufferPool / RknnEngine::State correct.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "gen/grid.h"
#include "gen/points.h"
#include "test_fixtures.h"

namespace grnn::core {
namespace {

using testfix::Ids;

struct StressWorld {
  graph::Graph g;
  NodePointSet points{0};
  bench::StoredRestricted env;  // paged graph + KNN file + buffer pool
  std::vector<QuerySpec> specs;
  std::vector<std::vector<PointMatch>> expected;  // serial answers
  SearchStats serial_sum;
};

StressWorld MakeStressWorld(uint64_t seed, size_t num_specs) {
  StressWorld w;
  gen::GridConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.seed = seed;
  w.g = gen::GenerateGrid(cfg).ValueOrDie();
  Rng rng(seed * 7 + 3);
  w.points = gen::PlaceNodePoints(w.g.num_nodes(), 0.15, rng).ValueOrDie();
  // A small pool forces constant eviction traffic, maximizing contention
  // on the shared pin/unpin path.
  w.env = bench::BuildStoredRestricted(w.g, w.points, /*K=*/3,
                                       /*pool_pages=*/8)
              .ValueOrDie();

  auto live = w.points.LivePoints();
  for (size_t i = 0; i < num_specs; ++i) {
    const Algorithm algo = kAllAlgorithms[i % std::size(kAllAlgorithms)];
    const int k = 1 + static_cast<int>(i % 3);
    if (i % 2 == 0) {
      PointId qp = live[rng.UniformInt(live.size())];
      w.specs.push_back(
          QuerySpec::Monochromatic(algo, w.points.NodeOf(qp), k, qp));
    } else {
      w.specs.push_back(QuerySpec::Monochromatic(
          algo, static_cast<NodeId>(rng.UniformInt(w.g.num_nodes())), k));
    }
  }

  // Serial ground truth from a throwaway engine over the same sources.
  auto engine = bench::MakeRestrictedEngine(w.env, w.points).ValueOrDie();
  for (const QuerySpec& spec : w.specs) {
    RknnResult r = engine.Run(spec).ValueOrDie();
    w.expected.push_back(r.results);
    w.serial_sum += r.stats;
  }
  return w;
}

TEST(EngineConcurrencyTest, ManyThreadsRunOnOneEngine) {
  StressWorld w = MakeStressWorld(/*seed=*/21, /*num_specs=*/48);
  auto engine = bench::MakeRestrictedEngine(w.env, w.points).ValueOrDie();

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the spec list from its own offset so threads
      // collide on different pages at any instant.
      for (size_t j = 0; j < w.specs.size(); ++j) {
        const size_t i = (j + static_cast<size_t>(t) * 7) % w.specs.size();
        auto r = engine.Run(w.specs[i]);
        if (!r.ok() || r->results != w.expected[i]) {
          mismatches[t]++;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }

  // No stat loss: every one of the kThreads * |specs| queries is counted
  // exactly once, and the deterministic search counters add up exactly.
  const EngineStats stats = engine.lifetime_stats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kThreads) * w.specs.size());
  EXPECT_EQ(stats.search.nodes_expanded,
            kThreads * w.serial_sum.nodes_expanded);
  EXPECT_EQ(stats.search.verify_calls,
            kThreads * w.serial_sum.verify_calls);
  EXPECT_EQ(stats.search.heap_pushes, kThreads * w.serial_sum.heap_pushes);
  // All leased workspaces made it back to the pool.
  EXPECT_GE(engine.num_pooled_workspaces(), 1u);
  EXPECT_LE(engine.num_pooled_workspaces(),
            static_cast<size_t>(kThreads));
}

}  // namespace
}  // namespace grnn::core
