// Quickstart: build a small network, place data points, and answer RkNN
// queries with every algorithm through the RknnEngine session API.
//
// The graph is the paper's running example (Fig 3): seven nodes n1..n7,
// data points p1@n6, p2@n5, p3@n7, and a query issued at the empty
// junction n4. The walkthrough in Section 3.2 derives RNN(q) = {p1, p2};
// every algorithm must return exactly that, or the example prints
// MISMATCH and exits 1.
//
// Build & run:  ./build/quickstart

#include <cstdio>
#include <vector>

#include "core/engine.h"
#include "graph/network_view.h"

using namespace grnn;

int main() {
  // --- 1. Build the network (node ids are 0-based: n1..n7 -> 0..6).
  auto graph = graph::Graph::FromEdges(7, {{3, 2, 4.0},    // n4-n3
                                           {3, 0, 5.0},    // n4-n1
                                           {2, 5, 3.0},    // n3-n6
                                           {2, 6, 5.0},    // n3-n7
                                           {5, 1, 4.0},    // n6-n2
                                           {1, 4, 5.0},    // n2-n5
                                           {4, 0, 3.0}})   // n5-n1
                   .ValueOrDie();
  graph::GraphView network(&graph);

  // --- 2. Place the data points: p1 on n6, p2 on n5, p3 on n7.
  auto points =
      core::NodePointSet::FromLocations(7, {5, 4, 6}).ValueOrDie();

  std::printf("network: %u nodes, %zu edges, %zu data points\n",
              network.num_nodes(), network.num_edges(),
              points.num_points());

  // --- 3. Materialize per-node 2-NN lists once (unlocks eager-M), then
  // stand up the engine session that owns everything.
  core::MemoryKnnStore store(network.num_nodes(), /*k=*/2);
  auto build = core::BuildAllNn(network, points, &store);
  if (!build.ok()) {
    std::fprintf(stderr, "all-NN failed: %s\n", build.ToString().c_str());
    return 1;
  }
  core::EngineSources sources;
  sources.graph = &network;
  sources.points = &points;
  sources.knn = &store;
  auto engine = core::RknnEngine::Create(sources).ValueOrDie();

  // --- 4. Single RNN query at n4 with each algorithm: one QuerySpec,
  // one entry point. Section 3.2's answer: p1 (node n6) at distance 7
  // and p2 (node n5) at distance 8.
  const NodeId query_node = 3;
  const std::vector<core::PointMatch> section_3_2 = {{0, 5, 7.0},
                                                     {1, 4, 8.0}};
  for (core::Algorithm algo :
       {core::Algorithm::kEager, core::Algorithm::kEagerM,
        core::Algorithm::kLazy, core::Algorithm::kLazyEp,
        core::Algorithm::kBruteForce}) {
    auto result = engine
                      .Run(core::QuerySpec::Monochromatic(algo,
                                                          query_node))
                      .ValueOrDie();
    std::printf("%-12s RNN(n4) = {", core::AlgorithmName(algo));
    for (size_t i = 0; i < result.results.size(); ++i) {
      const auto& m = result.results[i];
      std::printf("%sp%u (node n%u, dist %.0f)", i ? ", " : "",
                  m.point + 1, m.node + 1, m.dist);
    }
    std::printf("}  [%llu nodes expanded, %llu verifications]\n",
                static_cast<unsigned long long>(result.stats.nodes_expanded),
                static_cast<unsigned long long>(result.stats.verify_calls));
    if (result.results != section_3_2) {
      std::fprintf(stderr, "MISMATCH: %s disagrees with Section 3.2\n",
                   core::AlgorithmName(algo));
      return 1;
    }
  }

  // --- 5. RkNN with k = 2: one more neighbor may be closer.
  auto r2 = engine
                .Run(core::QuerySpec::Monochromatic(
                    core::Algorithm::kEager, query_node, /*k=*/2))
                .ValueOrDie();
  std::printf("eager        R2NN(n4) = {");
  for (size_t i = 0; i < r2.results.size(); ++i) {
    std::printf("%sp%u", i ? ", " : "", r2.results[i].point + 1);
  }
  std::printf("}\n");

  // --- 6. One query per node. Every Run leases the engine's pooled
  // search workspace, so once it is warm later queries allocate nothing;
  // the engine's lifetime counters show it.
  const core::EngineStats before = engine.lifetime_stats();
  size_t total = 0;
  for (NodeId n = 0; n < network.num_nodes(); ++n) {
    total += engine
                 .Run(core::QuerySpec::Monochromatic(core::Algorithm::kLazy,
                                                     n))
                 .ValueOrDie()
                 .results.size();
  }
  const core::EngineStats after = engine.lifetime_stats();
  std::printf(
      "%llu queries, one per node: %zu results, %llu nodes expanded, "
      "%llu workspace growths\n",
      static_cast<unsigned long long>(after.queries - before.queries), total,
      static_cast<unsigned long long>(after.search.nodes_expanded -
                                      before.search.nodes_expanded),
      static_cast<unsigned long long>(after.workspace_grows -
                                      before.workspace_grows));
  return 0;
}
