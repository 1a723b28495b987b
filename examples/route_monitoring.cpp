// Continuous RkNN along a route (paper Section 5.1).
//
// A delivery van drives a route through a road network where data points
// (customers) sit on the edges (unrestricted network, Section 5.2). The
// continuous query cRkNN(route) returns every customer for which the
// route is among its k nearest objects -- the customers "captured" by the
// route, e.g. candidates for an ad campaign along the way. The lazy
// algorithm answers each query again; if it disagrees with eager, the
// example prints MISMATCH and exits 1.
//
// Build & run:  ./build/route_monitoring [num_nodes] [route_len]

#include <cstdio>
#include <cstdlib>

#include "core/engine.h"
#include "gen/points.h"
#include "gen/road_network.h"
#include "graph/network_view.h"

using namespace grnn;

int main(int argc, char** argv) {
  const NodeId num_nodes =
      argc > 1 ? static_cast<NodeId>(std::atoi(argv[1])) : 20000;
  const size_t route_len =
      argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 15;

  gen::RoadConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.seed = 23;
  auto net = gen::GenerateRoadNetwork(cfg).ValueOrDie();
  graph::GraphView network(&net.g);

  Rng rng(17);
  auto customers =
      gen::PlaceEdgePoints(net.g, 0.01, rng).ValueOrDie();
  std::printf("road network: %u junctions, %zu customers on edges\n",
              net.g.num_nodes(), customers.num_points());

  // An engine over edge-resident points answers continuous (route)
  // queries with the unrestricted machinery of Section 5.2.
  core::EngineSources sources;
  sources.graph = &network;
  sources.edge_points = &customers;
  auto engine = core::RknnEngine::Create(sources).ValueOrDie();

  // --- Build a route (random walk without repeats).
  std::vector<NodeId> route;
  while (route.size() < route_len) {
    route = gen::RandomWalkRoute(
        net.g, static_cast<NodeId>(rng.UniformInt(net.g.num_nodes())),
        route_len, rng);
  }
  std::printf("route of %zu junctions: %u -> ... -> %u\n", route.size(),
              route.front(), route.back());

  // --- Continuous RkNN for k = 1 and k = 2.
  for (int k = 1; k <= 2; ++k) {
    auto result = engine
                      .Run(core::QuerySpec::Continuous(
                          core::Algorithm::kEager, route, k))
                      .ValueOrDie();
    std::printf(
        "cR%dNN(route): %zu customers captured "
        "[%llu nodes expanded, %llu pruned]\n",
        k, result.results.size(),
        static_cast<unsigned long long>(result.stats.nodes_expanded),
        static_cast<unsigned long long>(result.stats.nodes_pruned));
    for (size_t i = 0; i < result.results.size() && i < 5; ++i) {
      const auto& m = result.results[i];
      const auto& pos = customers.PositionOf(m.point);
      std::printf("  customer %u on edge (%u,%u) at offset %.1f, route "
                  "distance %.1f\n",
                  m.point, pos.u, pos.v, pos.pos, m.dist);
    }
    if (result.results.size() > 5) {
      std::printf("  ...\n");
    }

    // The lazy variant answers the same query through the same spec: the
    // same customers at the same route distances.
    auto lazy = engine
                    .Run(core::QuerySpec::Continuous(core::Algorithm::kLazy,
                                                     route, k))
                    .ValueOrDie();
    if (lazy.results != result.results) {
      std::fprintf(stderr,
                   "MISMATCH: lazy captures %zu customers, eager %zu\n",
                   lazy.results.size(), result.results.size());
      return 1;
    }
    std::printf("  (lazy agrees: %zu customers at k=%d)\n",
                lazy.results.size(), k);
  }
  return 0;
}
