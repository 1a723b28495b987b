// Bichromatic RNN for facility placement (the paper's Fig 1b scenario).
//
// A road network hosts residential blocks (set P) and restaurants
// (set Q). For a proposed new restaurant location q, bRNN(q) returns the
// blocks that would be closer to q than to every existing competitor --
// the expected customer base. The example compares several candidate
// sites and picks the one attracting the most blocks, then checks the
// winner's answer with a second algorithm (MISMATCH and exit 1 if the
// two disagree).
//
// Build & run:  ./build/restaurant_placement [num_nodes]

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/engine.h"
#include "gen/points.h"
#include "gen/road_network.h"
#include "graph/network_view.h"

using namespace grnn;

int main(int argc, char** argv) {
  const NodeId num_nodes =
      argc > 1 ? static_cast<NodeId>(std::atoi(argv[1])) : 20000;

  gen::RoadConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.seed = 11;
  auto net = gen::GenerateRoadNetwork(cfg).ValueOrDie();
  graph::GraphView network(&net.g);

  Rng rng(5);
  // Residential blocks on 5% of junctions, restaurants on 0.2%.
  auto blocks =
      gen::PlaceNodePoints(net.g.num_nodes(), 0.05, rng).ValueOrDie();
  core::NodePointSet restaurants(net.g.num_nodes());
  size_t num_restaurants = std::max<size_t>(3, num_nodes / 500);
  while (restaurants.num_points() < num_restaurants) {
    NodeId n = static_cast<NodeId>(rng.UniformInt(net.g.num_nodes()));
    if (!blocks.Contains(n) && !restaurants.Contains(n)) {
      (void)restaurants.AddPoint(n);
    }
  }
  std::printf("road network: %u junctions (avg degree %.2f)\n",
              net.g.num_nodes(), net.g.AverageDegree());
  std::printf("%zu residential blocks, %zu existing restaurants\n",
              blocks.num_points(), restaurants.num_points());

  // Materialize each junction's nearest restaurant once: candidate sites
  // are then evaluated with cheap eager-M style lookups (Section 5.1:
  // "materialize KNN(n) as a subset of Q").
  core::MemoryKnnStore site_knn(net.g.num_nodes(), 1);
  auto st = core::BuildAllNn(network, restaurants, &site_knn);
  if (!st.ok()) {
    std::fprintf(stderr, "all-NN failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // --- Evaluate five candidate sites.
  core::EngineSources sources;
  sources.graph = &network;
  sources.points = &blocks;       // P: candidate objects
  sources.sites = &restaurants;   // Q: competing sites
  sources.site_knn = &site_knn;
  auto engine = core::RknnEngine::Create(sources).ValueOrDie();

  std::printf("\ncandidate sites (bichromatic RNN = blocks captured):\n");
  NodeId best_site = kInvalidNode;
  core::RknnResult best;
  int evaluated = 0;
  while (evaluated < 5) {
    NodeId site = static_cast<NodeId>(rng.UniformInt(net.g.num_nodes()));
    if (restaurants.Contains(site)) {
      continue;
    }
    ++evaluated;
    auto captured = engine
                        .Run(core::QuerySpec::Bichromatic(
                            core::Algorithm::kEagerM, site))
                        .ValueOrDie();
    std::printf("  site @ node %6u (%.0f, %.0f): captures %zu blocks "
                "[%llu nodes expanded]\n",
                site, net.coords[site].first, net.coords[site].second,
                captured.results.size(),
                static_cast<unsigned long long>(
                    captured.stats.nodes_expanded));
    if (captured.results.size() >= best.results.size()) {
      best_site = site;
      best = std::move(captured);
    }
  }
  std::printf("\nbest site: node %u with %zu captured blocks\n", best_site,
              best.results.size());

  // --- Cross-check the winner with the non-materialized algorithm: the
  // same blocks at the same distances.
  auto check = engine
                   .Run(core::QuerySpec::Bichromatic(
                       core::Algorithm::kEager, best_site))
                   .ValueOrDie();
  if (check.results != best.results) {
    std::fprintf(stderr,
                 "MISMATCH: eager captures %zu blocks, eager-M %zu\n",
                 check.results.size(), best.results.size());
    return 1;
  }
  std::printf("(eager bichromatic agrees: %zu blocks)\n",
              check.results.size());
  return 0;
}
