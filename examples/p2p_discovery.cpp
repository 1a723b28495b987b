// P2P peer discovery (the paper's Fig 1a scenario, Section 1).
//
// A BRITE-like overlay network hosts peers interested in some content. A
// new peer q joins; RkNN(q) tells q which existing peers now have q as
// one of their k closest peers -- exactly the peers that should redirect
// future requests to q, and an estimate of q's future workload. Brute
// force then answers the same query; if it disagrees, the example prints
// MISMATCH and exits 1.
//
// Build & run:  ./build/p2p_discovery [num_nodes] [k]

#include <cstdio>
#include <cstdlib>

#include "core/engine.h"
#include "gen/brite.h"
#include "gen/points.h"
#include "graph/network_view.h"

using namespace grnn;

int main(int argc, char** argv) {
  const NodeId num_nodes =
      argc > 1 ? static_cast<NodeId>(std::atoi(argv[1])) : 20000;
  const int k = argc > 2 ? std::atoi(argv[2]) : 4;  // Gnutella fan-out

  // --- Overlay topology: preferential attachment, hop-count weights.
  gen::BriteConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.seed = 7;
  auto graph = gen::GenerateBrite(cfg).ValueOrDie();
  graph::GraphView network(&graph);

  // --- 1% of nodes host peers interested in the same content.
  Rng rng(42);
  auto peers = gen::PlaceNodePoints(num_nodes, 0.01, rng).ValueOrDie();
  std::printf(
      "overlay: %u nodes (avg degree %.1f), %zu content peers, k=%d\n",
      graph.num_nodes(), graph.AverageDegree(), peers.num_points(), k);

  // --- A new peer joins at a random empty node.
  NodeId join_node;
  do {
    join_node = static_cast<NodeId>(rng.UniformInt(num_nodes));
  } while (peers.Contains(join_node));
  std::printf("new peer joins at node %u\n", join_node);

  // --- Who should re-route to the newcomer? RkNN with eager (the method
  // of choice for exponential-expansion networks, Section 6.1).
  core::EngineSources sources;
  sources.graph = &network;
  sources.points = &peers;
  auto engine = core::RknnEngine::Create(sources).ValueOrDie();
  auto result = engine
                    .Run(core::QuerySpec::Monochromatic(
                        core::Algorithm::kEager, join_node, k))
                    .ValueOrDie();

  std::printf("R%dNN(join) = %zu peers gain the newcomer as a top-%d "
              "neighbor:\n",
              k, result.results.size(), k);
  for (size_t i = 0; i < result.results.size() && i < 10; ++i) {
    const auto& m = result.results[i];
    std::printf("  peer p%u at node %u, %g hops away\n", m.point, m.node,
                m.dist);
  }
  if (result.results.size() > 10) {
    std::printf("  ... and %zu more\n", result.results.size() - 10);
  }
  std::printf("search stats: %llu nodes expanded, %llu pruned by Lemma 1, "
              "%llu range-NN calls, %llu verifications\n",
              static_cast<unsigned long long>(result.stats.nodes_expanded),
              static_cast<unsigned long long>(result.stats.nodes_pruned),
              static_cast<unsigned long long>(result.stats.range_nn_calls),
              static_cast<unsigned long long>(result.stats.verify_calls));

  // --- Contrast: the naive approach visits every peer, and must find
  // the same peers at the same distances.
  auto naive = engine
                   .Run(core::QuerySpec::Monochromatic(
                       core::Algorithm::kBruteForce, join_node, k))
                   .ValueOrDie();
  if (naive.results != result.results) {
    std::fprintf(stderr,
                 "MISMATCH: brute force finds %zu peers, eager %zu\n",
                 naive.results.size(), result.results.size());
    return 1;
  }
  std::printf("(brute force agrees: %zu peers)\n", naive.results.size());
  return 0;
}
