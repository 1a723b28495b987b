// Ad-hoc RNN queries on a coauthorship graph (paper Section 6.1,
// Table 1).
//
// Edges connect coauthors; the network distance is the "degree of
// separation". Given an author q, RNN(q) over an ad-hoc subset of
// authors -- e.g. "authors with exactly two venue-0 papers" -- returns
// the members of that subset for whom q is the closest collaborator.
// Because the subset is defined per query, materialization is impossible
// and the paper compares eager vs lazy (Table 1).
//
// Build & run:  ./build/coauthor_influence [num_papers]

#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "core/engine.h"
#include "gen/coauthorship.h"
#include "graph/network_view.h"

using namespace grnn;

int main(int argc, char** argv) {
  gen::CoauthorConfig cfg;
  cfg.num_papers = argc > 1
                       ? static_cast<uint32_t>(std::atoi(argv[1]))
                       : 6000;
  cfg.seed = 3;
  auto net = gen::GenerateCoauthorship(cfg).ValueOrDie();
  graph::GraphView network(&net.g);
  std::printf("coauthorship graph: %u authors, %zu coauthor edges "
              "(avg degree %.1f)\n",
              net.g.num_nodes(), net.g.num_edges(),
              net.g.AverageDegree());

  // Pick a well-connected author as the query.
  NodeId query_author = 0;
  for (NodeId n = 0; n < net.g.num_nodes(); ++n) {
    if (net.g.Degree(n) > net.g.Degree(query_author)) {
      query_author = n;
    }
  }
  std::printf("query author: node %u with %zu coauthors\n", query_author,
              net.g.Degree(query_author));

  // Ad-hoc conditions of increasing selectivity (Table 1).
  for (uint32_t c = 0; c <= 2; ++c) {
    auto subset = core::NodePointSet::FromPredicate(
        net.g.num_nodes(), [&](NodeId n) {
          return net.venue0_papers[n] == c && n != query_author;
        });
    std::printf("\ncondition \"exactly %u venue-0 papers\": %zu matching "
                "authors\n",
                c, subset.num_points());
    if (subset.num_points() == 0) {
      continue;
    }

    // The ad-hoc subset is defined per condition, so each gets its own
    // short-lived engine session (materialization stays impossible).
    core::EngineSources sources;
    sources.graph = &network;
    sources.points = &subset;
    auto engine = core::RknnEngine::Create(sources).ValueOrDie();

    WallTimer eager_t;
    auto eager = engine
                     .Run(core::QuerySpec::Monochromatic(
                         core::Algorithm::kEager, query_author))
                     .ValueOrDie();
    double eager_s = eager_t.ElapsedSeconds();

    WallTimer lazy_t;
    auto lazy = engine
                    .Run(core::QuerySpec::Monochromatic(
                        core::Algorithm::kLazy, query_author))
                    .ValueOrDie();
    double lazy_s = lazy_t.ElapsedSeconds();

    std::printf("  RNN size %zu | eager: %.1f ms (%llu nodes scanned) | "
                "lazy: %.1f ms (%llu nodes scanned)\n",
                eager.results.size(), eager_s * 1e3,
                static_cast<unsigned long long>(eager.stats.nodes_scanned),
                lazy_s * 1e3,
                static_cast<unsigned long long>(lazy.stats.nodes_scanned));
    for (size_t i = 0; i < eager.results.size() && i < 5; ++i) {
      std::printf("    author %u at separation %g\n",
                  eager.results[i].node, eager.results[i].dist);
    }
    if (eager.results != lazy.results) {
      std::fprintf(stderr, "  MISMATCH between eager and lazy!\n");
      return 1;
    }
  }
  return 0;
}
