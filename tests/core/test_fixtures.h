// Shared graph fixtures for core tests.
//
// PaperExample() reconstructs the running example of the paper (Fig 3):
// nodes n1..n7 (ids 0..6), data points p1@n6, p2@n5, p3@n7, query at n4.
// Edge weights are chosen to satisfy every distance the text mentions:
//   d(q,n3) = 4, d(q,n1) = 5, d(n3,p1) = 3, d(n1,p2) = 3, d(q,p1) = 7,
//   d(q,p2) = 8, and q = NN(p1) = NN(p2), so RNN(q) = {p1, p2}.
//
// RunSerially() is the serial reference the engine tests compare
// concurrent and stored runs against: every spec through Run, in order.

#ifndef GRNN_TESTS_CORE_TEST_FIXTURES_H_
#define GRNN_TESTS_CORE_TEST_FIXTURES_H_

#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/point_set.h"
#include "core/types.h"
#include "graph/connectivity.h"
#include "graph/graph.h"

namespace grnn::core::testfix {

struct Fixture {
  graph::Graph g;
  NodePointSet points{0};
  NodeId query_node = kInvalidNode;
};

// Paper ids -> 0-based: n1..n7 = 0..6. Points: p1 = 0 @ n6(5),
// p2 = 1 @ n5(4), p3 = 2 @ n7(6). Query node n4 = 3 (empty).
inline Fixture PaperExample() {
  Fixture f;
  f.g = graph::Graph::FromEdges(7, {{3, 2, 4.0},    // n4-n3
                                    {3, 0, 5.0},    // n4-n1
                                    {2, 5, 3.0},    // n3-n6
                                    {2, 6, 5.0},    // n3-n7
                                    {5, 1, 4.0},    // n6-n2
                                    {1, 4, 5.0},    // n2-n5
                                    {4, 0, 3.0}})   // n5-n1
            .ValueOrDie();
  f.points =
      NodePointSet::FromLocations(7, {5, 4, 6}).ValueOrDie();
  f.query_node = 3;
  return f;
}

// Random connected graph: a spanning random tree plus extra random edges,
// with weights in [0.5, 10] (or unit weights when unit == true).
inline graph::Graph RandomConnectedGraph(NodeId n, double extra_edge_factor,
                                         Rng& rng, bool unit = false) {
  std::vector<Edge> edges;
  auto weight = [&]() {
    return unit ? 1.0 : rng.Uniform(0.5, 10.0);
  };
  for (NodeId v = 1; v < n; ++v) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(v));
    edges.push_back({u, v, weight()});
  }
  const size_t extra =
      static_cast<size_t>(extra_edge_factor * static_cast<double>(n));
  size_t attempts = 0;
  auto g0 = graph::Graph::FromEdges(n, edges).ValueOrDie();
  size_t added = 0;
  while (added < extra && attempts < extra * 20) {
    ++attempts;
    NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v) {
      continue;
    }
    bool dup = false;
    for (const Edge& e : edges) {
      if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) {
        dup = true;
        break;
      }
    }
    if (dup) {
      continue;
    }
    edges.push_back({u, v, weight()});
    ++added;
  }
  return graph::Graph::FromEdges(n, edges).ValueOrDie();
}

// Places points on `count` distinct random nodes.
inline NodePointSet RandomPoints(NodeId num_nodes, size_t count, Rng& rng) {
  auto nodes = rng.SampleWithoutReplacement(num_nodes, count);
  std::vector<NodeId> locations(nodes.begin(), nodes.end());
  return NodePointSet::FromLocations(num_nodes, locations).ValueOrDie();
}

// Point-id projection for result comparisons.
inline std::vector<PointId> Ids(const RknnResult& r) {
  std::vector<PointId> ids;
  ids.reserve(r.results.size());
  for (const PointMatch& m : r.results) {
    ids.push_back(m.point);
  }
  return ids;
}

// The answers of a spec list run one query at a time, plus their summed
// search counters.
struct SerialRun {
  std::vector<RknnResult> results;
  SearchStats stats;
};

// Runs every spec through engine.Run in order; fails on the first
// failing spec.
inline Result<SerialRun> RunSerially(RknnEngine& engine,
                                     std::span<const QuerySpec> specs) {
  SerialRun out;
  out.results.reserve(specs.size());
  for (const QuerySpec& spec : specs) {
    GRNN_ASSIGN_OR_RETURN(RknnResult r, engine.Run(spec));
    out.stats += r.stats;
    out.results.push_back(std::move(r));
  }
  return out;
}

}  // namespace grnn::core::testfix

#endif  // GRNN_TESTS_CORE_TEST_FIXTURES_H_
