// Unrestricted-network RkNN (paper Section 5.2): points on edges, queries
// as positions or routes; eager / lazy / lazy-EP / eager-M vs the
// independent brute-force oracle.

#include "core/unrestricted.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/workspace.h"
#include "graph/network_view.h"
#include "test_fixtures.h"

namespace grnn::core {
namespace {

using testfix::RandomConnectedGraph;

std::vector<PointId> Ids(const RknnResult& r) {
  std::vector<PointId> ids;
  for (const PointMatch& m : r.results) {
    ids.push_back(m.point);
  }
  return ids;
}

// A small fixture in the spirit of Fig 14: a ring with chords, points at
// various positions on edges.
//
//        0 --4-- 1
//        |       |
//        6       3
//        |       |
//        3 --5-- 2
//        |       |
//        2       7
//        |       |
//        4 --8-- 5
struct UnrestrictedFixture {
  graph::Graph g;
  EdgePointSet points;
  UnrestrictedFixture(graph::Graph gg, EdgePointSet pp)
      : g(std::move(gg)), points(std::move(pp)) {}
};

UnrestrictedFixture MakeFixture() {
  auto g = graph::Graph::FromEdges(6, {{0, 1, 4.0},
                                       {1, 2, 3.0},
                                       {2, 3, 5.0},
                                       {0, 3, 6.0},
                                       {3, 4, 2.0},
                                       {2, 5, 7.0},
                                       {4, 5, 8.0}})
               .ValueOrDie();
  // p0 at 1.0 along edge (0,1); p1 at 2.0 along (2,3); p2 at 6.0 along
  // (4,5).
  auto pts = EdgePointSet::Create(g, {{0, 1, 1.0},
                                      {2, 3, 2.0},
                                      {4, 5, 6.0}})
                 .ValueOrDie();
  return UnrestrictedFixture(std::move(g), std::move(pts));
}

TEST(EdgePointSetTest, CreateValidatesPositions) {
  auto g = graph::Graph::FromEdges(3, {{0, 1, 2.0}}).ValueOrDie();
  EXPECT_TRUE(EdgePointSet::Create(g, {{0, 1, 1.0}}).ok());
  // Out of range pos, NaN and infinities included, from either end.
  EXPECT_FALSE(EdgePointSet::Create(g, {{0, 1, 3.0}}).ok());
  EXPECT_FALSE(EdgePointSet::Create(g, {{0, 1, -0.5}}).ok());
  for (double pos : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_TRUE(EdgePointSet::Create(g, {{0, 1, pos}})
                    .status()
                    .IsInvalidArgument())
        << pos;
    EXPECT_TRUE(EdgePointSet::Create(g, {{1, 0, pos}})
                    .status()
                    .IsInvalidArgument())
        << pos;
  }
  // Missing edge.
  EXPECT_FALSE(EdgePointSet::Create(g, {{0, 2, 0.5}}).ok());
  // Degenerate.
  EXPECT_FALSE(EdgePointSet::Create(g, {{1, 1, 0.0}}).ok());
}

TEST(EdgePointSetTest, CanonicalizesOrientation) {
  auto g = graph::Graph::FromEdges(3, {{0, 1, 2.0}}).ValueOrDie();
  // Position given from node 1's perspective: 0.5 from node 1.
  auto pts = EdgePointSet::Create(g, {{1, 0, 0.5}}).ValueOrDie();
  const EdgePosition& p = pts.PositionOf(0);
  EXPECT_EQ(p.u, 0u);
  EXPECT_EQ(p.v, 1u);
  EXPECT_DOUBLE_EQ(p.pos, 1.5);  // 2.0 - 0.5 from node 0
}

TEST(EdgePointSetTest, PointsOnEdgeSortedAndOrientationFree) {
  auto f = MakeFixture();
  const auto& recs = f.points.PointsOnEdge(3, 2);  // reversed lookup
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].point, 1u);
  EXPECT_TRUE(f.points.EdgeHasPoints(3, 2));
  EXPECT_FALSE(f.points.EdgeHasPoints(0, 3));
}

TEST(EdgePointSetTest, AddRemove) {
  auto f = MakeFixture();
  auto id = f.points.AddPoint(f.g, {0, 3, 1.5});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(f.points.EdgeHasPoints(0, 3));
  EXPECT_EQ(f.points.num_points(), 4u);
  ASSERT_TRUE(f.points.RemovePoint(*id).ok());
  EXPECT_FALSE(f.points.EdgeHasPoints(0, 3));
  EXPECT_FALSE(f.points.IsLive(*id));
  EXPECT_TRUE(f.points.RemovePoint(*id).IsNotFound());
}

TEST(EdgePointSetTest, ToEdgeGroupsRoundTripsThroughPointFile) {
  auto f = MakeFixture();
  storage::MemoryDiskManager disk(256);
  auto file =
      storage::PointFile::Build(&disk, f.points.ToEdgeGroups())
          .ValueOrDie();
  EXPECT_EQ(file.num_points(), f.points.num_points());
  storage::BufferPool pool(&disk, 8);
  StoredEdgePointReader stored(&file, &pool);
  MemoryEdgePointReader mem(&f.points);
  std::vector<EdgePointRecord> a, b;
  for (const Edge& e : f.g.CollectEdges()) {
    EXPECT_EQ(stored.Has(e.u, e.v), mem.Has(e.u, e.v));
    ASSERT_TRUE(stored.Read(e.u, e.v, &a).ok());
    ASSERT_TRUE(mem.Read(e.u, e.v, &b).ok());
    EXPECT_EQ(a, b);
  }
}

// Hand-checked scenario: query on edge (0,1) at pos 3.0 (1 from node 1).
// d(q,p0) = |3-1| = 2 (same edge, direct).
TEST(UnrestrictedAlgorithmsTest, SameEdgeDirectDistance) {
  auto f = MakeFixture();
  graph::GraphView view(&f.g);
  MemoryEdgePointReader reader(&f.points);
  UnrestrictedQuery q;
  q.position = {0, 1, 3.0};
  auto r = UnrestrictedBruteForceRknn(view, f.points, q).ValueOrDie();
  ASSERT_FALSE(r.results.empty());
  EXPECT_EQ(r.results[0].point, 0u);
  EXPECT_DOUBLE_EQ(r.results[0].dist, 2.0);
  SearchWorkspace ws;
  auto e = UnrestrictedEagerRknn(view, f.points, reader, q, RknnOptions{},
                                 ws)
               .ValueOrDie();
  EXPECT_EQ(Ids(e), Ids(r));
}

TEST(UnrestrictedAlgorithmsTest, AllAlgorithmsAgreeOnFixture) {
  auto f = MakeFixture();
  graph::GraphView view(&f.g);
  MemoryEdgePointReader reader(&f.points);
  MemoryKnnStore store(f.g.num_nodes(), 3);
  ASSERT_TRUE(UnrestrictedBuildAllNn(view, f.points, &store).ok());
  SearchWorkspace ws;

  for (int k = 1; k <= 3; ++k) {
    for (const Edge& e : f.g.CollectEdges()) {
      RknnOptions opts;
      opts.k = k;
      UnrestrictedQuery q;
      q.position = {e.u, e.v, e.w / 3.0};
      auto truth = UnrestrictedBruteForceRknn(view, f.points, q, opts)
                       .ValueOrDie();
      auto eager =
          UnrestrictedEagerRknn(view, f.points, reader, q, opts, ws)
              .ValueOrDie();
      auto lazy =
          UnrestrictedLazyRknn(view, f.points, reader, q, opts, ws)
              .ValueOrDie();
      auto lep =
          UnrestrictedLazyEpRknn(view, f.points, reader, q, opts, ws)
              .ValueOrDie();
      auto em = UnrestrictedEagerMRknn(view, f.points, reader, &store, q,
                                       opts, ws)
                    .ValueOrDie();
      EXPECT_EQ(Ids(eager), Ids(truth)) << "k=" << k;
      EXPECT_EQ(Ids(lazy), Ids(truth)) << "k=" << k;
      EXPECT_EQ(Ids(lep), Ids(truth)) << "k=" << k;
      EXPECT_EQ(Ids(em), Ids(truth)) << "k=" << k;
    }
  }
}

// Random sweeps: points on random edges at random positions, queries at
// data points (paper workload) and at random positions.
class UnrestrictedSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(UnrestrictedSweep, AllAlgorithmsMatchBruteForce) {
  const auto [k, seed, stored_reader] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 6151 + 3);
  auto g = RandomConnectedGraph(60, 1.0, rng);
  auto edges = g.CollectEdges();

  // ~12 points on distinct random edges (multiple points per edge are
  // exercised separately below).
  std::vector<EdgePosition> pos;
  auto chosen = rng.SampleWithoutReplacement(edges.size(), 12);
  for (uint64_t ei : chosen) {
    const Edge& e = edges[ei];
    pos.push_back({e.u, e.v, rng.Uniform(0.0, e.w)});
  }
  auto points = EdgePointSet::Create(g, pos).ValueOrDie();
  graph::GraphView view(&g);

  storage::MemoryDiskManager disk(512);
  auto pf = storage::PointFile::Build(&disk, points.ToEdgeGroups())
                .ValueOrDie();
  storage::BufferPool pool(&disk, 16);
  StoredEdgePointReader stored(&pf, &pool);
  MemoryEdgePointReader mem(&points);
  const EdgePointReader& reader =
      stored_reader ? static_cast<const EdgePointReader&>(stored)
                    : static_cast<const EdgePointReader&>(mem);

  MemoryKnnStore store(g.num_nodes(), static_cast<uint32_t>(k) + 1);
  ASSERT_TRUE(UnrestrictedBuildAllNn(view, points, &store).ok());
  SearchWorkspace ws;

  for (int trial = 0; trial < 6; ++trial) {
    RknnOptions opts;
    opts.k = k;
    UnrestrictedQuery q;
    if (trial % 2 == 0) {
      // Query at a data point, excluding it (paper workloads).
      auto live = points.LivePoints();
      PointId qp = live[rng.UniformInt(live.size())];
      q.position = points.PositionOf(qp);
      opts.exclude_point = qp;
    } else {
      const Edge& e = edges[rng.UniformInt(edges.size())];
      q.position = {e.u, e.v, rng.Uniform(0.0, e.w)};
    }

    auto truth =
        UnrestrictedBruteForceRknn(view, points, q, opts).ValueOrDie();
    auto eager = UnrestrictedEagerRknn(view, points, reader, q, opts, ws)
                     .ValueOrDie();
    auto lazy = UnrestrictedLazyRknn(view, points, reader, q, opts, ws)
                    .ValueOrDie();
    auto lep = UnrestrictedLazyEpRknn(view, points, reader, q, opts, ws)
                   .ValueOrDie();
    auto em =
        UnrestrictedEagerMRknn(view, points, reader, &store, q, opts, ws)
            .ValueOrDie();

    EXPECT_EQ(Ids(eager), Ids(truth)) << "k=" << k << " seed=" << seed
                                      << " trial=" << trial;
    EXPECT_EQ(Ids(lazy), Ids(truth)) << "k=" << k << " seed=" << seed
                                     << " trial=" << trial;
    EXPECT_EQ(Ids(lep), Ids(truth)) << "k=" << k << " seed=" << seed
                                    << " trial=" << trial;
    EXPECT_EQ(Ids(em), Ids(truth)) << "k=" << k << " seed=" << seed
                                   << " trial=" << trial;
    // Verification-based algorithms report exact distances.
    for (size_t i = 0; i < truth.results.size(); ++i) {
      EXPECT_NEAR(eager.results[i].dist, truth.results[i].dist, 1e-9);
      EXPECT_NEAR(lazy.results[i].dist, truth.results[i].dist, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnrestrictedSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 3, 4),
                                            ::testing::Bool()));

TEST(UnrestrictedAlgorithmsTest, MultiplePointsPerEdge) {
  auto g = graph::Graph::FromEdges(4, {{0, 1, 10.0},
                                       {1, 2, 4.0},
                                       {2, 3, 6.0},
                                       {0, 3, 5.0}})
               .ValueOrDie();
  // Three points crowded on edge (0,1), one elsewhere.
  auto points = EdgePointSet::Create(
                    g, {{0, 1, 2.0}, {0, 1, 5.0}, {0, 1, 9.0}, {2, 3, 3.0}})
                    .ValueOrDie();
  graph::GraphView view(&g);
  MemoryEdgePointReader reader(&points);
  SearchWorkspace ws;

  for (int k = 1; k <= 3; ++k) {
    RknnOptions opts;
    opts.k = k;
    UnrestrictedQuery q;
    q.position = {0, 1, 6.0};
    auto truth =
        UnrestrictedBruteForceRknn(view, points, q, opts).ValueOrDie();
    auto eager = UnrestrictedEagerRknn(view, points, reader, q, opts, ws)
                     .ValueOrDie();
    auto lazy = UnrestrictedLazyRknn(view, points, reader, q, opts, ws)
                    .ValueOrDie();
    EXPECT_EQ(Ids(eager), Ids(truth)) << "k=" << k;
    EXPECT_EQ(Ids(lazy), Ids(truth)) << "k=" << k;
  }
}

TEST(UnrestrictedAlgorithmsTest, RouteQueries) {
  Rng rng(71);
  auto g = RandomConnectedGraph(50, 1.2, rng);
  auto edges = g.CollectEdges();
  std::vector<EdgePosition> pos;
  auto chosen = rng.SampleWithoutReplacement(edges.size(), 10);
  for (uint64_t ei : chosen) {
    const Edge& e = edges[ei];
    pos.push_back({e.u, e.v, rng.Uniform(0.0, e.w)});
  }
  auto points = EdgePointSet::Create(g, pos).ValueOrDie();
  graph::GraphView view(&g);
  MemoryEdgePointReader reader(&points);
  SearchWorkspace ws;

  for (int trial = 0; trial < 6; ++trial) {
    RknnOptions opts;
    opts.k = 1 + static_cast<int>(rng.UniformInt(2));
    UnrestrictedQuery q;
    q.is_position = false;
    NodeId cur = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    q.route.push_back(cur);
    for (int i = 0; i < 5; ++i) {
      auto nbrs = g.Neighbors(cur);
      if (nbrs.empty()) {
        break;
      }
      cur = nbrs[rng.UniformInt(nbrs.size())].node;
      q.route.push_back(cur);
    }
    auto truth =
        UnrestrictedBruteForceRknn(view, points, q, opts).ValueOrDie();
    auto eager = UnrestrictedEagerRknn(view, points, reader, q, opts, ws)
                     .ValueOrDie();
    auto lazy = UnrestrictedLazyRknn(view, points, reader, q, opts, ws)
                    .ValueOrDie();
    auto lep = UnrestrictedLazyEpRknn(view, points, reader, q, opts, ws)
                   .ValueOrDie();
    EXPECT_EQ(Ids(eager), Ids(truth)) << "trial " << trial;
    EXPECT_EQ(Ids(lazy), Ids(truth)) << "trial " << trial;
    EXPECT_EQ(Ids(lep), Ids(truth)) << "trial " << trial;
  }
}

TEST(UnrestrictedMaintenanceTest, IncrementalEqualsRebuild) {
  Rng rng(123);
  auto g = RandomConnectedGraph(50, 1.0, rng);
  auto edges = g.CollectEdges();
  std::vector<EdgePosition> pos;
  auto chosen = rng.SampleWithoutReplacement(edges.size(), 8);
  for (uint64_t ei : chosen) {
    const Edge& e = edges[ei];
    pos.push_back({e.u, e.v, rng.Uniform(0.0, e.w)});
  }
  auto points = EdgePointSet::Create(g, pos).ValueOrDie();
  graph::GraphView view(&g);

  const uint32_t K = 2;
  MemoryKnnStore store(g.num_nodes(), K);
  ASSERT_TRUE(UnrestrictedBuildAllNn(view, points, &store).ok());

  for (int op = 0; op < 12; ++op) {
    if (rng.Bernoulli(0.5) && points.num_points() > 2) {
      auto live = points.LivePoints();
      PointId victim = live[rng.UniformInt(live.size())];
      EdgePosition old_pos = points.PositionOf(victim);
      Weight old_w = points.EdgeWeightOfPoint(victim);
      ASSERT_TRUE(points.RemovePoint(victim).ok());
      ASSERT_TRUE(UnrestrictedMaterializedDelete(view, points, victim,
                                                 old_pos, old_w, &store)
                      .ok());
    } else {
      const Edge& e = edges[rng.UniformInt(edges.size())];
      auto id = points.AddPoint(g, {e.u, e.v, rng.Uniform(0.0, e.w)});
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(
          UnrestrictedMaterializedInsert(view, points, *id, &store).ok());
    }
  }

  MemoryKnnStore fresh(g.num_nodes(), K);
  ASSERT_TRUE(UnrestrictedBuildAllNn(view, points, &fresh).ok());
  std::vector<NnEntry> a, b;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    ASSERT_TRUE(store.Read(n, &a).ok());
    ASSERT_TRUE(fresh.Read(n, &b).ok());
    ASSERT_EQ(a.size(), b.size()) << "node " << n;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].dist, b[i].dist, 1e-9) << "node " << n;
    }
  }
}

TEST(UnrestrictedAlgorithmsTest, InvalidQueries) {
  auto f = MakeFixture();
  graph::GraphView view(&f.g);
  MemoryEdgePointReader reader(&f.points);
  SearchWorkspace ws;
  UnrestrictedQuery bad_k;
  bad_k.position = {0, 1, 1.0};
  RknnOptions zero_k;
  zero_k.k = 0;
  EXPECT_FALSE(UnrestrictedEagerRknn(view, f.points, reader, bad_k,
                                     zero_k, ws)
                   .ok());

  UnrestrictedQuery no_edge;
  no_edge.position = {0, 5, 1.0};  // edge does not exist
  EXPECT_FALSE(UnrestrictedEagerRknn(view, f.points, reader, no_edge,
                                     RknnOptions{}, ws)
                   .ok());

  UnrestrictedQuery empty_route;
  empty_route.is_position = false;
  EXPECT_FALSE(UnrestrictedLazyRknn(view, f.points, reader, empty_route,
                                    RknnOptions{}, ws)
                   .ok());

  // NaN and infinite offsets lie on no edge.
  for (double pos : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    UnrestrictedQuery off_edge;
    off_edge.position = {0, 1, pos};
    const RknnOptions opts;
    EXPECT_TRUE(UnrestrictedEagerRknn(view, f.points, reader, off_edge,
                                      opts, ws)
                    .status()
                    .IsInvalidArgument())
        << pos;
    EXPECT_TRUE(UnrestrictedLazyRknn(view, f.points, reader, off_edge,
                                     opts, ws)
                    .status()
                    .IsInvalidArgument())
        << pos;
    EXPECT_TRUE(UnrestrictedLazyEpRknn(view, f.points, reader, off_edge,
                                       opts, ws)
                    .status()
                    .IsInvalidArgument())
        << pos;
    EXPECT_TRUE(UnrestrictedBruteForceRknn(view, f.points, off_edge, opts)
                    .status()
                    .IsInvalidArgument())
        << pos;
  }
}

}  // namespace
}  // namespace grnn::core
