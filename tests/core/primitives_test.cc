#include "core/primitives.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/network_view.h"
#include "test_fixtures.h"

namespace grnn::core {
namespace {

using testfix::PaperExample;

TEST(RangeNnTest, PaperExampleRangeSevenExcludesBoundary) {
  // range-NN(n4, 1, 7) has no results: the NN p1 of n4 is at distance
  // exactly 7 >= e (Section 3.1's own example).
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  SearchStats stats;
  std::vector<NnResult> hits;
  ASSERT_TRUE(searcher
                  .RangeNnInto(/*source=*/3, 1, 7.0, kInvalidPoint, &stats,
                               &hits)
                  .ok());
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(stats.range_nn_calls, 1u);
}

TEST(RangeNnTest, PaperExampleRangeEightFindsP1) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  std::vector<NnResult> hits;
  ASSERT_TRUE(
      searcher.RangeNnInto(3, 1, 7.5, kInvalidPoint, nullptr, &hits).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].point, 0u);  // p1
  EXPECT_DOUBLE_EQ(hits[0].dist, 7.0);
}

TEST(RangeNnTest, RangeNnAroundN3FindsP1AtThree) {
  // Eager's first range-NN in the walkthrough: range-NN(n3, 1, 4) -> p1@3.
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  std::vector<NnResult> hits;
  ASSERT_TRUE(
      searcher.RangeNnInto(2, 1, 4.0, kInvalidPoint, nullptr, &hits).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].point, 0u);
  EXPECT_DOUBLE_EQ(hits[0].dist, 3.0);
}

TEST(RangeNnTest, KLimitsResults) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  std::vector<NnResult> one;
  ASSERT_TRUE(
      searcher.RangeNnInto(3, 1, 100.0, kInvalidPoint, nullptr, &one).ok());
  EXPECT_EQ(one.size(), 1u);
  std::vector<NnResult> all;
  ASSERT_TRUE(
      searcher.RangeNnInto(3, 5, 100.0, kInvalidPoint, nullptr, &all).ok());
  ASSERT_EQ(all.size(), 3u);
  // Ascending by distance: p1@7, p2@8, p3@9.
  EXPECT_EQ(all[0].point, 0u);
  EXPECT_EQ(all[1].point, 1u);
  EXPECT_EQ(all[2].point, 2u);
  EXPECT_DOUBLE_EQ(all[2].dist, 9.0);
}

TEST(RangeNnTest, ExcludePointSkipsIt) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  std::vector<NnResult> hits;
  ASSERT_TRUE(
      searcher.RangeNnInto(3, 1, 100.0, /*exclude=*/0, nullptr, &hits).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].point, 1u);  // p2 instead of excluded p1
}

TEST(RangeNnTest, ZeroOrNegativeRangeIsEmpty) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  std::vector<NnResult> hits{NnResult{}};  // replaced, not appended to
  ASSERT_TRUE(
      searcher.RangeNnInto(3, 1, 0.0, kInvalidPoint, nullptr, &hits).ok());
  EXPECT_TRUE(hits.empty());
}

TEST(RangeNnTest, InvalidArguments) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  std::vector<NnResult> hits;
  EXPECT_FALSE(
      searcher.RangeNnInto(99, 1, 1.0, kInvalidPoint, nullptr, &hits).ok());
  EXPECT_FALSE(
      searcher.RangeNnInto(0, 0, 1.0, kInvalidPoint, nullptr, &hits).ok());
}

TEST(VerifyTest, PaperExampleP1IsRnn) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  SearchStats stats;
  auto v = searcher.Verify(/*candidate=*/0, 1, {3}, kInvalidPoint, &stats)
               .ValueOrDie();
  EXPECT_TRUE(v.is_rknn);
  EXPECT_DOUBLE_EQ(v.dist_to_query, 7.0);
  EXPECT_EQ(stats.verify_calls, 1u);
}

TEST(VerifyTest, PaperExampleP2IsRnn) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  auto v =
      searcher.Verify(1, 1, {3}, kInvalidPoint, nullptr).ValueOrDie();
  EXPECT_TRUE(v.is_rknn);
  EXPECT_DOUBLE_EQ(v.dist_to_query, 8.0);
}

TEST(VerifyTest, PaperExampleP3IsNotRnn) {
  // d(p3, q) = 9 but d(p3, p1) = 8 < 9.
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  auto v =
      searcher.Verify(2, 1, {3}, kInvalidPoint, nullptr).ValueOrDie();
  EXPECT_FALSE(v.is_rknn);
}

TEST(VerifyTest, P3IsR2nn) {
  // With k = 2, one closer competitor is allowed.
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  auto v =
      searcher.Verify(2, 2, {3}, kInvalidPoint, nullptr).ValueOrDie();
  EXPECT_TRUE(v.is_rknn);
  EXPECT_DOUBLE_EQ(v.dist_to_query, 9.0);
}

TEST(VerifyTest, MultiSourceUsesNearestQueryNode) {
  // Route {n4, n3}: d(p1, r) = min(7, 3) = 3.
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  auto v =
      searcher.Verify(0, 1, {3, 2}, kInvalidPoint, nullptr).ValueOrDie();
  EXPECT_TRUE(v.is_rknn);
  EXPECT_DOUBLE_EQ(v.dist_to_query, 3.0);
}

TEST(VerifyTest, DisconnectedQueryFails) {
  auto g =
      graph::Graph::FromEdges(4, {{0, 1, 1.0}, {2, 3, 1.0}}).ValueOrDie();
  auto pts = NodePointSet::FromLocations(4, {0}).ValueOrDie();
  graph::GraphView view(&g);
  NnSearcher searcher(&view, &pts);
  auto v =
      searcher.Verify(0, 1, {3}, kInvalidPoint, nullptr).ValueOrDie();
  EXPECT_FALSE(v.is_rknn);
  EXPECT_EQ(v.dist_to_query, kInfinity);
}

TEST(VerifyTest, InvalidCandidateFails) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  EXPECT_FALSE(searcher.Verify(99, 1, {3}, kInvalidPoint, nullptr).ok());
  EXPECT_FALSE(searcher.Verify(0, 1, {}, kInvalidPoint, nullptr).ok());
  EXPECT_FALSE(searcher.Verify(0, 1, {99}, kInvalidPoint, nullptr).ok());
}

TEST(StampedStructuresTest, ResetInvalidatesEntries) {
  StampedDistances d;
  d.Reset(4);
  d.Set(1, 2.5);
  EXPECT_TRUE(d.Has(1));
  EXPECT_DOUBLE_EQ(d.Get(1), 2.5);
  EXPECT_EQ(d.Get(0), kInfinity);
  d.Reset(4);
  EXPECT_FALSE(d.Has(1));

  StampedSet s;
  s.Reset(4);
  s.Insert(2);
  EXPECT_TRUE(s.Contains(2));
  EXPECT_FALSE(s.Contains(1));
  s.Reset(4);
  EXPECT_FALSE(s.Contains(2));
}

TEST(StampedStructuresTest, GrowsAcrossResets) {
  StampedSet s;
  s.Reset(2);
  s.Insert(1);
  s.Reset(10);
  s.Insert(9);
  EXPECT_TRUE(s.Contains(9));
  EXPECT_FALSE(s.Contains(1));
}

// capacity() feeds the engine's workspace_grows counter, so it must
// move only when memory is really allocated. A bound creeping up by one
// per Reset — a fresh point id per insert — reallocates geometrically:
// about log2(1000) = 10 times over 1000 steps, not 1000 times.
TEST(StampedStructuresTest, CapacityGrowsGeometricallyUnderCreepingBound) {
  StampedDistances d;
  StampedSet s;
  size_t d_changes = 0;
  size_t s_changes = 0;
  size_t d_cap = d.capacity();
  size_t s_cap = s.capacity();
  for (size_t n = 1; n <= 1000; ++n) {
    d.Reset(n);
    s.Reset(n);
    d.Set(static_cast<NodeId>(n - 1), 1.0);
    s.Insert(static_cast<NodeId>(n - 1));
    EXPECT_GE(d.capacity(), n);
    EXPECT_GE(s.capacity(), n);
    d_changes += d.capacity() != d_cap ? 1 : 0;
    s_changes += s.capacity() != s_cap ? 1 : 0;
    d_cap = d.capacity();
    s_cap = s.capacity();
  }
  EXPECT_LE(d_changes, 20u);
  EXPECT_LE(s_changes, 20u);
}

}  // namespace
}  // namespace grnn::core
