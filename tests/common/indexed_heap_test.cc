#include "common/indexed_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace grnn {
namespace {

using Heap = IndexedHeap<double, int>;

TEST(IndexedHeapTest, EmptyOnConstruction) {
  Heap h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
}

TEST(IndexedHeapTest, PushPopSingle) {
  Heap h;
  h.Push(1.5, 7);
  EXPECT_FALSE(h.empty());
  EXPECT_EQ(h.size(), 1u);
  EXPECT_DOUBLE_EQ(h.top_key(), 1.5);
  auto [k, v] = h.Pop();
  EXPECT_DOUBLE_EQ(k, 1.5);
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeapTest, PopsInSortedOrder) {
  Heap h;
  std::vector<double> keys = {5, 3, 8, 1, 9, 2, 7, 4, 6, 0};
  for (double k : keys) h.Push(k, static_cast<int>(k));
  double prev = -1;
  while (!h.empty()) {
    auto [k, v] = h.Pop();
    EXPECT_GT(k, prev);
    EXPECT_EQ(v, static_cast<int>(k));
    prev = k;
  }
}

TEST(IndexedHeapTest, DuplicateKeysAllPopped) {
  Heap h;
  for (int i = 0; i < 5; ++i) h.Push(1.0, i);
  std::vector<int> values;
  while (!h.empty()) values.push_back(h.Pop().second);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(IndexedHeapTest, EraseRemovesEntry) {
  Heap h;
  auto h1 = h.Push(1.0, 1);
  auto h2 = h.Push(2.0, 2);
  auto h3 = h.Push(3.0, 3);
  EXPECT_TRUE(h.Contains(h2));
  EXPECT_TRUE(h.Erase(h2));
  EXPECT_FALSE(h.Contains(h2));
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.Pop().second, 1);
  EXPECT_EQ(h.Pop().second, 3);
  (void)h1;
  (void)h3;
}

TEST(IndexedHeapTest, EraseTopRebalances) {
  Heap h;
  auto top = h.Push(0.5, 0);
  h.Push(1.0, 1);
  h.Push(2.0, 2);
  EXPECT_TRUE(h.Erase(top));
  EXPECT_DOUBLE_EQ(h.top_key(), 1.0);
}

TEST(IndexedHeapTest, StaleHandleAfterPopIsNoOp) {
  Heap h;
  auto handle = h.Push(1.0, 1);
  h.Push(2.0, 2);
  h.Pop();  // removes the entry behind `handle`
  EXPECT_FALSE(h.Contains(handle));
  EXPECT_FALSE(h.Erase(handle));
  EXPECT_EQ(h.size(), 1u);
}

TEST(IndexedHeapTest, SlotReuseDoesNotResurrectOldHandle) {
  Heap h;
  auto old = h.Push(1.0, 1);
  h.Pop();
  // The freed slot gets reused by this push.
  auto fresh = h.Push(5.0, 5);
  EXPECT_FALSE(h.Contains(old));
  EXPECT_TRUE(h.Contains(fresh));
  EXPECT_FALSE(h.Erase(old));  // must not erase the new entry
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.Pop().second, 5);
}

TEST(IndexedHeapTest, ClearEmptiesHeap) {
  Heap h;
  for (int i = 0; i < 10; ++i) h.Push(i, i);
  h.clear();
  EXPECT_TRUE(h.empty());
  h.Push(1.0, 1);
  EXPECT_EQ(h.size(), 1u);
}

// Randomized differential test against a reference model with
// interleaved pops and erases.
TEST(IndexedHeapTest, StressAgainstReference) {
  Rng rng(99);
  Heap h;
  // Reference model: map from live handle index to key.
  std::vector<std::pair<Heap::Handle, double>> live;

  for (int round = 0; round < 20000; ++round) {
    double action = rng.Uniform01();
    if (action < 0.5 || live.empty()) {
      double key = rng.Uniform(0, 1000);
      auto handle = h.Push(key, round);
      live.emplace_back(handle, key);
    } else if (action < 0.7) {
      // Pop: must equal the min of the model.
      size_t min_idx = 0;
      for (size_t i = 1; i < live.size(); ++i) {
        if (live[i].second < live[min_idx].second) min_idx = i;
      }
      auto [k, v] = h.Pop();
      EXPECT_DOUBLE_EQ(k, live[min_idx].second);
      live.erase(live.begin() + static_cast<long>(min_idx));
      (void)v;
    } else {
      // Erase a random live entry.
      size_t idx = static_cast<size_t>(rng.UniformInt(live.size()));
      EXPECT_TRUE(h.Erase(live[idx].first));
      live.erase(live.begin() + static_cast<long>(idx));
    }
    EXPECT_EQ(h.size(), live.size());
  }
  // Drain and confirm sorted order.
  double prev = -1;
  while (!h.empty()) {
    auto [k, v] = h.Pop();
    EXPECT_GE(k, prev);
    prev = k;
    (void)v;
  }
}

}  // namespace
}  // namespace grnn
