// Sharded pin-table correctness for BufferPool (PR 3): pin/unpin and
// eviction stay confined to the page's shard, stats() snapshots sum the
// per-shard counters exactly, and a multi-threaded hammer over a real
// KnnFile keeps every read intact (the TSan CI job proves the locking).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/knn_file.h"

namespace grnn::storage {
namespace {

class BufferPoolShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<MemoryDiskManager>(128);
    for (int i = 0; i < 32; ++i) {
      auto id = disk_->AllocatePage().ValueOrDie();
      std::vector<uint8_t> data(128, static_cast<uint8_t>(i));
      ASSERT_TRUE(disk_->WritePage(id, data.data()).ok());
    }
  }

  std::unique_ptr<MemoryDiskManager> disk_;
};

TEST_F(BufferPoolShardTest, ShardCountIsClamped) {
  // Never more shards than frames; unbuffered pools keep one shard.
  EXPECT_EQ(BufferPool(disk_.get(), 8, ReplacementPolicy::kLru, 4)
                .num_shards(),
            4u);
  EXPECT_EQ(BufferPool(disk_.get(), 2, ReplacementPolicy::kLru, 8)
                .num_shards(),
            2u);
  EXPECT_EQ(BufferPool(disk_.get(), 0, ReplacementPolicy::kLru, 8)
                .num_shards(),
            1u);
  EXPECT_EQ(BufferPool(disk_.get(), 8, ReplacementPolicy::kLru, 0)
                .num_shards(),
            1u);
}

TEST_F(BufferPoolShardTest, StatsSnapshotSumsAcrossShards) {
  BufferPool pool(disk_.get(), 8, ReplacementPolicy::kLru, 4);
  // Pages 0..7 map to shards 0..3, two pages each.
  for (PageId id = 0; id < 8; ++id) {
    auto g = pool.Acquire(id).ValueOrDie();
    EXPECT_EQ(g.data()[0], id);
  }
  IoStats s = pool.stats();
  EXPECT_EQ(s.logical_reads, 8u);
  EXPECT_EQ(s.physical_reads, 8u);
  EXPECT_EQ(pool.num_resident(), 8u);
  EXPECT_EQ(pool.num_pinned(), 0u);
  // All hits now: every shard serves its own resident pages.
  for (PageId id = 0; id < 8; ++id) {
    auto g = pool.Acquire(id).ValueOrDie();
  }
  s = pool.stats();
  EXPECT_EQ(s.logical_reads, 16u);
  EXPECT_EQ(s.physical_reads, 8u);
  EXPECT_NEAR(s.HitRate(), 0.5, 1e-12);
  pool.ResetStats();
  EXPECT_EQ(pool.stats().logical_reads, 0u);
}

TEST_F(BufferPoolShardTest, EvictionStaysWithinTheShard) {
  // 2 shards x 2 frames. Shard 0 holds even pages, shard 1 odd ones.
  BufferPool pool(disk_.get(), 4, ReplacementPolicy::kLru, 2);
  { auto g = pool.Acquire(0).ValueOrDie(); }
  { auto g = pool.Acquire(2).ValueOrDie(); }
  { auto g = pool.Acquire(1).ValueOrDie(); }
  { auto g = pool.Acquire(3).ValueOrDie(); }
  EXPECT_EQ(pool.num_resident(), 4u);
  // A third even page evicts shard 0's LRU (page 0); the odd shard is
  // untouched.
  { auto g = pool.Acquire(4).ValueOrDie(); }
  pool.ResetStats();
  { auto g = pool.Acquire(1).ValueOrDie(); }  // still resident
  { auto g = pool.Acquire(3).ValueOrDie(); }  // still resident
  { auto g = pool.Acquire(2).ValueOrDie(); }  // survived in shard 0
  EXPECT_EQ(pool.stats().physical_reads, 0u);
  { auto g = pool.Acquire(0).ValueOrDie(); }  // the evicted one
  EXPECT_EQ(pool.stats().physical_reads, 1u);
}

TEST_F(BufferPoolShardTest, ExhaustionIsPerShard) {
  BufferPool pool(disk_.get(), 4, ReplacementPolicy::kLru, 2);
  // Pin both frames of shard 0 (even pages).
  auto a = pool.Acquire(0).ValueOrDie();
  auto b = pool.Acquire(2).ValueOrDie();
  auto c = pool.Acquire(4);
  ASSERT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsResourceExhausted());
  // The odd shard still has room.
  EXPECT_TRUE(pool.Acquire(1).ok());
  a.Release();
  EXPECT_TRUE(pool.Acquire(4).ok());
}

TEST_F(BufferPoolShardTest, PinFreeAcquireWaitsForATransientPin) {
  // 2 shards x 1 frame: pages 0 and 2 share shard 0's only frame.
  BufferPool pool(disk_.get(), 2, ReplacementPolicy::kLru, 2);
  std::atomic<bool> pinned{false};
  std::atomic<bool> released{false};
  std::thread holder([&] {
    auto g = pool.Acquire(0).ValueOrDie();
    pinned.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    released.store(true);
  });
  while (!pinned.load()) {
    std::this_thread::yield();
  }
  // This thread holds no pin, so it waits out the holder's instead of
  // failing with ResourceExhausted.
  auto b = pool.Acquire(2);
  EXPECT_TRUE(released.load());
  holder.join();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->data()[0], 2);
  b->Release();
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST_F(BufferPoolShardTest, OneFrameShardsServeEveryConcurrentReader) {
  // 8 threads over 8 one-frame shards: nearly every read finds its
  // shard's frame pinned by another thread for a moment.
  BufferPool pool(disk_.get(), 8, ReplacementPolicy::kLru, 8);
  ASSERT_EQ(pool.num_shards(), 8u);
  constexpr int kThreads = 8;
  constexpr int kReads = 2000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 31 + 7);
      for (int i = 0; i < kReads; ++i) {
        const PageId id = static_cast<PageId>(rng.UniformInt(32));
        auto g = pool.Acquire(id);
        if (!g.ok() || g->data()[0] != id) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.num_pinned(), 0u);
  EXPECT_EQ(pool.stats().logical_reads,
            static_cast<uint64_t>(kThreads) * kReads);
}

TEST_F(BufferPoolShardTest, DirtyPagesFlushFromEveryShard) {
  BufferPool pool(disk_.get(), 6, ReplacementPolicy::kLru, 3);
  for (PageId id = 10; id < 13; ++id) {  // one page per shard
    auto g = pool.Acquire(id).ValueOrDie();
    g.mutable_data()[1] = static_cast<uint8_t>(0xA0 + id);
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  for (PageId id = 10; id < 13; ++id) {
    std::vector<uint8_t> buf(128);
    ASSERT_TRUE(disk_->ReadPage(id, buf.data()).ok());
    EXPECT_EQ(buf[1], static_cast<uint8_t>(0xA0 + id));
    EXPECT_EQ(buf[2], static_cast<uint8_t>(id));
  }
  EXPECT_EQ(pool.stats().physical_writes, 3u);
}

TEST_F(BufferPoolShardTest, InvalidateDropsAllShards) {
  BufferPool pool(disk_.get(), 8, ReplacementPolicy::kLru, 4);
  for (PageId id = 0; id < 8; ++id) {
    auto g = pool.Acquire(id).ValueOrDie();
  }
  ASSERT_TRUE(pool.Invalidate().ok());
  EXPECT_EQ(pool.num_resident(), 0u);
}

// The hammer: many threads reading (and some rewriting) a KnnFile whose
// pages spread over every shard of a small shared pool. Readers only
// touch a node range no writer rewrites, so every observed list must be
// exactly what was stored; the shard mutexes make the interleaving safe
// (this test runs under TSan in CI).
TEST_F(BufferPoolShardTest, MultithreadedHammerKeepsListsIntact) {
  auto disk = std::make_unique<MemoryDiskManager>(256);
  constexpr NodeId kNodes = 256;
  constexpr uint32_t kK = 4;
  auto file = KnnFile::Create(disk.get(), kNodes, kK).ValueOrDie();

  // 5 lists of 48 bytes per 256-byte page: the file spans ~52 pages,
  // far more than the shard count, so traffic spreads over every shard.
  // 16 frames over 8 shards (2 per shard) keeps eviction traffic
  // constant and makes transient per-shard pin contention frequent.
  // KnnFile holds at most one pin at a time, so a full shard makes its
  // Acquire wait for a frame (a ResourceExhausted surfacing here is a
  // failure).
  BufferPool pool(disk.get(), 16, ReplacementPolicy::kLru,
                  kDefaultConcurrentShards);
  ASSERT_GT(file.num_pages(), pool.num_shards());
  // Sanity: consecutive node slots really land on different shards.
  EXPECT_NE(file.FirstPageOf(0) % pool.num_shards(),
            file.FirstPageOf(kNodes - 1) % pool.num_shards());

  auto list_of = [](NodeId n, uint32_t generation) {
    std::vector<NnEntry> list;
    for (uint32_t i = 0; i < kK; ++i) {
      list.push_back(NnEntry{n * 10 + i + generation,
                             static_cast<Weight>(n) + i});
    }
    return list;
  };
  for (NodeId n = 0; n < kNodes; ++n) {
    ASSERT_TRUE(file.Write(&pool, n, list_of(n, 0)).ok());
  }

  // Nodes [0, 128) are read-only; writers rewrite disjoint partitions of
  // [128, 256) with rising generations.
  constexpr NodeId kStable = 128;
  constexpr int kReaders = 6;
  constexpr int kWriters = 2;
  constexpr int kRounds = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 97 + 13);
      std::vector<NnEntry> list;
      for (int i = 0; i < kRounds; ++i) {
        NodeId n = static_cast<NodeId>(rng.UniformInt(kStable));
        if (!file.Read(&pool, n, &list).ok() || list != list_of(n, 0)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      const NodeId begin = kStable + static_cast<NodeId>(t) *
                                         (kNodes - kStable) / kWriters;
      const NodeId end = kStable + static_cast<NodeId>(t + 1) *
                                       (kNodes - kStable) / kWriters;
      for (int i = 0; i < kRounds; ++i) {
        NodeId n = begin + static_cast<NodeId>(i) % (end - begin);
        const uint32_t generation = static_cast<uint32_t>(i / (end - begin)) + 1;
        if (!file.Write(&pool, n, list_of(n, generation)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Logical reads saw every acquire: readers fault/hit once per page a
  // list read touches, writers once per page written. No counter lost.
  const IoStats s = pool.stats();
  EXPECT_GE(s.logical_reads,
            static_cast<uint64_t>(kReaders) * kRounds);
  EXPECT_EQ(pool.num_pinned(), 0u);
  ASSERT_TRUE(pool.FlushAll().ok());
  // After the dust settles every list is its final generation: the
  // read-only half untouched, every writer node at the generation its
  // deterministic schedule ended on (no lost or torn slot writes
  // despite concurrent same-page traffic).
  std::vector<uint32_t> final_gen(kNodes, 0);
  for (int t = 0; t < kWriters; ++t) {
    const NodeId begin = kStable + static_cast<NodeId>(t) *
                                       (kNodes - kStable) / kWriters;
    const NodeId end = kStable + static_cast<NodeId>(t + 1) *
                                     (kNodes - kStable) / kWriters;
    for (int i = 0; i < kRounds; ++i) {
      final_gen[begin + static_cast<NodeId>(i) % (end - begin)] =
          static_cast<uint32_t>(i / (end - begin)) + 1;
    }
  }
  std::vector<NnEntry> list;
  for (NodeId n = 0; n < kNodes; ++n) {
    ASSERT_TRUE(file.Read(&pool, n, &list).ok());
    EXPECT_EQ(list, list_of(n, final_gen[n])) << "node " << n;
  }
}

}  // namespace
}  // namespace grnn::storage
