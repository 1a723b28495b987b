// LabelFile round-trip and pin discipline: build -> persist -> reopen
// must answer identical Query(u,v) for sampled pairs on the paper's
// graph families, stored scans must match the in-memory index
// entry-for-entry on every page-size/pool configuration (64-frame pool,
// 8-frame pool, page-straddling labels), no code path —
// including early exits — may leak a buffer-pool pin (the
// network_view_conformance pattern), and corrupt headers, directories
// or label blobs must surface as Status::Corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/point_set.h"
#include "gen/brite.h"
#include "gen/grid.h"
#include "gen/road_network.h"
#include "graph/network_view.h"
#include "index/hub_label.h"
#include "index/label_file.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace grnn::index {
namespace {

graph::Graph WorldGraph(int family, uint64_t seed) {
  switch (family) {
    case 0: {
      gen::GridConfig cfg;
      cfg.rows = 8;
      cfg.cols = 8;
      cfg.avg_degree = 4.5;
      cfg.seed = seed;
      return gen::GenerateGrid(cfg).ValueOrDie();
    }
    case 1: {
      gen::BriteConfig cfg;
      cfg.num_nodes = 70;
      cfg.unit_weights = true;
      cfg.seed = seed;
      return gen::GenerateBrite(cfg).ValueOrDie();
    }
    default: {
      gen::RoadConfig cfg;
      cfg.num_nodes = 80;
      cfg.seed = seed;
      return gen::GenerateRoadNetwork(cfg).ValueOrDie().g;
    }
  }
}

HubLabelIndex BuildIndex(const graph::Graph& g) {
  graph::GraphView view(&g);
  return HubLabelBuilder::Build(view).ValueOrDie();
}

void ExpectStoredScansMatch(const HubLabelIndex& memory,
                            const LabelFile& file,
                            storage::BufferPool* pool) {
  StoredLabelIndex stored(&file, pool);
  ASSERT_EQ(stored.num_nodes(), memory.num_nodes());
  ASSERT_EQ(stored.num_entries(), memory.num_entries());
  LabelCursor cursor;
  for (NodeId n = 0; n < memory.num_nodes(); ++n) {
    auto span = stored.Scan(n, cursor).ValueOrDie();
    auto want = memory.Label(n);
    ASSERT_EQ(span.size(), want.size()) << "node " << n;
    EXPECT_TRUE(std::equal(span.begin(), span.end(), want.begin()))
        << "node " << n;
    EXPECT_EQ(pool->num_pinned(), 0u) << "node " << n;
  }
}

// Raw page access for the corruption cases below.
std::vector<uint8_t> ReadRaw(storage::DiskManager& disk, PageId page) {
  std::vector<uint8_t> buf(disk.page_size());
  EXPECT_TRUE(disk.ReadPage(page, buf.data()).ok());
  return buf;
}

void WriteRaw(storage::DiskManager& disk, PageId page,
              const std::vector<uint8_t>& buf) {
  ASSERT_TRUE(disk.WritePage(page, buf.data()).ok());
}

// Directory entry of node `n` (directory pages follow the header page).
LabelDirectoryEntry DirectoryEntryOf(storage::DiskManager& disk,
                                     const LabelFile& file, NodeId n) {
  const size_t per_page = disk.page_size() / sizeof(LabelDirectoryEntry);
  const auto buf = ReadRaw(
      disk, file.first_page() + 1 + static_cast<PageId>(n / per_page));
  LabelDirectoryEntry e;
  std::memcpy(&e, buf.data() + (n % per_page) * sizeof(e), sizeof(e));
  return e;
}

TEST(LabelFile, StoredScansMatchMemoryOnAllWorlds) {
  for (int family = 0; family < 3; ++family) {
    auto g = WorldGraph(family, 1 + static_cast<uint64_t>(family));
    auto index = BuildIndex(g);
    // 512-byte pages: plenty of multi-label pages and some straddling
    // labels behind a 64-frame pool.
    storage::MemoryDiskManager disk(512);
    auto file = LabelFile::Build(index, &disk).ValueOrDie();
    storage::BufferPool pool(&disk, 64);
    ExpectStoredScansMatch(index, file, &pool);
  }
}

TEST(LabelFile, TinyPagesForceStraddlingAndStillMatch) {
  auto g = WorldGraph(1, 5);
  auto index = BuildIndex(g);
  // 64-byte pages leave 48 payload bytes behind the header; a label of
  // 6+ entries (>= 54 bytes) straddles pages and takes the assemble path.
  storage::MemoryDiskManager disk(64);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  bool straddles = false;
  for (NodeId n = 0; n < index.num_nodes() && !straddles; ++n) {
    straddles = index.LabelSize(n) > 5;
  }
  EXPECT_TRUE(straddles) << "world too small to exercise straddling";
  storage::BufferPool pool(&disk, 64);
  ExpectStoredScansMatch(index, file, &pool);
}

TEST(LabelFile, CopyModePoolHoldsNoPins) {
  auto g = WorldGraph(0, 3);
  auto index = BuildIndex(g);
  storage::MemoryDiskManager disk(512);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  // A small 8-frame pool: every scan copies + unpins.
  storage::BufferPool pool(&disk, 8);
  StoredLabelIndex stored(&file, &pool);
  LabelCursor cursor;
  for (NodeId n = 0; n < stored.num_nodes(); ++n) {
    auto span = stored.Scan(n, cursor).ValueOrDie();
    auto want = index.Label(n);
    ASSERT_EQ(span.size(), want.size());
    EXPECT_TRUE(std::equal(span.begin(), span.end(), want.begin()));
    EXPECT_EQ(pool.num_pinned(), 0u) << "node " << n;
  }
}

TEST(LabelFile, EarlyExitPathsLeakNoPins) {
  auto g = WorldGraph(0, 6);
  auto index = BuildIndex(g);
  storage::MemoryDiskManager disk(512);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  storage::BufferPool pool(&disk, 64);
  StoredLabelIndex stored(&file, &pool);
  LabelCursor cursor, aux;
  // A good scan, then a rejected one: neither leaves a pin behind.
  ASSERT_TRUE(stored.Scan(0, cursor).ok());
  EXPECT_EQ(pool.num_pinned(), 0u);
  EXPECT_TRUE(
      stored.Scan(stored.num_nodes(), cursor).status().IsOutOfRange());
  EXPECT_EQ(pool.num_pinned(), 0u);
  // Pairwise lookup with a bad second node: the first scan's pin was
  // dropped before the second scan failed.
  EXPECT_FALSE(
      QueryViaStore(stored, 1, stored.num_nodes(), cursor, aux).ok());
  EXPECT_EQ(pool.num_pinned(), 0u);
  // Null pool rejected before any acquire.
  EXPECT_TRUE(file.ScanLabel(nullptr, 0, cursor)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST(LabelFile, FileDiskRoundTripAnswersIdenticalQueries) {
  for (int family = 0; family < 3; ++family) {
    const uint64_t seed = 11 + static_cast<uint64_t>(family);
    auto g = WorldGraph(family, seed);
    auto index = BuildIndex(g);
    const std::string path = testing::TempDir() + "/grnn_labels_" +
                             std::to_string(family) + ".pages";
    std::remove(path.c_str());
    PageId first_page = kInvalidPage;
    {
      auto disk = storage::FileDiskManager::Open(path).ValueOrDie();
      auto file = LabelFile::Build(index, &disk).ValueOrDie();
      first_page = file.first_page();
    }
    // Reopen from disk: the directory alone must reconstruct the index.
    auto disk = storage::FileDiskManager::Open(path).ValueOrDie();
    auto file = LabelFile::Open(&disk, first_page).ValueOrDie();
    ASSERT_EQ(file.num_nodes(), index.num_nodes());
    ASSERT_EQ(file.num_entries(), index.num_entries());
    storage::BufferPool pool(&disk, 64);
    StoredLabelIndex stored(&file, &pool);
    LabelCursor cu, cv;
    Rng rng(seed * 77 + 1);
    for (int i = 0; i < 200; ++i) {
      NodeId u = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
      // Identical, not just close: the reopened file serves the same
      // label bytes, so the merged distance is bit-for-bit equal.
      EXPECT_EQ(QueryViaStore(stored, u, v, cu, cv).ValueOrDie(),
                index.Query(u, v))
          << "family=" << family << " u=" << u << " v=" << v;
    }
    EXPECT_EQ(pool.num_pinned(), 0u);
    std::remove(path.c_str());
  }
}

TEST(LabelFile, OpenRejectsCorruptHeaders) {
  auto g = WorldGraph(0, 9);
  auto index = BuildIndex(g);
  storage::MemoryDiskManager disk(512);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  // Wrong first page (a data page): bad magic.
  EXPECT_TRUE(LabelFile::Open(&disk, file.first_page() + 1)
                  .status()
                  .IsCorruption());
  // Out-of-range page id.
  EXPECT_TRUE(
      LabelFile::Open(&disk, static_cast<PageId>(disk.num_pages()))
          .status()
          .IsOutOfRange());
}

TEST(LabelFile, OpenRejectsVersionOneHeader) {
  auto g = WorldGraph(0, 9);
  auto index = BuildIndex(g);
  storage::MemoryDiskManager disk(512);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  auto buf = ReadRaw(disk, file.first_page());
  LabelFileHeader header;
  std::memcpy(&header, buf.data(), sizeof(header));
  ASSERT_EQ(header.version, kLabelFileVersion);
  // The retired 16-byte-record format: v3 is the only one read.
  header.version = 1;
  std::memcpy(buf.data(), &header, sizeof(header));
  WriteRaw(disk, file.first_page(), buf);
  EXPECT_TRUE(LabelFile::Open(&disk, file.first_page()).status()
                  .IsCorruption());
}

TEST(LabelFile, OpenRejectsImpossibleDirectoryEntries) {
  auto g = WorldGraph(0, 10);
  auto index = BuildIndex(g);
  storage::MemoryDiskManager disk(512);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  const PageId dir_page = file.first_page() + 1;
  const auto pristine = ReadRaw(disk, dir_page);
  const auto open_with = [&](auto mutate) {
    auto buf = pristine;
    LabelDirectoryEntry e;
    std::memcpy(&e, buf.data(), sizeof(e));  // node 0
    mutate(e);
    std::memcpy(buf.data(), &e, sizeof(e));
    WriteRaw(disk, dir_page, buf);
    return LabelFile::Open(&disk, file.first_page()).status();
  };
  ASSERT_TRUE(open_with([](LabelDirectoryEntry&) {}).ok());
  // A count its blob cannot encode (>= 9 bytes per entry).
  EXPECT_TRUE(open_with([](LabelDirectoryEntry& e) {
                e.count = 1u << 30;
              }).IsCorruption());
  // A blob length beyond 13 bytes per entry.
  EXPECT_TRUE(open_with([](LabelDirectoryEntry& e) {
                e.bytes = e.count * 13 + 1;
              }).IsCorruption());
  // A blob running past the last data page.
  EXPECT_TRUE(open_with([&](LabelDirectoryEntry& e) {
                e.offset = file.num_pages() * disk.page_size() - 4;
              }).IsCorruption());
  // A blob starting inside the header or directory pages.
  EXPECT_TRUE(open_with([&](LabelDirectoryEntry& e) {
                e.offset = kLabelPageHeaderBytes;
              }).IsCorruption());
}

// A flipped varint byte must not decode into hub ids past the node
// range (they index HubPointIndex runs): the scan reports Corruption,
// and an engine built over the file fails Create cleanly.
TEST(LabelFile, CorruptBlobsFailScansWithCorruption) {
  auto g = WorldGraph(0, 12);  // 64 nodes
  auto index = BuildIndex(g);
  ASSERT_GT(index.LabelSize(0), 1u);
  ASSERT_EQ(index.Label(0)[0].hub, 0u);  // every label covers its node
  storage::MemoryDiskManager disk(512);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  const LabelDirectoryEntry e = DirectoryEntryOf(disk, file, 0);
  ASSERT_GE(e.bytes, 5u);
  const PageId page =
      file.first_page() + static_cast<PageId>(e.offset / disk.page_size());
  const auto pristine = ReadRaw(disk, page);
  // Rewrites the first bytes of node 0's blob and scans it.
  const auto scan_with = [&](const std::vector<uint8_t>& bytes) {
    auto buf = pristine;
    std::memcpy(buf.data() + e.offset % disk.page_size(), bytes.data(),
                bytes.size());
    WriteRaw(disk, page, buf);
    storage::BufferPool pool(&disk, 16);
    LabelCursor cursor;
    const Status st = file.ScanLabel(&pool, 0, cursor).status();
    EXPECT_EQ(pool.num_pinned(), 0u);
    return st;
  };
  ASSERT_TRUE(scan_with({0x00}).ok());
  // First hub 0 -> 127: every hub id lands past the 64-node range.
  EXPECT_TRUE(scan_with({0x7f}).IsCorruption());
  // Second delta 0: a repeated hub id.
  EXPECT_TRUE(scan_with({0x00, 0x00}).IsCorruption());
  // A five-byte varint whose last byte overflows 32 bits.
  EXPECT_TRUE(scan_with({0x80, 0x80, 0x80, 0x80, 0x10}).IsCorruption());

  scan_with({0x7f});
  core::NodePointSet points(g.num_nodes());
  ASSERT_TRUE(points.AddPoint(0).ok());
  ASSERT_TRUE(points.AddPoint(9).ok());
  graph::GraphView view(&g);
  storage::BufferPool pool(&disk, 16);
  StoredLabelIndex stored(&file, &pool);
  core::EngineSources sources;
  sources.graph = &view;
  sources.points = &points;
  sources.hub_labels = &stored;
  sources.pool = &pool;
  auto engine = core::RknnEngine::Create(sources);
  EXPECT_TRUE(engine.status().IsCorruption()) << engine.status().ToString();
  EXPECT_EQ(pool.num_pinned(), 0u);
}

// ---------------------------------------------------------------------
// v3 delta blobs: varint hub-id deltas + grouped raw distances, decoded
// into the cursor — scans must match the memory index entry-for-entry
// on fresh seeds and never hold a pin.

TEST(LabelFileDelta, StoredScansMatchMemoryOnAllWorlds) {
  for (int family = 0; family < 3; ++family) {
    auto g = WorldGraph(family, 31 + static_cast<uint64_t>(family));
    auto index = BuildIndex(g);
    storage::MemoryDiskManager disk(512);
    auto file = LabelFile::Build(index, &disk).ValueOrDie();
    storage::BufferPool pool(&disk, 64);
    ExpectStoredScansMatch(index, file, &pool);
  }
}

TEST(LabelFileDelta, ScansNeverLeaseAndTinyPagesStraddle) {
  auto g = WorldGraph(1, 35);
  auto index = BuildIndex(g);
  // 64-byte pages leave 48 payload bytes; any label beyond a handful of
  // entries spills onto follow-up pages and takes the byte-assembly path.
  storage::MemoryDiskManager disk(64);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  storage::BufferPool pool(&disk, 64);
  StoredLabelIndex stored(&file, &pool);
  LabelCursor cursor;
  for (NodeId n = 0; n < stored.num_nodes(); ++n) {
    auto span = stored.Scan(n, cursor).ValueOrDie();
    auto want = index.Label(n);
    ASSERT_EQ(span.size(), want.size()) << "node " << n;
    EXPECT_TRUE(std::equal(span.begin(), span.end(), want.begin()))
        << "node " << n;
    // Scans decode into the cursor even when the pool has frames to
    // spare.
    EXPECT_EQ(pool.num_pinned(), 0u) << "node " << n;
  }
}

TEST(LabelFileDelta, FileDiskReopenPreservesLayoutAndBytes) {
  auto g = WorldGraph(2, 51);
  auto index = BuildIndex(g);
  const std::string path = testing::TempDir() + "/grnn_labels_v3.pages";
  std::remove(path.c_str());
  PageId first_page = kInvalidPage;
  size_t built_pages = 0;
  {
    auto disk = storage::FileDiskManager::Open(path).ValueOrDie();
    auto file = LabelFile::Build(index, &disk).ValueOrDie();
    first_page = file.first_page();
    built_pages = file.num_pages();
  }
  auto disk = storage::FileDiskManager::Open(path).ValueOrDie();
  auto file = LabelFile::Open(&disk, first_page).ValueOrDie();
  // The header alone reconstructs the byte-granular node index; every
  // label must come back entry-for-entry.
  EXPECT_EQ(file.num_pages(), built_pages);
  ASSERT_EQ(file.num_nodes(), index.num_nodes());
  ASSERT_EQ(file.num_entries(), index.num_entries());
  storage::BufferPool pool(&disk, 64);
  ExpectStoredScansMatch(index, file, &pool);
  std::remove(path.c_str());
}

TEST(LabelFile, BuildValidatesInput) {
  auto g = WorldGraph(0, 2);
  auto index = BuildIndex(g);
  EXPECT_TRUE(
      LabelFile::Build(index, nullptr).status().IsInvalidArgument());
  HubLabelIndex empty;
  storage::MemoryDiskManager disk(512);
  EXPECT_TRUE(
      LabelFile::Build(empty, &disk).status().IsInvalidArgument());
}

}  // namespace
}  // namespace grnn::index
