#include "storage/graph_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/point_set.h"
#include "gen/grid.h"
#include "graph/network_view.h"
#include "storage/stored_graph.h"

namespace grnn::storage {
namespace {

graph::Graph PaperFig3() {
  return graph::Graph::FromEdges(7, {{0, 3, 5.0},
                                     {0, 4, 3.0},
                                     {0, 1, 2.0},
                                     {1, 4, 2.0},
                                     {1, 5, 3.0},
                                     {2, 3, 4.0},
                                     {2, 5, 3.0},
                                     {2, 6, 5.0},
                                     {4, 6, 6.0}})
      .ValueOrDie();
}

graph::Graph RandomGraph(NodeId n, double p, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) {
        edges.push_back({u, v, rng.Uniform(0.1, 9.9)});
      }
    }
  }
  return graph::Graph::FromEdges(n, edges).ValueOrDie();
}

// Scans through a fresh cursor and materializes the span.
std::vector<AdjEntry> ScanList(const GraphFile& file, BufferPool* pool,
                               NodeId n) {
  graph::NeighborCursor cursor;
  auto span = file.ScanNeighbors(pool, n, cursor);
  EXPECT_TRUE(span.ok()) << span.status().ToString();
  return {span->begin(), span->end()};
}

const char* LayoutSuffix(PageLayout layout) {
  return layout == PageLayout::kV1Packed ? "V1" : "V2";
}

class GraphFileTest
    : public ::testing::TestWithParam<std::tuple<NodeOrder, PageLayout>> {
 protected:
  NodeOrder order() const { return std::get<0>(GetParam()); }
  PageLayout layout() const { return std::get<1>(GetParam()); }
};

TEST_P(GraphFileTest, RoundTripsAdjacency) {
  auto g = PaperFig3();
  MemoryDiskManager disk(128);
  GraphFileOptions opts;
  opts.order = order();
  opts.layout = layout();
  auto file = GraphFile::Build(g, &disk, opts).ValueOrDie();
  BufferPool pool(&disk, 8);

  EXPECT_EQ(file.num_nodes(), g.num_nodes());
  EXPECT_EQ(file.num_edges(), g.num_edges());
  EXPECT_EQ(file.layout(), layout());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    auto nbrs = ScanList(file, &pool, n);
    auto want = g.Neighbors(n);
    ASSERT_EQ(nbrs.size(), want.size()) << "node " << n;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(nbrs[i].node, want[i].node);
      EXPECT_DOUBLE_EQ(nbrs[i].weight, want[i].weight);
    }
  }
  EXPECT_EQ(pool.num_pinned(), 0u);  // ScanList's cursors are gone
}

INSTANTIATE_TEST_SUITE_P(
    AllOrdersAndLayouts, GraphFileTest,
    ::testing::Combine(::testing::Values(NodeOrder::kBfs,
                                         NodeOrder::kNatural,
                                         NodeOrder::kRandom),
                       ::testing::Values(PageLayout::kV1Packed,
                                         PageLayout::kV2Aligned)),
    [](const auto& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case NodeOrder::kBfs:
          name = "Bfs";
          break;
        case NodeOrder::kNatural:
          name = "Natural";
          break;
        default:
          name = "Random";
          break;
      }
      return name + LayoutSuffix(std::get<1>(info.param));
    });

class GraphFileLayoutTest : public ::testing::TestWithParam<PageLayout> {};

TEST_P(GraphFileLayoutTest, DegreesMatch) {
  auto g = PaperFig3();
  MemoryDiskManager disk(128);
  GraphFileOptions opts;
  opts.layout = GetParam();
  auto file = GraphFile::Build(g, &disk, opts).ValueOrDie();
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(file.Degree(n), g.Degree(n));
  }
}

TEST_P(GraphFileLayoutTest, PaddedListsDoNotStraddlePages) {
  // 128-byte page: v1 holds 10 packed 12-byte entries, v2 holds 7
  // aligned records behind the 16-byte header.
  auto g = RandomGraph(40, 0.2, 11);
  MemoryDiskManager disk(128);
  GraphFileOptions opts;
  opts.layout = GetParam();
  auto file = GraphFile::Build(g, &disk, opts).ValueOrDie();
  const size_t max_per_page =
      GetParam() == PageLayout::kV1Packed
          ? 128 / kAdjEntryBytes
          : (128 - kV2HeaderBytes) / kV2RecordBytes;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.Degree(n) > 0 && g.Degree(n) <= max_per_page) {
      EXPECT_EQ(file.PagesSpanned(n), 1u) << "node " << n;
    }
  }
}

TEST_P(GraphFileLayoutTest, HugeListSpansMultiplePages) {
  // Star graph: hub 0 with 50 leaves; a 128-byte page holds at most 10
  // (v1) / 7 (v2) entries.
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf <= 50; ++leaf) {
    edges.push_back({0, leaf, 1.0});
  }
  auto g = graph::Graph::FromEdges(51, edges).ValueOrDie();
  MemoryDiskManager disk(128);
  GraphFileOptions opts;
  opts.layout = GetParam();
  auto file = GraphFile::Build(g, &disk, opts).ValueOrDie();
  EXPECT_GE(file.PagesSpanned(0), 5u);

  BufferPool pool(&disk, 16);
  auto nbrs = ScanList(file, &pool, 0);
  EXPECT_EQ(nbrs.size(), 50u);
  // All leaves present.
  std::vector<bool> seen(51, false);
  for (const AdjEntry& a : nbrs) {
    seen[a.node] = true;
  }
  for (NodeId leaf = 1; leaf <= 50; ++leaf) {
    EXPECT_TRUE(seen[leaf]);
  }
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST_P(GraphFileLayoutTest, IsolatedNodeReadsEmpty) {
  auto g = graph::Graph::FromEdges(3, {{0, 1, 1.0}}).ValueOrDie();
  MemoryDiskManager disk(128);
  GraphFileOptions opts;
  opts.layout = GetParam();
  auto file = GraphFile::Build(g, &disk, opts).ValueOrDie();
  BufferPool pool(&disk, 4);
  EXPECT_TRUE(ScanList(file, &pool, 2).empty());
}

TEST_P(GraphFileLayoutTest, BfsOrderUsesFewerPagesThanRandomForWalk) {
  // Locality check: reading nodes in BFS-neighborhood order should fault
  // less with BFS packing than with random packing on a path graph.
  std::vector<Edge> edges;
  const NodeId n = 400;
  for (NodeId u = 0; u + 1 < n; ++u) {
    edges.push_back({u, static_cast<NodeId>(u + 1), 1.0});
  }
  auto g = graph::Graph::FromEdges(n, edges).ValueOrDie();

  auto count_faults = [&](NodeOrder order) {
    MemoryDiskManager disk(128);
    GraphFileOptions opts;
    opts.order = order;
    opts.layout = GetParam();
    auto file = GraphFile::Build(g, &disk, opts).ValueOrDie();
    BufferPool pool(&disk, 4);
    graph::NeighborCursor cursor;
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_TRUE(file.ScanNeighbors(&pool, u, cursor).ok());
    }
    return pool.stats().physical_reads;
  };

  EXPECT_LT(count_faults(NodeOrder::kBfs),
            count_faults(NodeOrder::kRandom) / 2);
}

TEST_P(GraphFileLayoutTest, ReadOutOfRangeNodeFails) {
  auto g = PaperFig3();
  MemoryDiskManager disk(128);
  GraphFileOptions opts;
  opts.layout = GetParam();
  auto file = GraphFile::Build(g, &disk, opts).ValueOrDie();
  BufferPool pool(&disk, 4);
  graph::NeighborCursor cursor;
  EXPECT_TRUE(
      file.ScanNeighbors(&pool, 100, cursor).status().IsOutOfRange());
}

template <typename T>
std::vector<uint8_t> BytesOf(T value) {
  std::vector<uint8_t> bytes(sizeof(T));
  std::memcpy(bytes.data(), &value, sizeof(T));
  return bytes;
}

// One overwrite of a graph file's first page.
struct PageFlip {
  const char* name;
  size_t offset;  // from the page start
  std::vector<uint8_t> bytes;
  bool header;  // hits every list on the page, not one record
};

// The flips that apply to `layout`: the first record's neighbor id and
// weight, and on v2 the page header's magic and entry count.
std::vector<PageFlip> FlipsFor(PageLayout layout, NodeId num_nodes) {
  const bool v1 = layout == PageLayout::kV1Packed;
  const size_t record = v1 ? 0 : kV2HeaderBytes;
  const size_t weight =
      record + (v1 ? sizeof(uint32_t) : offsetof(AdjEntry, weight));
  std::vector<PageFlip> flips = {
      {"IdFarOutOfRange", record, BytesOf<uint32_t>(0x00ffff00u), false},
      {"IdOnePastTheEnd", record, BytesOf<uint32_t>(num_nodes), false},
      {"NegativeWeight", weight, BytesOf<double>(-1.0), false},
      {"ZeroWeight", weight, BytesOf<double>(0.0), false},
      {"NanWeight", weight,
       BytesOf<double>(std::numeric_limits<double>::quiet_NaN()), false},
      {"InfiniteWeight", weight,
       BytesOf<double>(std::numeric_limits<double>::infinity()), false},
  };
  if (!v1) {
    flips.push_back({"BadMagic", offsetof(V2PageHeader, magic),
                     BytesOf<uint32_t>(0), true});
    flips.push_back({"ShortEntryCount", offsetof(V2PageHeader, entry_count),
                     BytesOf<uint32_t>(0), true});
  }
  return flips;
}

TEST_P(GraphFileLayoutTest, CorruptRecordsFailScansAndQueries) {
  gen::GridConfig grid;
  grid.rows = 16;
  grid.cols = 16;
  const graph::Graph g = gen::GenerateGrid(grid).ValueOrDie();
  for (const PageFlip& flip : FlipsFor(GetParam(), g.num_nodes())) {
    SCOPED_TRACE(flip.name);
    MemoryDiskManager disk(512);
    GraphFileOptions opts;
    opts.layout = GetParam();
    auto file = GraphFile::Build(g, &disk, opts).ValueOrDie();
    std::vector<uint8_t> page(disk.page_size());
    ASSERT_TRUE(disk.ReadPage(file.first_page(), page.data()).ok());
    std::memcpy(page.data() + flip.offset, flip.bytes.data(),
                flip.bytes.size());
    ASSERT_TRUE(disk.WritePage(file.first_page(), page.data()).ok());

    BufferPool pool(&disk, 16);
    StoredGraph view(&file, &pool);
    graph::NeighborCursor cursor;
    std::vector<NodeId> failing;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      auto span = view.Scan(u, cursor);
      if (!span.ok()) {
        EXPECT_TRUE(span.status().IsCorruption())
            << span.status().ToString();
        failing.push_back(u);
      }
    }
    EXPECT_EQ(pool.num_pinned(), 0u);
    ASSERT_FALSE(failing.empty());
    if (!flip.header) {
      EXPECT_EQ(failing.size(), 1u);
    }

    // An engine query that reaches the list ends in a Status instead of
    // indexing its arrays with the flipped id or summing a bad weight.
    std::vector<NodeId> locs;
    for (NodeId n = 0; n < g.num_nodes(); n += 5) {
      locs.push_back(n);
    }
    auto points =
        core::NodePointSet::FromLocations(g.num_nodes(), locs).ValueOrDie();
    core::EngineSources sources;
    sources.graph = &view;
    sources.points = &points;
    sources.pool = &pool;
    auto engine = core::RknnEngine::Create(sources).ValueOrDie();
    for (core::Algorithm algo :
         {core::Algorithm::kEager, core::Algorithm::kLazy,
          core::Algorithm::kLazyEp}) {
      auto r = engine.Run(
          core::QuerySpec::Monochromatic(algo, failing.front(), 1));
      EXPECT_FALSE(r.ok()) << core::AlgorithmName(algo);
    }
    EXPECT_EQ(pool.num_pinned(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, GraphFileLayoutTest,
                         ::testing::Values(PageLayout::kV1Packed,
                                           PageLayout::kV2Aligned),
                         [](const auto& info) {
                           return LayoutSuffix(info.param);
                         });

TEST(GraphFileBasicTest, V1AndV2ServeIdenticalLists) {
  auto g = RandomGraph(60, 0.1, 23);
  MemoryDiskManager disk(256);
  GraphFileOptions opts;
  opts.layout = PageLayout::kV1Packed;
  auto v1 = GraphFile::Build(g, &disk, opts).ValueOrDie();
  opts.layout = PageLayout::kV2Aligned;
  auto v2 = GraphFile::Build(g, &disk, opts).ValueOrDie();
  BufferPool pool(&disk, 32);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(ScanList(v1, &pool, u), ScanList(v2, &pool, u))
        << "node " << u;
  }
}

TEST(GraphFileBasicTest, V2SinglePageScansHoldNoPin) {
  auto g = RandomGraph(60, 0.1, 23);
  MemoryDiskManager disk(4096);
  auto file = GraphFile::Build(g, &disk, {}).ValueOrDie();
  ASSERT_EQ(file.layout(), PageLayout::kV2Aligned);
  // 64 frames, one shard: room to keep a pin per cursor, yet a list on
  // one page is copied into the cursor and unpinned like any other.
  BufferPool pool(&disk, 64);
  graph::NeighborCursor cursor;
  size_t single_page_lists = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.Degree(u) == 0 || file.PagesSpanned(u) != 1) {
      continue;
    }
    auto span = file.ScanNeighbors(&pool, u, cursor);
    ASSERT_TRUE(span.ok());
    EXPECT_TRUE(std::equal(span->begin(), span->end(),
                           g.Neighbors(u).begin(), g.Neighbors(u).end()))
        << "node " << u;
    EXPECT_EQ(pool.num_pinned(), 0u) << "node " << u;
    EXPECT_GE(cursor.scratch_capacity(), span->size()) << "node " << u;
    single_page_lists++;
  }
  EXPECT_GT(single_page_lists, 0u);
}

TEST(GraphFileBasicTest, TinyPoolServesByCopyWithoutHeldPins) {
  auto g = RandomGraph(60, 0.1, 23);
  MemoryDiskManager disk(4096);
  auto file = GraphFile::Build(g, &disk, {}).ValueOrDie();
  BufferPool pool(&disk, 4);
  graph::NeighborCursor cursor;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto span = file.ScanNeighbors(&pool, u, cursor);
    ASSERT_TRUE(span.ok());
    EXPECT_EQ(pool.num_pinned(), 0u);
  }
}

TEST(GraphFileBasicTest, StoredGraphMatchesGraphView) {
  auto g = RandomGraph(60, 0.1, 23);
  MemoryDiskManager disk(256);
  auto file = GraphFile::Build(g, &disk, {}).ValueOrDie();
  BufferPool pool(&disk, 16);
  StoredGraph stored(&file, &pool);
  graph::GraphView view(&g);

  EXPECT_EQ(stored.num_nodes(), view.num_nodes());
  EXPECT_EQ(stored.num_edges(), view.num_edges());
  graph::NeighborCursor ca, cb;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto a = stored.Scan(u, ca);
    auto b = view.Scan(u, cb);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(std::equal(a->begin(), a->end(), b->begin(), b->end()))
        << "node " << u;
  }
}

TEST(GraphFileBasicTest, RejectsEmptyGraph) {
  auto g = graph::Graph::FromEdges(0, {}).ValueOrDie();
  MemoryDiskManager disk(128);
  EXPECT_FALSE(GraphFile::Build(g, &disk, {}).ok());
}

TEST(GraphFileBasicTest, RejectsNullDisk) {
  auto g = PaperFig3();
  EXPECT_FALSE(GraphFile::Build(g, nullptr, {}).ok());
}

}  // namespace
}  // namespace grnn::storage
