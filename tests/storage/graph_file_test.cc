#include "storage/graph_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/eager.h"
#include "core/workspace.h"
#include "gen/points.h"
#include "gen/road_network.h"
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

class GraphFileTest : public ::testing::TestWithParam<NodeOrder> {};

TEST_P(GraphFileTest, RoundTripsAdjacency) {
  auto g = PaperFig3();
  MemoryDiskManager disk(128);
  GraphFileOptions opts;
  opts.order = GetParam();
  auto file = GraphFile::Build(g, &disk, opts).ValueOrDie();
  BufferPool pool(&disk, 8);

  EXPECT_EQ(file.num_nodes(), g.num_nodes());
  EXPECT_EQ(file.num_edges(), g.num_edges());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    auto nbrs = ScanList(file, &pool, n);
    auto want = g.Neighbors(n);
    ASSERT_EQ(nbrs.size(), want.size()) << "node " << n;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(nbrs[i].node, want[i].node);
      EXPECT_DOUBLE_EQ(nbrs[i].weight, want[i].weight);
    }
  }
  EXPECT_EQ(pool.num_pinned(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, GraphFileTest,
                         ::testing::Values(NodeOrder::kBisection,
                                           NodeOrder::kBfs,
                                           NodeOrder::kNatural,
                                           NodeOrder::kRandom),
                         [](const auto& info) {
                           switch (info.param) {
                             case NodeOrder::kBisection:
                               return "Bisection";
                             case NodeOrder::kBfs:
                               return "Bfs";
                             case NodeOrder::kNatural:
                               return "Natural";
                             default:
                               return "Random";
                           }
                         });

TEST(GraphFileBasicTest, DegreesMatch) {
  auto g = PaperFig3();
  MemoryDiskManager disk(128);
  auto file = GraphFile::Build(g, &disk).ValueOrDie();
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(file.Degree(n), g.Degree(n));
  }
}

TEST(GraphFileBasicTest, PaddedListsDoNotStraddlePages) {
  // 128-byte page: 9 packed 12-byte records behind the 16-byte header.
  auto g = RandomGraph(40, 0.2, 11);
  MemoryDiskManager disk(128);
  auto file = GraphFile::Build(g, &disk).ValueOrDie();
  const size_t max_per_page = (128 - kGraphPageHeaderBytes) / kAdjEntryBytes;
  ASSERT_EQ(max_per_page, 9u);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.Degree(n) > 0 && g.Degree(n) <= max_per_page) {
      EXPECT_EQ(file.PagesSpanned(n), 1u) << "node " << n;
    }
  }
}

TEST(GraphFileBasicTest, HugeListSpansMultiplePages) {
  // Star graph: hub 0 with 50 leaves; a 128-byte page holds 9 records.
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf <= 50; ++leaf) {
    edges.push_back({0, leaf, 1.0});
  }
  auto g = graph::Graph::FromEdges(51, edges).ValueOrDie();
  MemoryDiskManager disk(128);
  auto file = GraphFile::Build(g, &disk).ValueOrDie();
  EXPECT_GE(file.PagesSpanned(0), 6u);

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

TEST(GraphFileBasicTest, IsolatedNodeReadsEmpty) {
  auto g = graph::Graph::FromEdges(3, {{0, 1, 1.0}}).ValueOrDie();
  MemoryDiskManager disk(128);
  auto file = GraphFile::Build(g, &disk).ValueOrDie();
  BufferPool pool(&disk, 4);
  EXPECT_TRUE(ScanList(file, &pool, 2).empty());
}

TEST(GraphFileBasicTest, BfsOrderUsesFewerPagesThanRandomForWalk) {
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

TEST(GraphFileBasicTest, ReadOutOfRangeNodeFails) {
  auto g = PaperFig3();
  MemoryDiskManager disk(128);
  auto file = GraphFile::Build(g, &disk).ValueOrDie();
  BufferPool pool(&disk, 4);
  graph::NeighborCursor cursor;
  EXPECT_TRUE(
      file.ScanNeighbors(&pool, 100, cursor).status().IsOutOfRange());
}

TEST(GraphFileBasicTest, ScansHoldNoPinsAndWarmCursorsDoNotGrow) {
  // Every scan decodes into the cursor and unpins before returning, on a
  // pool large enough for leases and on one below the lease budget.
  auto g = RandomGraph(60, 0.1, 23);
  MemoryDiskManager disk(512);
  auto file = GraphFile::Build(g, &disk).ValueOrDie();
  for (size_t frames : {size_t{4}, size_t{64}}) {
    BufferPool pool(&disk, frames);
    graph::NeighborCursor cursor;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_TRUE(file.ScanNeighbors(&pool, u, cursor).ok());
      EXPECT_EQ(pool.num_pinned(), 0u) << "frames " << frames;
    }
    const size_t warm = cursor.scratch_capacity();
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_TRUE(file.ScanNeighbors(&pool, u, cursor).ok());
    }
    EXPECT_EQ(cursor.scratch_capacity(), warm) << "frames " << frames;
  }
}

// A silent return to wide (16-byte AdjEntry-identical) records would cost
// a third more pages. On the 3k road world with 4 KB pages the packed
// file must stay within 0.8x the pages 16-byte records would need, laid
// out with the same header and no-straddle padding in node-id order.
TEST(GraphFileBasicTest, PackedRecordsUseFourFifthsOfWideRecordPages) {
  gen::RoadConfig cfg;
  cfg.num_nodes = 3000;
  auto g = gen::GenerateRoadNetwork(cfg).ValueOrDie().g;
  MemoryDiskManager disk(4096);
  auto file = GraphFile::Build(g, &disk).ValueOrDie();

  constexpr size_t kWideSlots = (4096 - kGraphPageHeaderBytes) / 16;
  size_t wide_pages = 0;
  size_t fill = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    size_t deg = g.Degree(n);
    if (deg > 0 && deg <= kWideSlots && deg > kWideSlots - fill) {
      ++wide_pages;
      fill = 0;
    }
    fill += deg;
    wide_pages += fill / kWideSlots;
    fill %= kWideSlots;
  }
  wide_pages += fill > 0;

  EXPECT_LE(5 * file.num_pages(), 4 * wide_pages)
      << file.num_pages() << " packed pages vs " << wide_pages
      << " wide-record pages";
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

TEST(GraphFileBasicTest, BisectionFaultsLessThanBfsOnRoadNetwork) {
  // The paper's access pattern: eager queries from fixed nodes of a road
  // network, through a warm pool far smaller than the file (16 frames
  // against 65 pages of 2 KB). One global BFS lays the network out in
  // thin wavefront rings, so a local expansion crosses many pages;
  // bisection keeps regions on a page.
  gen::RoadConfig cfg;
  cfg.num_nodes = 3000;
  auto g = gen::GenerateRoadNetwork(cfg).ValueOrDie().g;
  Rng rng(7);
  auto points =
      gen::PlaceNodePoints(g.num_nodes(), 0.02, rng).ValueOrDie();

  auto count_faults = [&](NodeOrder order) {
    MemoryDiskManager disk(2048);
    GraphFileOptions opts;
    opts.order = order;
    auto file = GraphFile::Build(g, &disk, opts).ValueOrDie();
    BufferPool pool(&disk, 16);
    StoredGraph view(&file, &pool);
    core::SearchWorkspace ws;
    for (NodeId q = 0; q < g.num_nodes(); q += 37) {
      EXPECT_TRUE(core::EagerRknn(view, points, std::span(&q, 1),
                                  core::RknnOptions{}, ws)
                      .ok());
    }
    return pool.stats().physical_reads;
  };

  const uint64_t bisection = count_faults(NodeOrder::kBisection);
  const uint64_t bfs = count_faults(NodeOrder::kBfs);
  EXPECT_LE(4 * bisection, 3 * bfs)
      << "bisection " << bisection << " vs bfs " << bfs << " faults";
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
