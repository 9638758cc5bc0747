// Corruption sweep over the GraphFile page format: flip each byte of each
// page of a small road network's file in turn. Every scan must either
// fail with Status::Corruption or return entries that pass the record
// validation (neighbor inside the graph, weight finite and positive),
// every flip of a page's magic or record count must be caught, and an
// eager query through the engine must come back with a Status or an
// answer — never undefined behaviour (the sanitizer jobs run this suite
// under the `corrupt` label).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/point_set.h"
#include "gen/points.h"
#include "gen/road_network.h"
#include "graph/network_view.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/graph_file.h"
#include "storage/stored_graph.h"

namespace grnn::storage {
namespace {

constexpr size_t kPageBytes = 512;

TEST(GraphFileCorrupt, EveryByteFlipIsRejectedOrHarmless) {
  gen::RoadConfig cfg;
  cfg.num_nodes = 150;
  cfg.seed = 9;
  auto g = gen::GenerateRoadNetwork(cfg).ValueOrDie().g;
  Rng rng(17);
  auto points = gen::PlaceNodePoints(g.num_nodes(), 0.1, rng).ValueOrDie();
  const NodeId query_node = points.NodeOf(points.LivePoints().front());

  MemoryDiskManager disk(kPageBytes);
  auto file = GraphFile::Build(g, &disk).ValueOrDie();
  ASSERT_GE(file.num_pages(), 4u);

  std::vector<uint8_t> page(kPageBytes);
  size_t rejected_flips = 0;
  for (PageId id = file.first_page();
       id < file.first_page() + file.num_pages(); ++id) {
    for (size_t byte = 0; byte < kPageBytes; ++byte) {
      SCOPED_TRACE(testing::Message() << "page " << id << " byte " << byte);
      ASSERT_TRUE(disk.ReadPage(id, page.data()).ok());
      page[byte] ^= 0xFF;
      ASSERT_TRUE(disk.WritePage(id, page.data()).ok());

      BufferPool pool(&disk, 16);
      graph::NeighborCursor cursor;
      bool rejected = false;
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        auto scan = file.ScanNeighbors(&pool, n, cursor);
        if (!scan.ok()) {
          ASSERT_TRUE(scan.status().IsCorruption())
              << scan.status().ToString();
          rejected = true;
          continue;
        }
        ASSERT_EQ(scan->size(), g.Degree(n));
        for (const AdjEntry& a : *scan) {
          ASSERT_LT(a.node, g.num_nodes());
          ASSERT_GT(a.weight, 0);
          ASSERT_TRUE(std::isfinite(a.weight));
        }
      }
      ASSERT_EQ(pool.num_pinned(), 0u);
      // The magic and record count sit in bytes [0, 8) of every page.
      if (byte < 8) {
        EXPECT_TRUE(rejected) << "header flip went unnoticed";
      }
      rejected_flips += rejected;

      StoredGraph view(&file, &pool);
      core::EngineSources sources;
      sources.graph = &view;
      sources.points = &points;
      sources.pool = &pool;
      auto engine = core::RknnEngine::Create(sources).ValueOrDie();
      auto r = engine.Run(core::QuerySpec::Monochromatic(
          core::Algorithm::kEager, query_node, /*k=*/2));
      if (!r.ok()) {
        EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
      }

      page[byte] ^= 0xFF;
      ASSERT_TRUE(disk.WritePage(id, page.data()).ok());
    }
  }
  EXPECT_GT(rejected_flips, 0u);

  // The restored file reads back exactly.
  BufferPool pool(&disk, 16);
  graph::NeighborCursor cursor;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    auto scan = file.ScanNeighbors(&pool, n, cursor);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    auto want = g.Neighbors(n);
    EXPECT_TRUE(
        std::equal(scan->begin(), scan->end(), want.begin(), want.end()));
  }
}

}  // namespace
}  // namespace grnn::storage
