// NetworkView conformance suite (PR 4): every implementation of the
// cursor Scan API must produce identical scans — GraphView (CSR) and
// StoredGraph behind a 64-frame pool, a 4-frame pool and an unbuffered
// pool (private page copies). On top of scan equality,
// the suite enforces the pin discipline: no buffer-pool pin survives a
// scan, early-exit paths included, and no pin survives an engine query.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/point_set.h"
#include "graph/network_view.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/graph_file.h"
#include "storage/stored_graph.h"

namespace grnn::graph {
namespace {

Graph TestGraph(uint64_t seed) {
  Rng rng(seed);
  const NodeId n = 120;
  std::vector<Edge> edges;
  // Connected backbone + random chords; node 0 becomes a hub whose list
  // spans multiple pages under the small page size below.
  for (NodeId u = 0; u + 1 < n; ++u) {
    edges.push_back({u, static_cast<NodeId>(u + 1), rng.Uniform(0.1, 5.0)});
  }
  for (int i = 0; i < 200; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v) {
      continue;
    }
    Edge e{std::min(u, v), std::max(u, v), rng.Uniform(0.1, 5.0)};
    bool dup = std::any_of(edges.begin(), edges.end(), [&](const Edge& x) {
      return x.u == e.u && x.v == e.v;
    });
    if (!dup) {
      edges.push_back(e);
    }
  }
  for (NodeId leaf = 1; leaf < 40; ++leaf) {
    // widen node 0's list past one page
    bool dup = std::any_of(edges.begin(), edges.end(), [&](const Edge& x) {
      return x.u == 0 && x.v == leaf + 60;
    });
    if (!dup) {
      edges.push_back({0, static_cast<NodeId>(leaf + 60), 1.0});
    }
  }
  return Graph::FromEdges(n, edges).ValueOrDie();
}

enum class ViewKind {
  kGraphView,
  kStored,          // 64-frame pool
  kStoredTinyPool,  // 4 frames
  kStoredUnbuffered,
};

struct ViewEnv {
  // Pointees owned here so the view's raw pointers stay valid.
  std::unique_ptr<storage::MemoryDiskManager> disk;
  std::unique_ptr<storage::GraphFile> file;
  std::unique_ptr<storage::BufferPool> pool;
  std::optional<GraphView> graph_view;
  std::optional<storage::StoredGraph> stored_view;

  const NetworkView& view() const {
    return graph_view ? static_cast<const NetworkView&>(*graph_view)
                      : *stored_view;
  }
  size_t pinned() const {
    return pool == nullptr ? 0 : pool->num_pinned();
  }
};

ViewEnv MakeEnv(ViewKind kind, const Graph& g) {
  ViewEnv env;
  if (kind == ViewKind::kGraphView) {
    env.graph_view.emplace(&g);
    return env;
  }
  // Small pages so multi-page lists actually occur in the fixture.
  env.disk = std::make_unique<storage::MemoryDiskManager>(256);
  env.file = std::make_unique<storage::GraphFile>(
      storage::GraphFile::Build(g, env.disk.get()).ValueOrDie());
  size_t capacity = 64;
  if (kind == ViewKind::kStoredTinyPool) {
    capacity = 4;
  } else if (kind == ViewKind::kStoredUnbuffered) {
    capacity = 0;  // every acquire is a private copy
  }
  env.pool = std::make_unique<storage::BufferPool>(env.disk.get(),
                                                   capacity);
  env.stored_view.emplace(env.file.get(), env.pool.get());
  return env;
}

class NetworkViewConformanceTest
    : public ::testing::TestWithParam<ViewKind> {};

TEST_P(NetworkViewConformanceTest, ScansMatchGraphExactly) {
  Graph g = TestGraph(7);
  ViewEnv env = MakeEnv(GetParam(), g);
  {
    NeighborCursor cursor;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      auto scan = env.view().Scan(n, cursor);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      auto want = g.Neighbors(n);
      ASSERT_EQ(scan->size(), want.size()) << "node " << n;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*scan)[i].node, want[i].node) << "node " << n;
        EXPECT_DOUBLE_EQ((*scan)[i].weight, want[i].weight)
            << "node " << n;
      }
    }
  }
  EXPECT_EQ(env.pinned(), 0u);
}

TEST_P(NetworkViewConformanceTest, SpanSurvivesScansOnOtherCursors) {
  Graph g = TestGraph(7);
  ViewEnv env = MakeEnv(GetParam(), g);
  NeighborCursor main_cursor, aux_cursor;
  const NodeId main_node = 5;
  auto main_scan = env.view().Scan(main_node, main_cursor);
  ASSERT_TRUE(main_scan.ok());
  const std::vector<AdjEntry> want(main_scan->begin(), main_scan->end());
  // A nested expansion hammers the aux cursor (and, for stored views,
  // the pool) while the main span is live.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    ASSERT_TRUE(env.view().Scan(n, aux_cursor).ok());
  }
  EXPECT_TRUE(std::equal(main_scan->begin(), main_scan->end(),
                         want.begin(), want.end()));
  EXPECT_EQ(env.pinned(), 0u);
}

TEST_P(NetworkViewConformanceTest, EarlyExitLeaksNoPins) {
  Graph g = TestGraph(7);
  ViewEnv env = MakeEnv(GetParam(), g);
  NeighborCursor cursor;
  auto scan = env.view().Scan(0, cursor);
  ASSERT_TRUE(scan.ok());
  for (const AdjEntry& a : *scan) {
    if (a.node > 0) {
      break;  // early exit mid-iteration, cursor still alive
    }
  }
  EXPECT_EQ(env.pinned(), 0u);
}

TEST_P(NetworkViewConformanceTest, EveryQueryLeavesThePoolUnpinned) {
  Graph g = TestGraph(7);
  ViewEnv env = MakeEnv(GetParam(), g);
  std::vector<NodeId> locs;
  for (NodeId n = 0; n < g.num_nodes(); n += 7) {
    locs.push_back(n);
  }
  auto points =
      core::NodePointSet::FromLocations(g.num_nodes(), locs).ValueOrDie();
  core::EngineSources sources;
  sources.graph = &env.view();
  sources.points = &points;
  sources.pool = env.pool.get();
  auto engine = core::RknnEngine::Create(sources).ValueOrDie();
  for (core::Algorithm algo :
       {core::Algorithm::kEager, core::Algorithm::kLazy,
        core::Algorithm::kLazyEp, core::Algorithm::kBruteForce}) {
    for (int k = 1; k <= 2; ++k) {
      auto r = engine.Run(core::QuerySpec::Monochromatic(
          algo, points.NodeOf(0), k, PointId{0}));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(env.pinned(), 0u)
          << "algo=" << core::AlgorithmName(algo) << " k=" << k;
    }
  }
  // Error paths drop pins too.
  EXPECT_FALSE(engine
                   .Run(core::QuerySpec::Monochromatic(
                       core::Algorithm::kEager, g.num_nodes() + 1, 1))
                   .ok());
  EXPECT_EQ(env.pinned(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllViews, NetworkViewConformanceTest,
    ::testing::Values(ViewKind::kGraphView, ViewKind::kStored,
                      ViewKind::kStoredTinyPool,
                      ViewKind::kStoredUnbuffered),
    [](const auto& info) {
      switch (info.param) {
        case ViewKind::kGraphView:
          return "GraphView";
        case ViewKind::kStored:
          return "Stored";
        case ViewKind::kStoredTinyPool:
          return "StoredTinyPool";
        default:
          return "StoredUnbuffered";
      }
    });

}  // namespace
}  // namespace grnn::graph
