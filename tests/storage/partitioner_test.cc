#include "storage/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "gen/road_network.h"

namespace grnn::storage {
namespace {

graph::Graph Path(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < n; ++u) {
    edges.push_back({u, static_cast<NodeId>(u + 1), 1.0});
  }
  return graph::Graph::FromEdges(n, edges).ValueOrDie();
}

bool IsPermutation(const std::vector<NodeId>& order, NodeId n) {
  if (order.size() != n) {
    return false;
  }
  std::vector<NodeId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (NodeId i = 0; i < n; ++i) {
    if (sorted[i] != i) {
      return false;
    }
  }
  return true;
}

TEST(PartitionerTest, NaturalIsIdentity) {
  auto g = Path(10);
  auto order = ComputeNodeOrder(g, NodeOrder::kNatural);
  std::vector<NodeId> want(10);
  std::iota(want.begin(), want.end(), NodeId{0});
  EXPECT_EQ(order, want);
}

TEST(PartitionerTest, BfsIsPermutationAndStartsAtZero) {
  auto g = Path(50);
  auto order = ComputeNodeOrder(g, NodeOrder::kBfs);
  EXPECT_TRUE(IsPermutation(order, 50));
  EXPECT_EQ(order[0], 0u);
  // On a path, BFS from 0 is exactly the natural order.
  for (NodeId i = 0; i < 50; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(PartitionerTest, BfsCoversDisconnectedComponents) {
  auto g =
      graph::Graph::FromEdges(6, {{0, 1, 1.0}, {3, 4, 1.0}}).ValueOrDie();
  auto order = ComputeNodeOrder(g, NodeOrder::kBfs);
  EXPECT_TRUE(IsPermutation(order, 6));
}

TEST(PartitionerTest, BfsKeepsNeighborsClose) {
  // Star: hub 0; BFS emits hub then all leaves contiguously.
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf < 8; ++leaf) {
    edges.push_back({0, leaf, 1.0});
  }
  auto g = graph::Graph::FromEdges(8, edges).ValueOrDie();
  auto order = ComputeNodeOrder(g, NodeOrder::kBfs);
  EXPECT_EQ(order[0], 0u);
  EXPECT_TRUE(IsPermutation(order, 8));
}

TEST(PartitionerTest, BisectionIsDeterministicPermutation) {
  std::vector<graph::Graph> graphs;
  graphs.push_back(Path(1));
  graphs.push_back(Path(200));
  // Two small components and two isolated nodes (2 and 5).
  graphs.push_back(
      graph::Graph::FromEdges(6, {{0, 1, 1.0}, {3, 4, 1.0}}).ValueOrDie());
  // Components larger than a leaf, interleaved by id: even nodes form one
  // path and odd nodes another; every tenth node is isolated.
  {
    std::vector<Edge> edges;
    for (NodeId u = 0; u + 2 < 500; ++u) {
      if (u % 10 != 0 && (u + 2) % 10 != 0) {
        edges.push_back({u, static_cast<NodeId>(u + 2), 1.0});
      }
    }
    graphs.push_back(graph::Graph::FromEdges(500, edges).ValueOrDie());
  }
  gen::RoadConfig cfg;
  cfg.num_nodes = 3000;
  graphs.push_back(gen::GenerateRoadNetwork(cfg).ValueOrDie().g);

  for (const graph::Graph& g : graphs) {
    auto order = ComputeNodeOrder(g, NodeOrder::kBisection);
    EXPECT_TRUE(IsPermutation(order, g.num_nodes()))
        << "|V|=" << g.num_nodes();
    EXPECT_EQ(order, ComputeNodeOrder(g, NodeOrder::kBisection))
        << "|V|=" << g.num_nodes();
  }
  auto empty = graph::Graph::FromEdges(0, {}).ValueOrDie();
  EXPECT_TRUE(ComputeNodeOrder(empty, NodeOrder::kBisection).empty());
}

TEST(PartitionerTest, RandomIsSeededPermutation) {
  auto g = Path(100);
  auto a = ComputeNodeOrder(g, NodeOrder::kRandom, 1);
  auto b = ComputeNodeOrder(g, NodeOrder::kRandom, 1);
  auto c = ComputeNodeOrder(g, NodeOrder::kRandom, 2);
  EXPECT_TRUE(IsPermutation(a, 100));
  EXPECT_EQ(a, b);  // deterministic per seed
  EXPECT_NE(a, c);  // different seed, different shuffle
}

}  // namespace
}  // namespace grnn::storage
