// Hub-label subsystem: builder exactness and determinism, Query(u,v)
// against the Dijkstra oracle, and the kNN / RkNN label primitives
// against the brute-force semantics of core/types.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/thread_pool.h"
#include "core/brute_force.h"
#include "core/bichromatic.h"
#include "gen/brite.h"
#include "gen/grid.h"
#include "gen/road_network.h"
#include "graph/dijkstra.h"
#include "graph/network_view.h"
#include "index/hub_label.h"
#include "index/hub_point_index.h"
#include "index/hub_rknn.h"
#include "index/packed_labels.h"
#include "index/rknn_bounds.h"
#include "test_fixtures.h"

namespace grnn::index {
namespace {

using core::testfix::Ids;
using core::testfix::PaperExample;
using core::testfix::RandomConnectedGraph;
using core::testfix::RandomPoints;

void ExpectAllPairsExact(const graph::Graph& g,
                         const HubLabelIndex& index) {
  graph::GraphView view(&g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto dist = graph::SingleSourceDistances(view, u).ValueOrDie();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const Weight got = index.Query(u, v);
      if (dist[v] == kInfinity) {
        EXPECT_EQ(got, kInfinity) << "u=" << u << " v=" << v;
      } else {
        EXPECT_NEAR(got, dist[v], 1e-9) << "u=" << u << " v=" << v;
      }
    }
  }
}

TEST(HubLabelBuilder, PaperExampleAllPairsExact) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  EXPECT_EQ(index.num_nodes(), f.g.num_nodes());
  ExpectAllPairsExact(f.g, index);
}

TEST(HubLabelBuilder, SelfDistanceIsZero) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  for (NodeId u = 0; u < f.g.num_nodes(); ++u) {
    EXPECT_EQ(index.Query(u, u), 0.0);
  }
}

TEST(HubLabelBuilder, RandomWorldsAllPairsExact) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const bool unit = seed % 2 == 0;
    auto g = RandomConnectedGraph(60, 0.5, rng, unit);
    graph::GraphView view(&g);
    auto index = HubLabelBuilder::Build(view).ValueOrDie();
    ExpectAllPairsExact(g, index);
  }
}

TEST(HubLabelBuilder, RandomHubOrderStaysExact) {
  Rng rng(7);
  auto g = RandomConnectedGraph(40, 0.8, rng);
  graph::GraphView view(&g);
  HubLabelBuildOptions options;
  options.order = HubOrder::kRandom;
  options.seed = 99;
  auto index = HubLabelBuilder::Build(view, options).ValueOrDie();
  ExpectAllPairsExact(g, index);
}

TEST(HubLabelBuilder, DisconnectedPairsReportInfinity) {
  // Two 3-node components.
  auto g = graph::Graph::FromEdges(
               6, {{0, 1, 1.0}, {1, 2, 2.0}, {3, 4, 1.0}, {4, 5, 2.0}})
               .ValueOrDie();
  graph::GraphView view(&g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  ExpectAllPairsExact(g, index);
  EXPECT_EQ(index.Query(0, 5), kInfinity);
}

TEST(HubLabelBuilder, DeterministicAcrossBuilds) {
  Rng rng(11);
  auto g = RandomConnectedGraph(50, 0.7, rng);
  graph::GraphView view(&g);
  auto a = HubLabelBuilder::Build(view).ValueOrDie();
  auto b = HubLabelBuilder::Build(view).ValueOrDie();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_entries(), b.num_entries());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    auto la = a.Label(n);
    auto lb = b.Label(n);
    ASSERT_EQ(la.size(), lb.size()) << "node " << n;
    for (size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i], lb[i]) << "node " << n << " slot " << i;
    }
  }
}

TEST(HubLabelBuilder, LabelsSortedByHubAndCoverSelf) {
  Rng rng(13);
  auto g = RandomConnectedGraph(45, 0.6, rng);
  graph::GraphView view(&g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    auto label = index.Label(n);
    bool has_self = false;
    for (size_t i = 0; i < label.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(label[i - 1].hub, label[i].hub);
      }
      has_self = has_self || (label[i].hub == n && label[i].dist == 0.0);
    }
    EXPECT_TRUE(has_self) << "node " << n;
  }
}

TEST(HubLabelBuilder, EmptyGraphRejected) {
  graph::Graph g;
  graph::GraphView view(&g);
  EXPECT_FALSE(HubLabelBuilder::Build(view).ok());
}

TEST(HubLabelIndex, ScanMatchesLabelAndRangeChecks) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  LabelCursor cursor;
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    auto span = index.Scan(n, cursor).ValueOrDie();
    auto want = index.Label(n);
    ASSERT_EQ(span.size(), want.size());
    EXPECT_TRUE(std::equal(span.begin(), span.end(), want.begin()));
  }
  EXPECT_TRUE(index.Scan(index.num_nodes(), cursor)
                  .status()
                  .IsOutOfRange());
  EXPECT_EQ(cursor.held_pins(), 0u);
}

TEST(QueryViaStore, MatchesDirectQuery) {
  Rng rng(17);
  auto g = RandomConnectedGraph(30, 0.5, rng);
  graph::GraphView view(&g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  LabelCursor cu, cv;
  for (int i = 0; i < 50; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    EXPECT_EQ(QueryViaStore(index, u, v, cu, cv).ValueOrDie(),
              index.Query(u, v));
  }
}

TEST(KnnViaLabels, MatchesDijkstraOrderedDistances) {
  for (uint64_t seed : {3u, 4u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(50, 0.6, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    auto points = RandomPoints(g.num_nodes(), 12, rng);
    auto index = HubLabelBuilder::Build(view).ValueOrDie();
    auto occ = HubPointIndex::Build(index, points).ValueOrDie();
    LabelWorkspace ws;
    std::vector<core::NnResult> got;
    for (NodeId q = 0; q < g.num_nodes(); q += 7) {
      auto dist = graph::SingleSourceDistances(view, q).ValueOrDie();
      for (int k : {1, 3, 5}) {
        for (PointId exclude :
             {kInvalidPoint, static_cast<PointId>(0)}) {
          ASSERT_TRUE(
              KnnViaLabelsInto(index, occ, q, k, exclude, ws, &got).ok());
          // Oracle: all live points by (dist, id), exclude removed.
          std::vector<std::pair<Weight, PointId>> want;
          for (PointId p : points.LivePoints()) {
            if (p == exclude || dist[points.NodeOf(p)] == kInfinity) {
              continue;
            }
            want.push_back({dist[points.NodeOf(p)], p});
          }
          std::sort(want.begin(), want.end());
          const size_t expect_n =
              std::min<size_t>(want.size(), static_cast<size_t>(k));
          ASSERT_EQ(got.size(), expect_n) << "q=" << q << " k=" << k;
          for (size_t i = 0; i < expect_n; ++i) {
            EXPECT_NEAR(got[i].dist, want[i].first, 1e-9)
                << "q=" << q << " k=" << k << " slot=" << i;
          }
        }
      }
    }
    EXPECT_EQ(ws.held_pins(), 0u);
  }
}

TEST(RknnViaLabels, MonochromaticMatchesBruteForce) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(60, 0.5, rng, seed % 2 == 1);
    graph::GraphView view(&g);
    auto points = RandomPoints(g.num_nodes(), 14, rng);
    auto index = HubLabelBuilder::Build(view).ValueOrDie();
    auto occ = HubPointIndex::Build(index, points).ValueOrDie();
    LabelWorkspace ws;
    auto live = points.LivePoints();
    for (int rep = 0; rep < 20; ++rep) {
      const bool self = rep % 2 == 0;
      core::RknnOptions options;
      options.k = 1 + rep % 3;
      NodeId q;
      if (self) {
        PointId qp = live[rng.UniformInt(live.size())];
        options.exclude_point = qp;
        q = points.NodeOf(qp);
      } else {
        q = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
      }
      auto got =
          RknnViaLabels(index, occ, occ, {&q, 1}, options, ws)
              .ValueOrDie();
      auto want =
          core::BruteForceRknn(view, points, {&q, 1}, options)
              .ValueOrDie();
      EXPECT_EQ(Ids(got), Ids(want))
          << "seed=" << seed << " rep=" << rep << " k=" << options.k;
      EXPECT_EQ(ws.held_pins(), 0u);
    }
  }
}

TEST(RknnViaLabels, BichromaticMatchesBruteForce) {
  for (uint64_t seed : {8u, 9u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(60, 0.5, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    // Disjoint placements, as the differential worlds do.
    auto nodes = rng.SampleWithoutReplacement(g.num_nodes(), 20);
    std::vector<NodeId> p_locs(nodes.begin(), nodes.begin() + 13);
    std::vector<NodeId> q_locs(nodes.begin() + 13, nodes.end());
    auto points =
        core::NodePointSet::FromLocations(g.num_nodes(), p_locs)
            .ValueOrDie();
    auto sites =
        core::NodePointSet::FromLocations(g.num_nodes(), q_locs)
            .ValueOrDie();
    auto index = HubLabelBuilder::Build(view).ValueOrDie();
    auto occ_p = HubPointIndex::Build(index, points).ValueOrDie();
    auto occ_q = HubPointIndex::Build(index, sites).ValueOrDie();
    LabelWorkspace ws;
    auto live_sites = sites.LivePoints();
    for (int rep = 0; rep < 20; ++rep) {
      core::RknnOptions options;
      options.k = 1 + rep % 3;
      NodeId q;
      if (rep % 2 == 0) {
        PointId qs = live_sites[rng.UniformInt(live_sites.size())];
        options.exclude_point = qs;
        q = sites.NodeOf(qs);
      } else {
        q = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
      }
      auto got =
          RknnViaLabels(index, occ_p, occ_q, {&q, 1}, options, ws)
              .ValueOrDie();
      auto want = core::BruteForceBichromaticRknn(view, points, sites,
                                                  {&q, 1}, options)
                      .ValueOrDie();
      EXPECT_EQ(Ids(got), Ids(want))
          << "seed=" << seed << " rep=" << rep << " k=" << options.k;
    }
  }
}

TEST(RknnViaLabels, ValidatesInput) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  auto index = HubLabelBuilder::Build(view).ValueOrDie();
  auto occ = HubPointIndex::Build(index, f.points).ValueOrDie();
  LabelWorkspace ws;
  core::RknnOptions options;
  options.k = 0;
  NodeId q = 0;
  EXPECT_TRUE(RknnViaLabels(index, occ, occ, {&q, 1}, options, ws)
                  .status()
                  .IsInvalidArgument());
  options.k = 1;
  NodeId bad = f.g.num_nodes();
  EXPECT_TRUE(RknnViaLabels(index, occ, occ, {&bad, 1}, options, ws)
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(
      RknnViaLabels(index, occ, occ, {}, options, ws)
          .status()
          .IsInvalidArgument());
}

// Bit-for-bit equality of two occurrence indexes: counters and every
// per-hub (dist, point)-sorted run.
void ExpectIdentical(const HubPointIndex& got, const HubPointIndex& want) {
  ASSERT_EQ(got.num_hubs(), want.num_hubs());
  EXPECT_EQ(got.num_entries(), want.num_entries());
  EXPECT_EQ(got.num_points(), want.num_points());
  EXPECT_EQ(got.point_id_bound(), want.point_id_bound());
  for (NodeId h = 0; h < want.num_hubs(); ++h) {
    auto a = got.ListOf(h);
    auto b = want.ListOf(h);
    ASSERT_EQ(a.size(), b.size()) << "hub=" << h;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "hub=" << h << " entry=" << i;
    }
  }
}

TEST(HubPointIndex, IncrementalNodeOpsMatchFromScratchBuild) {
  for (uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(40, 0.5, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    auto points = RandomPoints(g.num_nodes(), 8, rng);
    auto occ = HubPointIndex::Build(labels, points).ValueOrDie();

    // Interleave inserts and deletes; after every op the spliced index
    // must equal a from-scratch Build over the mutated set, bit for bit.
    for (int op = 0; op < 12; ++op) {
      if (op % 3 == 2) {
        auto live = points.LivePoints();
        PointId victim = live[rng.UniformInt(live.size())];
        const NodeId host = points.NodeOf(victim);
        ASSERT_TRUE(points.RemovePoint(victim).ok());
        ASSERT_TRUE(occ.ErasePoint(labels, victim, host).ok());
      } else {
        NodeId n = kInvalidNode;
        do {
          n = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
        } while (points.Contains(n));
        PointId p = points.AddPoint(n).ValueOrDie();
        ASSERT_TRUE(occ.InsertPoint(labels, p, n).ok());
      }
      auto want = HubPointIndex::Build(labels, points).ValueOrDie();
      ExpectIdentical(occ, want);
    }
  }
}

TEST(HubPointIndex, IncrementalEdgeOpsMatchFromScratchBuild) {
  for (uint64_t seed : {13u, 14u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(40, 0.5, rng, seed % 2 == 1);
    graph::GraphView view(&g);
    auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    auto edges = g.CollectEdges();
    std::vector<core::EdgePosition> positions;
    for (size_t i = 0; i < 8; ++i) {
      const Edge& e = edges[rng.UniformInt(edges.size())];
      positions.push_back({e.u, e.v, rng.Uniform(0.0, e.w)});
    }
    auto points = core::EdgePointSet::Create(g, positions).ValueOrDie();
    auto occ = HubPointIndex::Build(labels, points).ValueOrDie();

    for (int op = 0; op < 12; ++op) {
      if (op % 3 == 2) {
        auto live = points.LivePoints();
        PointId victim = live[rng.UniformInt(live.size())];
        // Capture BEFORE the removal tombstones the position away.
        const core::EdgePosition pos = points.PositionOf(victim);
        const Weight ew = points.EdgeWeightOfPoint(victim);
        ASSERT_TRUE(points.RemovePoint(victim).ok());
        ASSERT_TRUE(occ.EraseEdgePoint(labels, victim, pos, ew).ok());
      } else {
        const Edge& e = edges[rng.UniformInt(edges.size())];
        PointId p =
            points.AddPoint(g, {e.u, e.v, rng.Uniform(0.0, e.w)})
                .ValueOrDie();
        ASSERT_TRUE(occ.InsertEdgePoint(labels, p,
                                        points.PositionOf(p),
                                        points.EdgeWeightOfPoint(p))
                        .ok());
      }
      auto want = HubPointIndex::Build(labels, points).ValueOrDie();
      ExpectIdentical(occ, want);
    }
  }
}

TEST(HubPointIndex, EraseOfUnknownOccurrenceReportsInternal) {
  Rng rng(15);
  auto g = RandomConnectedGraph(20, 0.5, rng, false);
  graph::GraphView view(&g);
  auto labels = HubLabelBuilder::Build(view).ValueOrDie();
  auto points = RandomPoints(g.num_nodes(), 4, rng);
  auto occ = HubPointIndex::Build(labels, points).ValueOrDie();
  // A point that was never indexed has no occurrence entries — the
  // erase must fail structurally (the engine's hub_stale signal), not
  // silently corrupt the runs.
  EXPECT_EQ(occ.ErasePoint(labels, 1000, 0).code(),
            StatusCode::kInternal);
  const Edge e = g.CollectEdges().front();
  EXPECT_EQ(
      occ.EraseEdgePoint(labels, 1000, {e.u, e.v, e.w / 2}, e.w).code(),
      StatusCode::kInternal);
}

// --- PR 9: order matrix, parallel bit-identity, packed labels ----------

constexpr HubOrder kAllOrders[] = {HubOrder::kDegreeDesc, HubOrder::kRandom,
                                   HubOrder::kBetweennessApprox};

void ExpectIdenticalLabels(const HubLabelIndex& a, const HubLabelIndex& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_entries(), b.num_entries());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    auto la = a.Label(n);
    auto lb = b.Label(n);
    ASSERT_EQ(la.size(), lb.size()) << "node " << n;
    for (size_t i = 0; i < la.size(); ++i) {
      ASSERT_EQ(la[i], lb[i]) << "node " << n << " slot " << i;
    }
  }
}

TEST(HubOrderMatrix, EveryOrderStaysExactAndDeterministic) {
  for (uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(50, 0.5, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    for (HubOrder order : kAllOrders) {
      HubLabelBuildOptions options;
      options.order = order;
      options.seed = 31;
      auto index = HubLabelBuilder::Build(view, options).ValueOrDie();
      ExpectAllPairsExact(g, index);
      auto again = HubLabelBuilder::Build(view, options).ValueOrDie();
      ExpectIdenticalLabels(index, again);
    }
  }
}

TEST(HubOrderMatrix, EveryOrderHandlesDisconnectedGraphs) {
  // Two components of different shapes: every order must emit every
  // node exactly once and the labels must stay exact.
  auto g = graph::Graph::FromEdges(9, {{0, 1, 1.0},
                                       {1, 2, 2.0},
                                       {2, 3, 1.5},
                                       {3, 0, 1.0},
                                       {4, 5, 1.0},
                                       {5, 6, 2.0},
                                       {6, 7, 0.5}})
               .ValueOrDie();  // node 8 is isolated
  graph::GraphView view(&g);
  for (HubOrder order : kAllOrders) {
    HubLabelBuildOptions options;
    options.order = order;
    auto index = HubLabelBuilder::Build(view, options).ValueOrDie();
    ExpectAllPairsExact(g, index);
    EXPECT_EQ(index.Query(0, 4), kInfinity);
  }
}

TEST(HubOrderMatrix, BuildStatsReportLabelShapeAndPhases) {
  Rng rng(23);
  auto g = RandomConnectedGraph(40, 0.6, rng);
  graph::GraphView view(&g);
  HubLabelBuildOptions options;
  options.order = HubOrder::kBetweennessApprox;
  HubLabelBuildStats stats;
  auto index = HubLabelBuilder::Build(view, options, &stats).ValueOrDie();
  EXPECT_EQ(stats.num_entries, index.num_entries());
  EXPECT_DOUBLE_EQ(stats.avg_label_size, index.AverageLabelSize());
  size_t max_label = 0;
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    max_label = std::max(max_label, index.LabelSize(n));
  }
  EXPECT_EQ(stats.max_label_size, max_label);
  EXPECT_EQ(stats.threads, 1);
  EXPECT_EQ(stats.windows, 0u);
  EXPECT_EQ(stats.merge_rejected, 0u);
  EXPECT_GE(stats.order_s, 0.0);
  EXPECT_GE(stats.traverse_s, 0.0);
}

TEST(ParallelBuild, BitIdenticalToSerialAcrossThreadsAndWindows) {
  for (uint64_t seed : {24u, 25u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(60, 0.5, rng, seed % 2 == 1);
    graph::GraphView view(&g);
    for (HubOrder order :
         {HubOrder::kDegreeDesc, HubOrder::kBetweennessApprox}) {
      HubLabelBuildOptions serial_opts;
      serial_opts.order = order;
      auto serial =
          HubLabelBuilder::Build(view, serial_opts).ValueOrDie();
      for (int threads : {2, 4}) {
        for (uint32_t window : {0u, 1u, 3u, 64u}) {
          HubLabelBuildOptions options = serial_opts;
          options.num_threads = threads;
          options.window = window;
          HubLabelBuildStats stats;
          auto parallel =
              HubLabelBuilder::Build(view, options, &stats).ValueOrDie();
          ExpectIdenticalLabels(parallel, serial);
          EXPECT_GT(stats.windows, 0u)
              << "threads=" << threads << " window=" << window;
          EXPECT_GT(stats.threads, 1);
        }
      }
    }
  }
}

TEST(ParallelBuild, VerifyCanonicalPasses) {
  Rng rng(26);
  auto g = RandomConnectedGraph(50, 0.6, rng);
  graph::GraphView view(&g);
  HubLabelBuildOptions options;
  options.order = HubOrder::kBetweennessApprox;
  options.num_threads = 4;
  options.verify_canonical = true;
  auto index = HubLabelBuilder::Build(view, options).ValueOrDie();
  ExpectAllPairsExact(g, index);
}

TEST(ParallelBuild, HubPointIndexParallelBuildIsBitIdentical) {
  common::ThreadPool pool(3);
  for (uint64_t seed : {27u, 28u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(50, 0.5, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    auto points = RandomPoints(g.num_nodes(), 12, rng);
    auto serial = HubPointIndex::Build(labels, points).ValueOrDie();
    auto parallel =
        HubPointIndex::Build(labels, points, &pool).ValueOrDie();
    ExpectIdentical(parallel, serial);

    auto edges = g.CollectEdges();
    std::vector<core::EdgePosition> positions;
    for (size_t i = 0; i < 10; ++i) {
      const Edge& e = edges[rng.UniformInt(edges.size())];
      positions.push_back({e.u, e.v, rng.Uniform(0.0, e.w)});
    }
    auto epoints = core::EdgePointSet::Create(g, positions).ValueOrDie();
    auto eserial = HubPointIndex::Build(labels, epoints).ValueOrDie();
    auto eparallel =
        HubPointIndex::Build(labels, epoints, &pool).ValueOrDie();
    ExpectIdentical(eparallel, eserial);
  }
}

TEST(PackedLabels, QueryMatchesAosIndexOnAllPairs) {
  for (uint64_t seed : {29u, 30u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(55, 0.5, rng, seed % 2 == 1);
    graph::GraphView view(&g);
    auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    auto packed = PackedHubLabelIndex::From(labels);
    ASSERT_EQ(packed.num_nodes(), labels.num_nodes());
    ASSERT_EQ(packed.num_entries(), labels.num_entries());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        // Bit-equal, not approximately equal: the SIMD merge must form
        // the same sums over the same match set.
        EXPECT_EQ(packed.Query(u, v), labels.Query(u, v))
            << "u=" << u << " v=" << v;
      }
    }
  }
}

TEST(PackedLabels, ScanAndQueryViaStoreConform) {
  Rng rng(31);
  auto g = RandomConnectedGraph(40, 0.6, rng);
  graph::GraphView view(&g);
  auto labels = HubLabelBuilder::Build(view).ValueOrDie();
  auto packed = PackedHubLabelIndex::From(labels);
  LabelCursor cursor;
  for (NodeId n = 0; n < labels.num_nodes(); ++n) {
    auto span = packed.Scan(n, cursor).ValueOrDie();
    auto want = labels.Label(n);
    ASSERT_EQ(span.size(), want.size()) << "node " << n;
    EXPECT_TRUE(std::equal(span.begin(), span.end(), want.begin()));
  }
  EXPECT_EQ(cursor.held_pins(), 0u);
  LabelCursor cu, cv;
  for (int i = 0; i < 50; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    EXPECT_EQ(QueryViaStore(packed, u, v, cu, cv).ValueOrDie(),
              labels.Query(u, v));
  }
}

TEST(PackedLabels, ServesRknnPrimitives) {
  // The packed store must be a drop-in LabelStore for the RkNN path.
  Rng rng(32);
  auto g = RandomConnectedGraph(50, 0.5, rng);
  graph::GraphView view(&g);
  auto points = RandomPoints(g.num_nodes(), 12, rng);
  auto labels = HubLabelBuilder::Build(view).ValueOrDie();
  auto packed = PackedHubLabelIndex::From(labels);
  auto occ = HubPointIndex::Build(packed, points).ValueOrDie();
  LabelWorkspace ws;
  for (int rep = 0; rep < 10; ++rep) {
    core::RknnOptions options;
    options.k = 1 + rep % 3;
    NodeId q = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    auto got =
        RknnViaLabels(packed, occ, occ, {&q, 1}, options, ws).ValueOrDie();
    auto want =
        core::BruteForceRknn(view, points, {&q, 1}, options).ValueOrDie();
    EXPECT_EQ(Ids(got), Ids(want)) << "rep=" << rep;
  }
}

TEST(HubPointIndex, CopySharesRunsAndPatchClonesOnlyTouchedHubs) {
  Rng rng(16);
  auto g = RandomConnectedGraph(40, 0.5, rng, true);
  graph::GraphView view(&g);
  auto labels = HubLabelBuilder::Build(view).ValueOrDie();
  auto points = RandomPoints(g.num_nodes(), 10, rng);
  const auto orig = HubPointIndex::Build(labels, points).ValueOrDie();

  HubPointIndex copy = orig;
  NodeId host = kInvalidNode;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (!points.Contains(n)) {
      host = n;
      break;
    }
  }
  ASSERT_NE(host, kInvalidNode);
  PointId p = points.AddPoint(host).ValueOrDie();
  ASSERT_TRUE(copy.InsertPoint(labels, p, host).ok());

  // The original is untouched — still the pre-insert index.
  EXPECT_EQ(orig.num_points(), copy.num_points() - 1);
  size_t shared = 0, cloned = 0;
  for (NodeId h = 0; h < orig.num_hubs(); ++h) {
    auto a = orig.ListOf(h);
    auto b = copy.ListOf(h);
    if (a.size() == b.size()) {
      // Untouched run: the copy must SHARE the original's storage
      // (copy-on-write at hub granularity), not own a clone.
      EXPECT_EQ(a.data(), b.data()) << "hub=" << h;
      shared += a.empty() ? 0 : 1;
    } else {
      ASSERT_EQ(b.size(), a.size() + 1) << "hub=" << h;
      ++cloned;
    }
  }
  // The label of `host` covers itself, so at least one run was patched;
  // a 10-point build leaves plenty untouched.
  EXPECT_GE(cloned, 1u);
  EXPECT_GE(shared, 1u);
}

// --- Competitor bounds (RknnBounds) ------------------------------------

constexpr size_t kDepth = RknnBounds::kDepth;

// Dijkstra distances from one node.
std::vector<Weight> DistancesFrom(const graph::Graph& g, NodeId n) {
  graph::GraphView view(&g);
  return graph::SingleSourceDistances(view, n).ValueOrDie();
}

// Checks one competitor list against brute-force distances: same length
// (the kDepth nearest reachable competitors, or all of them), distances
// ascending and equal to the oracle's sorted prefix, every listed id at
// its listed distance, ids in (dist, id) order — exactly the oracle's ids
// when distances are exact (unit weights).
void ExpectListMatches(std::span<const RknnBounds::Competitor> got,
                       std::vector<std::pair<Weight, PointId>> want,
                       const std::vector<Weight>& id_dist, bool exact,
                       PointId p) {
  std::sort(want.begin(), want.end());
  want.resize(std::min(want.size(), kDepth));
  ASSERT_EQ(got.size(), want.size()) << "p=" << p;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i].dist, want[i].first, 1e-9) << "p=" << p << " i=" << i;
    EXPECT_NEAR(got[i].dist, id_dist[got[i].point], 1e-9)
        << "p=" << p << " i=" << i;
    if (exact) {
      EXPECT_EQ(got[i].point, want[i].second) << "p=" << p << " i=" << i;
    }
    if (i > 0) {
      EXPECT_TRUE(got[i - 1].dist < got[i].dist ||
                  (got[i - 1].dist == got[i].dist &&
                   got[i - 1].point < got[i].point))
          << "p=" << p << " i=" << i;
    }
  }
}

// cut(h) recomputed from the lists: the max kDepth-th distance over the
// run of h (kInfinity for a short list, 0 for an empty run).
void ExpectCutsMatchLists(const RknnBounds& b, const HubPointIndex& cands) {
  for (NodeId h = 0; h < cands.num_hubs(); ++h) {
    Weight want = 0;
    for (const HubPointIndex::Entry& occ : cands.ListOf(h)) {
      auto list = b.ListOf(occ.point);
      want = std::max(want,
                      list.size() == kDepth ? list.back().dist : kInfinity);
    }
    EXPECT_EQ(b.cut(h), want) << "hub=" << h;
  }
}

// Builds (candidates | competitors) bounds and holds them to Dijkstra.
void ExpectNodeBoundsMatchBruteForce(const graph::Graph& g,
                                     const LabelStore& labels,
                                     const core::NodePointSet& cands,
                                     const core::NodePointSet* comps,
                                     bool exact) {
  auto cand_idx = HubPointIndex::Build(labels, cands).ValueOrDie();
  const bool same = comps == nullptr;
  auto comp_idx =
      HubPointIndex::Build(labels, same ? cands : *comps).ValueOrDie();
  auto b = RknnBounds::Build(labels, cands, cand_idx,
                             same ? cand_idx : comp_idx)
               .ValueOrDie();
  const core::NodePointSet& competitors = same ? cands : *comps;
  for (PointId p : cands.LivePoints()) {
    auto dist = DistancesFrom(g, cands.NodeOf(p));
    std::vector<std::pair<Weight, PointId>> want;
    std::vector<Weight> id_dist(competitors.point_id_bound(), kInfinity);
    for (PointId c : competitors.LivePoints()) {
      const Weight d = dist[competitors.NodeOf(c)];
      id_dist[c] = d;
      if ((!same || c != p) && d != kInfinity) {
        want.push_back({d, c});
      }
    }
    ExpectListMatches(b.ListOf(p), want, id_dist, exact, p);
  }
  ExpectCutsMatchLists(b, cand_idx);
}

TEST(RknnBounds, BuildMatchesBruteForceOnGridBriteAndRoad) {
  for (int world = 0; world < 3; ++world) {
    SCOPED_TRACE("world=" + std::to_string(world));
    graph::Graph g;
    bool exact = false;
    if (world == 0) {
      gen::GridConfig cfg;
      cfg.rows = 10;
      cfg.cols = 12;
      cfg.avg_degree = 4.5;
      cfg.unit_weights = true;
      exact = true;
      g = gen::GenerateGrid(cfg).ValueOrDie();
    } else if (world == 1) {
      gen::BriteConfig cfg;
      cfg.num_nodes = 120;
      cfg.unit_weights = true;
      exact = true;
      g = gen::GenerateBrite(cfg).ValueOrDie();
    } else {
      gen::RoadConfig cfg;
      cfg.num_nodes = 150;
      g = gen::GenerateRoadNetwork(cfg).ValueOrDie().g;
    }
    graph::GraphView view(&g);
    auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    Rng rng(30 + world);
    auto nodes = rng.SampleWithoutReplacement(g.num_nodes(), 50);
    auto points = core::NodePointSet::FromLocations(
                      g.num_nodes(),
                      std::vector<NodeId>(nodes.begin(), nodes.begin() + 30))
                      .ValueOrDie();
    auto sites = core::NodePointSet::FromLocations(
                     g.num_nodes(),
                     std::vector<NodeId>(nodes.begin() + 30, nodes.end()))
                     .ValueOrDie();
    ExpectNodeBoundsMatchBruteForce(g, labels, points, nullptr, exact);
    ExpectNodeBoundsMatchBruteForce(g, labels, points, &sites, exact);
  }
}

TEST(RknnBounds, DisconnectedGraphAndShortComponentCutToInfinity) {
  // Component A (nodes 0..59) holds 25 points: every list is full and
  // its cuts finite. Component B (a 5-node path, 60..64) holds 3 points
  // that reach only each other: short lists, so cut = infinity on every
  // hub of theirs. Node 65 is isolated.
  Rng rng(41);
  auto a = RandomConnectedGraph(60, 0.5, rng, false);
  std::vector<Edge> edges = a.CollectEdges();
  for (NodeId n = 60; n < 64; ++n) {
    edges.push_back({n, n + 1, 1.0});
  }
  auto g = graph::Graph::FromEdges(66, edges).ValueOrDie();
  graph::GraphView view(&g);
  auto labels = HubLabelBuilder::Build(view).ValueOrDie();
  auto a_nodes = rng.SampleWithoutReplacement(60, 25);
  std::vector<NodeId> locs(a_nodes.begin(), a_nodes.end());
  locs.insert(locs.end(), {60, 62, 64});
  auto points = core::NodePointSet::FromLocations(66, locs).ValueOrDie();
  ExpectNodeBoundsMatchBruteForce(g, labels, points, nullptr,
                                  /*exact=*/false);

  auto idx = HubPointIndex::Build(labels, points).ValueOrDie();
  auto b = RknnBounds::Build(labels, points, idx, idx).ValueOrDie();
  LabelCursor cursor;
  for (PointId p : points.LivePoints()) {
    const bool in_b = points.NodeOf(p) >= 60;
    EXPECT_EQ(b.ListOf(p).size(), in_b ? 2u : kDepth) << "p=" << p;
    const std::span<const HubEntry> label =
        labels.Scan(points.NodeOf(p), cursor).ValueOrDie();
    for (const HubEntry& e : label) {
      if (in_b) {
        EXPECT_EQ(b.cut(e.hub), kInfinity) << "hub=" << e.hub;
      } else {
        EXPECT_LT(b.cut(e.hub), kInfinity) << "hub=" << e.hub;
      }
    }
  }
  EXPECT_EQ(b.cut(65), 0);  // isolated, empty run
}

// Brute-force distance between two edge positions: through any pair of
// endpoints, or along the shared edge.
Weight EdgeDistance(const core::EdgePointSet& set, PointId p, PointId c,
                    const std::vector<Weight>& from_u,
                    const std::vector<Weight>& from_v) {
  const core::EdgePosition& pp = set.PositionOf(p);
  const core::EdgePosition& cp = set.PositionOf(c);
  const Weight pw = set.EdgeWeightOfPoint(p);
  const Weight cw = set.EdgeWeightOfPoint(c);
  Weight best = kInfinity;
  if (pp.u == cp.u && pp.v == cp.v) {
    best = std::abs(pp.pos - cp.pos);
  }
  const Weight p_off[2] = {pp.pos, pw - pp.pos};
  const std::vector<Weight>* from[2] = {&from_u, &from_v};
  const NodeId c_end[2] = {cp.u, cp.v};
  const Weight c_off[2] = {cp.pos, cw - cp.pos};
  for (int ps = 0; ps < 2; ++ps) {
    for (int cs = 0; cs < 2; ++cs) {
      const Weight d = (*from[ps])[c_end[cs]];
      if (d != kInfinity) {
        best = std::min(best, p_off[ps] + d + c_off[cs]);
      }
    }
  }
  return best;
}

core::EdgePointSet RandomEdgePoints(const graph::Graph& g, size_t count,
                                    Rng& rng) {
  auto edges = g.CollectEdges();
  std::vector<core::EdgePosition> positions;
  for (size_t i = 0; i < count; ++i) {
    const Edge& e = edges[rng.UniformInt(edges.size())];
    positions.push_back({e.u, e.v, rng.Uniform(0.0, e.w)});
  }
  return core::EdgePointSet::Create(g, positions).ValueOrDie();
}

TEST(RknnBounds, EdgeBoundsMatchBruteForce) {
  for (uint64_t seed : {43u, 44u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(80, 0.5, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    auto set = RandomEdgePoints(g, 26, rng);
    auto idx = HubPointIndex::Build(labels, set).ValueOrDie();
    auto b = RknnBounds::Build(labels, set, idx).ValueOrDie();
    for (PointId p : set.LivePoints()) {
      const core::EdgePosition& pp = set.PositionOf(p);
      auto from_u = DistancesFrom(g, pp.u);
      auto from_v = DistancesFrom(g, pp.v);
      std::vector<std::pair<Weight, PointId>> want;
      std::vector<Weight> id_dist(set.point_id_bound(), kInfinity);
      for (PointId c : set.LivePoints()) {
        const Weight d = EdgeDistance(set, p, c, from_u, from_v);
        id_dist[c] = d;
        if (c != p && d != kInfinity) {
          want.push_back({d, c});
        }
      }
      ExpectListMatches(b.ListOf(p), want, id_dist, /*exact=*/false, p);
    }
    ExpectCutsMatchLists(b, idx);
  }
}

// Bit-for-bit equality of two bounds: every list entry and every cut.
void ExpectBoundsIdentical(const RknnBounds& got, const RknnBounds& want) {
  ASSERT_EQ(got.num_hubs(), want.num_hubs());
  const PointId bound = std::max(got.point_id_bound(), want.point_id_bound());
  for (PointId p = 0; p < bound; ++p) {
    auto a = got.ListOf(p);
    auto b = want.ListOf(p);
    ASSERT_EQ(a.size(), b.size()) << "p=" << p;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "p=" << p << " i=" << i;
    }
  }
  for (NodeId h = 0; h < want.num_hubs(); ++h) {
    EXPECT_EQ(got.cut(h), want.cut(h)) << "hub=" << h;
  }
}

TEST(RknnBounds, IncrementalNodeOpsMatchFromScratchBuild) {
  for (uint64_t seed : {45u, 46u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(120, 0.5, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    // Populations start right above kDepth, so the stream moves lists
    // between full and short (cut finite <-> infinity).
    auto nodes = rng.SampleWithoutReplacement(g.num_nodes(), 37);
    auto points = core::NodePointSet::FromLocations(
                      g.num_nodes(),
                      std::vector<NodeId>(nodes.begin(), nodes.begin() + 19))
                      .ValueOrDie();
    auto sites = core::NodePointSet::FromLocations(
                     g.num_nodes(),
                     std::vector<NodeId>(nodes.begin() + 19, nodes.end()))
                     .ValueOrDie();
    auto pidx = HubPointIndex::Build(labels, points).ValueOrDie();
    auto sidx = HubPointIndex::Build(labels, sites).ValueOrDie();
    auto pp = RknnBounds::Build(labels, points, pidx, pidx).ValueOrDie();
    auto pq = RknnBounds::Build(labels, points, pidx, sidx).ValueOrDie();
    LabelWorkspace ws;
    auto free_node = [&] {
      NodeId n = kInvalidNode;
      do {
        n = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
      } while (points.Contains(n) || sites.Contains(n));
      return n;
    };
    for (int op = 0; op < 40; ++op) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " op=" + std::to_string(op));
      const bool on_points = rng.UniformInt(2) == 0;
      core::NodePointSet& set = on_points ? points : sites;
      const bool insert = set.num_points() <= 3 || rng.UniformInt(2) == 0;
      PointId y;
      NodeId node;
      if (insert) {
        node = free_node();
        y = set.AddPoint(node).ValueOrDie();
      } else {
        auto live = set.LivePoints();
        y = live[rng.UniformInt(live.size())];
        node = set.NodeOf(y);
        ASSERT_TRUE(set.RemovePoint(y).ok());
      }
      // The engine's order: the occurrence index first, then every
      // pairing that reads it.
      HubPointIndex& idx = on_points ? pidx : sidx;
      ASSERT_TRUE((insert ? idx.InsertPoint(labels, y, node)
                          : idx.ErasePoint(labels, y, node))
                      .ok());
      auto patch = [&](RknnBounds& b, const HubPointIndex& cands,
                       const HubPointIndex& comps, RknnBounds::Role role) {
        return insert ? b.InsertPoint(labels, cands, comps, y, node, role, ws)
                      : b.ErasePoint(labels, cands, comps, y, node, role, ws);
      };
      if (on_points) {
        ASSERT_TRUE(patch(pp, pidx, pidx, RknnBounds::kBoth).ok());
        ASSERT_TRUE(patch(pq, pidx, sidx, RknnBounds::kCandidate).ok());
      } else {
        ASSERT_TRUE(patch(pq, pidx, sidx, RknnBounds::kCompetitor).ok());
      }
      auto fresh_p = HubPointIndex::Build(labels, points).ValueOrDie();
      auto fresh_s = HubPointIndex::Build(labels, sites).ValueOrDie();
      ExpectBoundsIdentical(
          pp,
          RknnBounds::Build(labels, points, fresh_p, fresh_p).ValueOrDie());
      ExpectBoundsIdentical(
          pq,
          RknnBounds::Build(labels, points, fresh_p, fresh_s).ValueOrDie());
      EXPECT_EQ(ws.held_pins(), 0u);
    }
  }
}

TEST(RknnBounds, IncrementalEdgeOpsMatchFromScratchBuild) {
  for (uint64_t seed : {47u, 48u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(80, 0.5, rng, seed % 2 == 1);
    graph::GraphView view(&g);
    auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    auto edges = g.CollectEdges();
    auto set = RandomEdgePoints(g, 19, rng);
    auto idx = HubPointIndex::Build(labels, set).ValueOrDie();
    auto ee = RknnBounds::Build(labels, set, idx).ValueOrDie();
    LabelWorkspace ws;
    for (int op = 0; op < 30; ++op) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " op=" + std::to_string(op));
      if (set.num_points() > 3 && rng.UniformInt(2) == 0) {
        auto live = set.LivePoints();
        PointId y = live[rng.UniformInt(live.size())];
        const core::EdgePosition pos = set.PositionOf(y);
        const Weight w = set.EdgeWeightOfPoint(y);
        ASSERT_TRUE(set.RemovePoint(y).ok());
        ASSERT_TRUE(idx.EraseEdgePoint(labels, y, pos, w).ok());
        ASSERT_TRUE(ee.EraseEdgePoint(labels, set, idx, y, pos, w, ws).ok());
      } else {
        const Edge& e = edges[rng.UniformInt(edges.size())];
        PointId y =
            set.AddPoint(g, {e.u, e.v, rng.Uniform(0.0, e.w)}).ValueOrDie();
        ASSERT_TRUE(idx.InsertEdgePoint(labels, y, set.PositionOf(y),
                                        set.EdgeWeightOfPoint(y))
                        .ok());
        ASSERT_TRUE(ee.InsertEdgePoint(labels, set, idx, y, ws).ok());
      }
      auto fresh = HubPointIndex::Build(labels, set).ValueOrDie();
      ExpectBoundsIdentical(ee,
                            RknnBounds::Build(labels, set, fresh).ValueOrDie());
    }
  }
}

TEST(RknnBounds, CopySharesEveryUntouchedChunk) {
  Rng rng(49);
  auto g = RandomConnectedGraph(3000, 0.3, rng, false);
  graph::GraphView view(&g);
  auto labels = HubLabelBuilder::Build(view).ValueOrDie();
  auto points = RandomPoints(g.num_nodes(), 600, rng);
  auto idx = HubPointIndex::Build(labels, points).ValueOrDie();
  const auto orig = RknnBounds::Build(labels, points, idx, idx).ValueOrDie();
  // A copy shares everything.
  RknnBounds copy = orig;
  EXPECT_EQ(copy.SharedChunks(orig), orig.num_chunks());

  NodeId host = kInvalidNode;
  while (host == kInvalidNode || points.Contains(host)) {
    host = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
  }
  const PointId y = points.AddPoint(host).ValueOrDie();
  HubPointIndex idx_copy = idx;
  ASSERT_TRUE(idx_copy.InsertPoint(labels, y, host).ok());
  LabelWorkspace ws;
  ASSERT_TRUE(copy.InsertPoint(labels, idx_copy, idx_copy, y, host,
                               RknnBounds::kBoth, ws)
                  .ok());

  // The original still equals the build over the pre-insert set.
  auto pre = points;
  ASSERT_TRUE(pre.RemovePoint(y).ok());
  auto pre_idx = HubPointIndex::Build(labels, pre).ValueOrDie();
  ExpectBoundsIdentical(
      orig, RknnBounds::Build(labels, pre, pre_idx, pre_idx).ValueOrDie());

  // Exactly the chunks holding a changed list or cut were cloned: every
  // other chunk is the original's storage, not an equal copy.
  size_t unchanged = 0;
  size_t changed_lists = 0;
  const size_t list_chunks =
      copy.point_id_bound() / RknnBounds::kListChunk;
  for (size_t c = 0; c < list_chunks; ++c) {
    const PointId first = static_cast<PointId>(c * RknnBounds::kListChunk);
    const PointId last = first + RknnBounds::kListChunk;
    size_t changed = 0;
    bool any = false;
    for (PointId p = first; p < last; ++p) {
      auto a = orig.ListOf(p);
      auto b = copy.ListOf(p);
      any = any || !a.empty();
      changed += std::equal(a.begin(), a.end(), b.begin(), b.end()) ? 0 : 1;
    }
    changed_lists += changed;
    if (changed == 0 && any) {
      ++unchanged;
      for (PointId p = first; p < last; ++p) {
        EXPECT_EQ(orig.ListOf(p).data(), copy.ListOf(p).data()) << "p=" << p;
      }
    }
  }
  for (NodeId c = 0; c * RknnBounds::kCutChunk < orig.num_hubs(); ++c) {
    bool same = true;
    bool any = false;
    for (NodeId h = c * RknnBounds::kCutChunk;
         h < std::min<NodeId>((c + 1) * RknnBounds::kCutChunk,
                              orig.num_hubs());
         ++h) {
      same = same && orig.cut(h) == copy.cut(h);
      any = any || orig.cut(h) != 0;
    }
    unchanged += (same && any) ? 1 : 0;
  }
  EXPECT_GE(changed_lists, 2u);  // y's own list plus at least one holder
  EXPECT_EQ(copy.SharedChunks(orig), unchanged);
  EXPECT_LT(copy.SharedChunks(orig), orig.num_chunks());
  EXPECT_GT(copy.SharedChunks(orig), orig.num_chunks() / 2);
}

TEST(RknnBounds, BoundedPathMatchesVerifyWalkAndBruteForce) {
  for (uint64_t seed : {50u, 51u}) {
    Rng rng(seed);
    auto g = RandomConnectedGraph(150, 0.4, rng, seed % 2 == 0);
    graph::GraphView view(&g);
    auto labels = HubLabelBuilder::Build(view).ValueOrDie();
    auto nodes = rng.SampleWithoutReplacement(g.num_nodes(), 60);
    auto points = core::NodePointSet::FromLocations(
                      g.num_nodes(),
                      std::vector<NodeId>(nodes.begin(), nodes.begin() + 40))
                      .ValueOrDie();
    auto sites = core::NodePointSet::FromLocations(
                     g.num_nodes(),
                     std::vector<NodeId>(nodes.begin() + 40, nodes.end()))
                     .ValueOrDie();
    auto pidx = HubPointIndex::Build(labels, points).ValueOrDie();
    auto sidx = HubPointIndex::Build(labels, sites).ValueOrDie();
    auto pp = RknnBounds::Build(labels, points, pidx, pidx).ValueOrDie();
    auto pq = RknnBounds::Build(labels, points, pidx, sidx).ValueOrDie();
    auto edge_set = RandomEdgePoints(g, 40, rng);
    auto eidx = HubPointIndex::Build(labels, edge_set).ValueOrDie();
    auto ee = RknnBounds::Build(labels, edge_set, eidx).ValueOrDie();
    auto edges = g.CollectEdges();
    LabelWorkspace ws;
    graph::NeighborCursor nbr;
    uint64_t bounded_entries = 0;
    uint64_t walk_entries = 0;
    for (int rep = 0; rep < 12; ++rep) {
      for (int k : {1, 2, 4, kBoundedK, kBoundedK + 1}) {
        core::RknnOptions options;
        options.k = k;
        const PointId qp = points.LivePoints()[rng.UniformInt(40)];
        if (rep % 2 == 0) {
          options.exclude_point = qp;
        }
        const NodeId q = points.NodeOf(qp);
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " rep=" + std::to_string(rep) + " k=" +
                     std::to_string(k));
        // Monochromatic.
        auto walk = RknnViaLabels(labels, pidx, pidx, {&q, 1}, options, ws)
                        .ValueOrDie();
        auto cut = RknnViaLabels(labels, pidx, pidx, {&q, 1}, options, ws, &pp)
                       .ValueOrDie();
        EXPECT_EQ(cut.results, walk.results);
        EXPECT_EQ(Ids(walk), Ids(core::BruteForceRknn(view, points, {&q, 1},
                                                      options)
                                     .ValueOrDie()));
        bounded_entries += cut.stats.label_entries;
        walk_entries += walk.stats.label_entries;
        // Bichromatic from a site.
        const PointId qs = sites.LivePoints()[rng.UniformInt(20)];
        const NodeId qn = sites.NodeOf(qs);
        core::RknnOptions boptions = options;
        boptions.exclude_point = rep % 2 == 0 ? qs : kInvalidPoint;
        auto bwalk = RknnViaLabels(labels, pidx, sidx, {&qn, 1}, boptions, ws)
                         .ValueOrDie();
        auto bcut =
            RknnViaLabels(labels, pidx, sidx, {&qn, 1}, boptions, ws, &pq)
                .ValueOrDie();
        EXPECT_EQ(bcut.results, bwalk.results);
        EXPECT_EQ(Ids(bwalk), Ids(core::BruteForceBichromaticRknn(
                                      view, points, sites, {&qn, 1}, boptions)
                                      .ValueOrDie()));
        // Unrestricted from an edge position and along a route.
        const Edge& e = edges[rng.UniformInt(edges.size())];
        core::UnrestrictedQuery uq;
        uq.position = {e.u, e.v, rng.Uniform(0.0, e.w)};
        core::RknnOptions uoptions;
        uoptions.k = k;
        auto uwalk = UnrestrictedRknnViaLabels(labels, view, edge_set, eidx,
                                               uq, uoptions, ws, nbr)
                         .ValueOrDie();
        auto ucut = UnrestrictedRknnViaLabels(labels, view, edge_set, eidx,
                                              uq, uoptions, ws, nbr, &ee)
                        .ValueOrDie();
        EXPECT_EQ(ucut.results, uwalk.results);
        EXPECT_EQ(Ids(uwalk), Ids(core::UnrestrictedBruteForceRknn(
                                      view, edge_set, uq, uoptions)
                                      .ValueOrDie()));
        core::UnrestrictedQuery route;
        route.is_position = false;
        route.route = {e.u, e.v};
        auto rwalk = UnrestrictedRknnViaLabels(labels, view, edge_set, eidx,
                                               route, uoptions, ws, nbr)
                         .ValueOrDie();
        auto rcut = UnrestrictedRknnViaLabels(labels, view, edge_set, eidx,
                                              route, uoptions, ws, nbr, &ee)
                        .ValueOrDie();
        EXPECT_EQ(rcut.results, rwalk.results);
      }
    }
    EXPECT_LT(bounded_entries, walk_entries);
    EXPECT_EQ(ws.held_pins(), 0u);
  }
}

}  // namespace
}  // namespace grnn::index
