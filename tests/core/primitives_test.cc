#include "core/primitives.h"

#include <gtest/gtest.h>

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
  auto hits =
      searcher.RangeNn(/*source=*/3, 1, 7.0, kInvalidPoint, &stats)
          .ValueOrDie();
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(stats.range_nn_calls, 1u);
}

TEST(RangeNnTest, PaperExampleRangeEightFindsP1) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  auto hits =
      searcher.RangeNn(3, 1, 7.5, kInvalidPoint, nullptr).ValueOrDie();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].point, 0u);  // p1
  EXPECT_DOUBLE_EQ(hits[0].dist, 7.0);
}

TEST(RangeNnTest, RangeNnAroundN3FindsP1AtThree) {
  // Eager's first range-NN in the walkthrough: range-NN(n3, 1, 4) -> p1@3.
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  auto hits =
      searcher.RangeNn(2, 1, 4.0, kInvalidPoint, nullptr).ValueOrDie();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].point, 0u);
  EXPECT_DOUBLE_EQ(hits[0].dist, 3.0);
}

TEST(RangeNnTest, KLimitsResults) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  auto one = searcher.RangeNn(3, 1, 100.0, kInvalidPoint, nullptr)
                 .ValueOrDie();
  EXPECT_EQ(one.size(), 1u);
  auto all = searcher.RangeNn(3, 5, 100.0, kInvalidPoint, nullptr)
                 .ValueOrDie();
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
  auto hits =
      searcher.RangeNn(3, 1, 100.0, /*exclude=*/0, nullptr).ValueOrDie();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].point, 1u);  // p2 instead of excluded p1
}

TEST(RangeNnTest, ZeroOrNegativeRangeIsEmpty) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  EXPECT_TRUE(
      searcher.RangeNn(3, 1, 0.0, kInvalidPoint, nullptr)->empty());
}

TEST(RangeNnTest, InvalidArguments) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  EXPECT_FALSE(searcher.RangeNn(99, 1, 1.0, kInvalidPoint, nullptr).ok());
  EXPECT_FALSE(searcher.RangeNn(0, 0, 1.0, kInvalidPoint, nullptr).ok());
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

TEST(VerifyTest, CompetitorScratchIsCountedAndReused) {
  // Verify keeps its competitor list in searcher scratch: the footprint
  // reports it, and a warm searcher does not grow on repeat calls.
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  NnSearcher searcher(&view, &f.points);
  // p1 settles the query (d = 7) before meeting any competitor.
  ASSERT_TRUE(searcher.Verify(0, 2, {3}, kInvalidPoint, nullptr).ok());
  const size_t no_competitor = searcher.CapacityFootprint();
  // p3 meets p1 (d = 8) before the query (d = 9).
  ASSERT_TRUE(searcher.Verify(2, 2, {3}, kInvalidPoint, nullptr).ok());
  const size_t one_competitor = searcher.CapacityFootprint();
  EXPECT_GT(one_competitor, no_competitor);
  for (int k : {2, 1, 3, 1000000}) {
    ASSERT_TRUE(searcher.Verify(2, k, {3}, kInvalidPoint, nullptr).ok());
    EXPECT_EQ(searcher.CapacityFootprint(), one_competitor) << "k=" << k;
  }
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

}  // namespace
}  // namespace grnn::core
