// Pin-reservation guard (PR 5, the ROADMAP open item from PR 4): when
// held cursor leases squeeze a buffer-pool shard's free-frame count
// below kLeaseShardFreeFrameFloor, lease_friendly(page) flips to false
// and NEW scans degrade to copy-and-unpin — so a fleet of held cursors
// can never pin a shard down into ResourceExhausted. LabelFile is the
// only reader that holds pins across calls (zero-copy label spans), so
// the scenario runs over stored hub labels: far more single-page labels
// on distinct pages than frames, one shard, every scan's cursor kept
// alive. Without the guard the pool runs dry after 32 distinct pages;
// with it, every scan succeeds and the shard always keeps frames free
// for nested expansion pins.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "gen/road_network.h"
#include "graph/network_view.h"
#include "index/hub_label.h"
#include "index/label_file.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace grnn::storage {
namespace {

constexpr size_t kPageBytes = 512;
constexpr size_t kSlotsPerPage =
    (kPageBytes - index::kLabelPageHeaderBytes) / index::kLabelRecordBytes;

index::HubLabelIndex RoadLabels() {
  gen::RoadConfig cfg;
  cfg.num_nodes = 300;
  cfg.seed = 3;
  auto g = gen::GenerateRoadNetwork(cfg).ValueOrDie().g;
  graph::GraphView view(&g);
  return index::HubLabelBuilder::Build(view).ValueOrDie();
}

TEST(LeasePressure, HeldLabelCursorsCannotExhaustAOneShardPool) {
  auto labels = RoadLabels();
  MemoryDiskManager disk(kPageBytes);
  auto file = index::LabelFile::Build(labels, &disk).ValueOrDie();
  ASSERT_GT(file.num_pages(), 4 * kMinFramesPerShardForLease);

  // One shard, 32 frames: statically lease-friendly (>=
  // kMinFramesPerShardForLease), but far fewer frames than data pages —
  // held leases alone could pin down every frame without the guard.
  BufferPool pool(&disk, 32, ReplacementPolicy::kLru, 1);
  ASSERT_TRUE(pool.lease_friendly());
  index::StoredLabelIndex stored(&file, &pool);

  // Scan every single-page label through its own long-lived cursor,
  // keeping all spans alive. Every scan must succeed and the floor must
  // hold after each one; the guard caps how many frames can be leased.
  std::vector<std::unique_ptr<index::LabelCursor>> cursors;
  size_t leased = 0;
  NodeId degraded = kInvalidNode;
  for (NodeId v = 0; v < labels.num_nodes(); ++v) {
    const auto want = labels.Label(v);
    if (want.empty() || want.size() > kSlotsPerPage) {
      continue;
    }
    cursors.push_back(std::make_unique<index::LabelCursor>());
    auto span = stored.Scan(v, *cursors.back());
    ASSERT_TRUE(span.ok()) << "node " << v << ": "
                           << span.status().ToString();
    EXPECT_TRUE(
        std::equal(span->begin(), span->end(), want.begin(), want.end()))
        << "node " << v;
    ASSERT_LE(pool.num_pinned(),
              pool.capacity() - kLeaseShardFreeFrameFloor)
        << "node " << v;
    if (cursors.back()->held_pins() == 0) {
      degraded = v;
    } else {
      ++leased;
    }
  }
  const size_t pinned = pool.num_pinned();
  EXPECT_EQ(pinned, pool.capacity() - kLeaseShardFreeFrameFloor)
      << "held leases should have squeezed the shard to the floor";
  EXPECT_GE(leased, pinned);
  ASSERT_NE(degraded, kInvalidNode)
      << "some scans should have degraded to copy mode";

  // Under pressure a new scan of an unleased page degrades to copy
  // mode: its own pin would push the shard below the floor.
  {
    index::LabelCursor probe;
    auto span = stored.Scan(degraded, probe);
    ASSERT_TRUE(span.ok());
    EXPECT_EQ(probe.held_pins(), 0u);
  }

  // A whole extra pass over every label (straddling ones included)
  // still succeeds without a single ResourceExhausted, spans correct.
  index::LabelCursor extra;
  for (NodeId v = 0; v < labels.num_nodes(); ++v) {
    auto span = stored.Scan(v, extra);
    ASSERT_TRUE(span.ok()) << "node " << v << ": "
                           << span.status().ToString();
    const auto want = labels.Label(v);
    EXPECT_TRUE(
        std::equal(span->begin(), span->end(), want.begin(), want.end()));
  }
  extra.Reset();
  EXPECT_EQ(pool.num_pinned(), pinned);

  // Dropping the held cursors drains the pressure: leases come back.
  cursors.clear();
  EXPECT_EQ(pool.num_pinned(), 0u);
  auto span = stored.Scan(degraded, extra);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(extra.held_pins(), 1u);
  extra.Reset();
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST(LeasePressure, ProbeHonoursStaticFloorAndUnbufferedPools) {
  auto labels = RoadLabels();
  MemoryDiskManager disk(kPageBytes);
  auto file = index::LabelFile::Build(labels, &disk).ValueOrDie();
  {
    // Below the static per-shard budget: never lease-friendly,
    // regardless of pressure.
    BufferPool pool(&disk, 8, ReplacementPolicy::kLru, 1);
    EXPECT_FALSE(pool.lease_friendly());
    EXPECT_FALSE(pool.lease_friendly(file.first_page()));
  }
  {
    // Unbuffered: guards hand out private copies and pin nothing, so
    // the probe stays true.
    BufferPool pool(&disk, 0);
    EXPECT_TRUE(pool.lease_friendly());
    EXPECT_TRUE(pool.lease_friendly(file.first_page()));
  }
}

}  // namespace
}  // namespace grnn::storage
