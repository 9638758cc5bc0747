// LabelFile round-trip and lease discipline: build -> persist -> reopen
// must answer identical Query(u,v) for sampled pairs on the paper's
// graph families, stored scans must match the in-memory index
// entry-for-entry on every page-size/pool configuration (zero-copy
// lease, copy-mode tiny pool, page-straddling labels), and no code path
// — including early exits — may leak a buffer-pool pin (the
// network_view_conformance pattern).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
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
  }
  cursor.Reset();
  EXPECT_EQ(pool->num_pinned(), 0u);
}

TEST(LabelFile, StoredScansMatchMemoryOnAllWorlds) {
  for (int family = 0; family < 3; ++family) {
    auto g = WorldGraph(family, 1 + static_cast<uint64_t>(family));
    auto index = BuildIndex(g);
    // 512-byte pages: plenty of multi-label pages and some straddling
    // labels; 64-frame pool keeps the zero-copy lease path active.
    storage::MemoryDiskManager disk(512);
    auto file = LabelFile::Build(index, &disk).ValueOrDie();
    storage::BufferPool pool(&disk, 64);
    ExpectStoredScansMatch(index, file, &pool);
  }
}

// The records layout packs labels that fit on a page best-fit
// decreasing into free slots: a road network's file stays within a few
// percent of its records' size (node order left about a fifth of every
// page as padding), and every label still scans back exactly, zero-copy
// from one page.
TEST(LabelFile, RecordsLayoutPacksLabelsIntoFewPages) {
  gen::RoadConfig cfg;
  cfg.num_nodes = 2000;
  cfg.seed = 5;
  auto g = gen::GenerateRoadNetwork(cfg).ValueOrDie().g;
  auto index = BuildIndex(g);
  storage::MemoryDiskManager disk(4096);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  const size_t slots = (4096 - kLabelPageHeaderBytes) / kLabelRecordBytes;
  const size_t dir_pages =
      (index.num_nodes() * sizeof(LabelDirectoryEntry) + 4095) / 4096;
  const size_t min_data_pages = (index.num_entries() + slots - 1) / slots;
  EXPECT_LE(file.num_pages(),
            1 + dir_pages + min_data_pages + min_data_pages / 50 + 1);
  storage::BufferPool pool(&disk, 64);
  ExpectStoredScansMatch(index, file, &pool);
  StoredLabelIndex stored(&file, &pool);
  LabelCursor cursor;
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    if (index.LabelSize(n) <= slots) {
      ASSERT_TRUE(stored.Scan(n, cursor).ok());
      EXPECT_EQ(cursor.held_pins(), 1u) << "node " << n;
    }
  }
  cursor.Reset();
}

TEST(LabelFile, TinyPagesForceStraddlingAndStillMatch) {
  auto g = WorldGraph(1, 5);
  auto index = BuildIndex(g);
  // 64-byte pages hold only 3 records behind the header, so most labels
  // straddle pages and take the assemble path.
  storage::MemoryDiskManager disk(64);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  bool straddles = false;
  for (NodeId n = 0; n < index.num_nodes() && !straddles; ++n) {
    straddles = index.LabelSize(n) > 3;
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
  // 8 frames < kMinFramesPerShardForLease: every scan copies + unpins.
  storage::BufferPool pool(&disk, 8);
  ASSERT_FALSE(pool.lease_friendly());
  StoredLabelIndex stored(&file, &pool);
  LabelCursor cursor;
  for (NodeId n = 0; n < stored.num_nodes(); ++n) {
    auto span = stored.Scan(n, cursor).ValueOrDie();
    auto want = index.Label(n);
    ASSERT_EQ(span.size(), want.size());
    EXPECT_TRUE(std::equal(span.begin(), span.end(), want.begin()));
    EXPECT_EQ(cursor.held_pins(), 0u) << "node " << n;
  }
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST(LabelFile, LeaseHeldWhileSpanLiveThenReleased) {
  auto g = WorldGraph(2, 4);
  auto index = BuildIndex(g);
  storage::MemoryDiskManager disk(512);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  storage::BufferPool pool(&disk, 64);
  ASSERT_TRUE(pool.lease_friendly());
  StoredLabelIndex stored(&file, &pool);
  LabelCursor cursor;
  // Find a node whose label fits one page (the zero-copy path).
  for (NodeId n = 0; n < stored.num_nodes(); ++n) {
    if (index.LabelSize(n) == 0 || index.LabelSize(n) > 31) {
      continue;
    }
    auto span = stored.Scan(n, cursor).ValueOrDie();
    ASSERT_FALSE(span.empty());
    EXPECT_EQ(cursor.held_pins(), 1u);
    EXPECT_GE(pool.num_pinned(), 1u);
    cursor.Reset();
    EXPECT_EQ(cursor.held_pins(), 0u);
    break;
  }
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST(LabelFile, EarlyExitPathsLeakNoPins) {
  auto g = WorldGraph(0, 6);
  auto index = BuildIndex(g);
  storage::MemoryDiskManager disk(512);
  auto file = LabelFile::Build(index, &disk).ValueOrDie();
  storage::BufferPool pool(&disk, 64);
  StoredLabelIndex stored(&file, &pool);
  LabelCursor cursor, aux;
  // Take a live lease first, then fail: the rejected scan leaves the
  // previous span (and its pin) intact — exactly the NeighborCursor
  // semantics — and Reset/destruction still drops everything.
  ASSERT_TRUE(stored.Scan(0, cursor).ok());
  EXPECT_TRUE(
      stored.Scan(stored.num_nodes(), cursor).status().IsOutOfRange());
  EXPECT_LE(cursor.held_pins(), 1u);
  cursor.Reset();
  EXPECT_EQ(cursor.held_pins(), 0u);
  EXPECT_EQ(pool.num_pinned(), 0u);
  // Pairwise lookup with a bad second node: the first scan's lease is
  // owned by its cursor and released by Reset, not leaked.
  EXPECT_FALSE(
      QueryViaStore(stored, 1, stored.num_nodes(), cursor, aux).ok());
  cursor.Reset();
  aux.Reset();
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
    cu.Reset();
    cv.Reset();
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

// ---------------------------------------------------------------------
// v3 delta layout (LabelLayout::kDelta): varint hub-id deltas + grouped
// raw distances. Decode-only — scans must still match the memory index
// entry-for-entry, but never hold a lease, and in-place maintenance is
// rejected outright.

TEST(LabelFileDelta, StoredScansMatchMemoryOnAllWorlds) {
  for (int family = 0; family < 3; ++family) {
    auto g = WorldGraph(family, 31 + static_cast<uint64_t>(family));
    auto index = BuildIndex(g);
    storage::MemoryDiskManager disk(512);
    auto file =
        LabelFile::Build(index, &disk, LabelLayout::kDelta).ValueOrDie();
    ASSERT_EQ(file.layout(), LabelLayout::kDelta);
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
  auto file =
      LabelFile::Build(index, &disk, LabelLayout::kDelta).ValueOrDie();
  storage::BufferPool pool(&disk, 64);
  ASSERT_TRUE(pool.lease_friendly());
  StoredLabelIndex stored(&file, &pool);
  LabelCursor cursor;
  for (NodeId n = 0; n < stored.num_nodes(); ++n) {
    auto span = stored.Scan(n, cursor).ValueOrDie();
    auto want = index.Label(n);
    ASSERT_EQ(span.size(), want.size()) << "node " << n;
    EXPECT_TRUE(std::equal(span.begin(), span.end(), want.begin()))
        << "node " << n;
    // Delta scans decode into scratch even on lease-friendly pools.
    EXPECT_EQ(cursor.held_pins(), 0u) << "node " << n;
  }
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST(LabelFileDelta, QueriesBitEqualToRecordsLayout) {
  for (int family = 0; family < 3; ++family) {
    const uint64_t seed = 41 + static_cast<uint64_t>(family);
    auto g = WorldGraph(family, seed);
    auto index = BuildIndex(g);
    storage::MemoryDiskManager disk(512);
    auto records = LabelFile::Build(index, &disk).ValueOrDie();
    auto delta =
        LabelFile::Build(index, &disk, LabelLayout::kDelta).ValueOrDie();
    // Same entries, same pages discipline — the delta file must be
    // strictly smaller (that is its whole reason to exist)...
    EXPECT_LT(delta.num_pages(), records.num_pages());
    storage::BufferPool pool(&disk, 64);
    StoredLabelIndex sr(&records, &pool);
    StoredLabelIndex sd(&delta, &pool);
    LabelCursor au, av, bu, bv;
    Rng rng(seed * 13 + 5);
    for (int i = 0; i < 200; ++i) {
      NodeId u = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
      // ...while serving bit-identical merged distances: raw 8-byte
      // doubles round-trip exactly through the blob.
      EXPECT_EQ(QueryViaStore(sr, u, v, au, av).ValueOrDie(),
                QueryViaStore(sd, u, v, bu, bv).ValueOrDie())
          << "family=" << family << " u=" << u << " v=" << v;
    }
    au.Reset();
    av.Reset();
    bu.Reset();
    bv.Reset();
    EXPECT_EQ(pool.num_pinned(), 0u);
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
    auto file =
        LabelFile::Build(index, &disk, LabelLayout::kDelta).ValueOrDie();
    first_page = file.first_page();
    built_pages = file.num_pages();
  }
  auto disk = storage::FileDiskManager::Open(path).ValueOrDie();
  auto file = LabelFile::Open(&disk, first_page).ValueOrDie();
  // The header alone reconstructs the layout and the byte-granular node
  // index; every label must come back entry-for-entry.
  EXPECT_EQ(file.layout(), LabelLayout::kDelta);
  EXPECT_EQ(file.num_pages(), built_pages);
  ASSERT_EQ(file.num_nodes(), index.num_nodes());
  ASSERT_EQ(file.num_entries(), index.num_entries());
  storage::BufferPool pool(&disk, 64);
  ExpectStoredScansMatch(index, file, &pool);
  std::remove(path.c_str());
}

TEST(LabelFileDelta, RewriteAndReplayAreRejected) {
  auto g = WorldGraph(0, 61);
  auto index = BuildIndex(g);
  storage::MemoryDiskManager disk(512);
  auto file =
      LabelFile::Build(index, &disk, LabelLayout::kDelta).ValueOrDie();
  storage::BufferPool pool(&disk, 64);
  // Pick a node with a non-empty label and try to rewrite it in place
  // with its own (count-preserving) entries: still rejected, because
  // variable-length blobs cannot be patched.
  NodeId victim = kInvalidNode;
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    if (index.LabelSize(n) > 0) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  std::vector<HubEntry> same(index.Label(victim).begin(),
                             index.Label(victim).end());
  EXPECT_EQ(file.RewriteLabel(&pool, victim, same, /*lsn=*/7).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(file.ReplayLabel(&disk, victim, same, /*lsn=*/7).status().code(),
            StatusCode::kFailedPrecondition);
  // The file is untouched: scans still match the memory index.
  ExpectStoredScansMatch(index, file, &pool);
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
