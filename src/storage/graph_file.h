// Copyright (c) GRNN authors.
// GraphFile: the paper's disk organization for large graphs (Section 3.1,
// Fig 3b): adjacency lists packed into pages in a locality-preserving
// order (by default recursive BFS bisection, standing in for the
// clustering of [2]; see storage/partitioner.h), plus a memory-resident
// index mapping node id -> list location.
//
// Two on-page record formats exist (GraphFileOptions::layout):
//
//   * kV1Packed — the paper-exact serialization: each adjacency entry is
//     (neighbor: uint32, weight: double) = 12 bytes, packed back to back.
//     Lists never straddle a page boundary unless they are longer than a
//     whole page; the tail of a page that cannot fit the next list is
//     left as padding, exactly like slotted grouping in the paper's
//     scheme. Reads decode into the cursor's scratch buffer.
//
//   * kV2Aligned (default) — records are bit-identical to the in-memory
//     AdjEntry (16 bytes, weight at offset 8), preceded by a 16-byte page
//     header carrying the page's entry count. A list resident on one page
//     is served ZERO-COPY: the scan pins the frame (an RAII PageGuard
//     lease held by the cursor) and returns a span straight into the
//     page. The 16-vs-12-byte record is the classic space-for-decode
//     trade: ~33% more pages, no per-edge decode on the hot path. The
//     packing ablation sweeps both.

#ifndef GRNN_STORAGE_GRAPH_FILE_H_
#define GRNN_STORAGE_GRAPH_FILE_H_

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "graph/graph.h"
#include "graph/network_view.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/partitioner.h"

namespace grnn::storage {

/// Serialized size of one v1 adjacency entry (uint32 id + double weight).
inline constexpr size_t kAdjEntryBytes = sizeof(uint32_t) + sizeof(double);

/// On-page record format of the adjacency file.
enum class PageLayout : uint8_t {
  kV1Packed,   // paper-exact 12-byte records (compat / ablation mode)
  kV2Aligned,  // AdjEntry-identical 16-byte records behind a page header
};

const char* PageLayoutName(PageLayout layout);

/// v2 serves spans straight out of the page: the on-page record must be
/// byte-identical to the in-memory AdjEntry.
static_assert(std::is_trivially_copyable_v<AdjEntry>);
static_assert(sizeof(AdjEntry) == 16, "v2 records are 16-byte AdjEntry");
static_assert(offsetof(AdjEntry, node) == 0);
static_assert(offsetof(AdjEntry, weight) == 8);
static_assert(alignof(AdjEntry) == 8);

/// Header at the start of every v2 page. Sized to one record slot so the
/// records behind it stay 16-byte aligned relative to the page base.
struct V2PageHeader {
  uint32_t magic = 0;        // kV2Magic
  uint32_t entry_count = 0;  // records stored on this page
  uint64_t reserved = 0;
};
static_assert(sizeof(V2PageHeader) == 16);

inline constexpr uint32_t kV2Magic = 0x47524e32u;  // "GRN2"
inline constexpr size_t kV2HeaderBytes = sizeof(V2PageHeader);
inline constexpr size_t kV2RecordBytes = sizeof(AdjEntry);

struct GraphFileOptions {
  NodeOrder order = NodeOrder::kBisection;
  PageLayout layout = PageLayout::kV2Aligned;
  /// Avoid splitting sub-page lists across page boundaries.
  bool pad_to_page_boundaries = true;
  /// Seed for NodeOrder::kRandom.
  uint64_t seed = 42;
};

/// \brief Paged adjacency-list file with a memory-resident node index.
class GraphFile {
 public:
  /// Serializes `g` into fresh pages of `disk`. v2 requires the disk's
  /// page size to be a multiple of 16 with room for at least one record
  /// behind the header.
  static Result<GraphFile> Build(const graph::Graph& g, DiskManager* disk,
                                 const GraphFileOptions& options = {});

  /// Scans the adjacency list of `n` through `pool`, charging page I/O.
  /// Returns a span valid until the next scan through `cursor`, cursor
  /// Reset, or cursor destruction (see network_view.h for the full
  /// lifetime rules). Zero-copy when the layout is v2, the list sits on
  /// one page and the pool is lease_friendly(page) — which also degrades
  /// scans to copy mode while the page's shard is under lease pressure
  /// (pin-reservation guard); otherwise the entries are decoded into the
  /// cursor's scratch buffer and the page pins are dropped before
  /// returning.
  Result<std::span<const AdjEntry>> ScanNeighbors(
      BufferPool* pool, NodeId n, graph::NeighborCursor& cursor) const;

  NodeId num_nodes() const { return static_cast<NodeId>(degrees_.size()); }
  size_t num_edges() const { return num_edges_; }
  uint32_t Degree(NodeId n) const { return degrees_[n]; }
  PageLayout layout() const { return layout_; }

  /// Pages occupied by adjacency data.
  size_t num_pages() const { return num_pages_; }
  /// First page id of this file inside the disk manager.
  PageId first_page() const { return first_page_; }

  /// Distinct pages the list of `n` occupies (>=1); exposed for tests and
  /// the packing ablation.
  size_t PagesSpanned(NodeId n) const;

 private:
  GraphFile() = default;

  Status ScanV1(BufferPool* pool, NodeId n,
                std::vector<AdjEntry>& scratch) const;
  Status AssembleV2(BufferPool* pool, NodeId n,
                    std::vector<AdjEntry>& scratch) const;

  /// Records one v2 page can hold.
  size_t V2SlotsPerPage() const {
    return (page_size_ - kV2HeaderBytes) / kV2RecordBytes;
  }

  PageLayout layout_ = PageLayout::kV2Aligned;
  size_t page_size_ = 0;
  size_t num_edges_ = 0;
  size_t num_pages_ = 0;
  PageId first_page_ = kInvalidPage;
  // Node index (memory-resident, as in Fig 3b): byte offset of each list
  // within this file's page range (v2: offset of the first record, page
  // headers included in the byte count), plus its length in entries.
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> degrees_;
};

}  // namespace grnn::storage

#endif  // GRNN_STORAGE_GRAPH_FILE_H_
