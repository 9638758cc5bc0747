// Copyright (c) GRNN authors.
// GraphFile: the paper's disk organization for large graphs (Section 3.1,
// Fig 3b): adjacency lists packed into pages in a locality-preserving
// order (by default recursive BFS bisection, standing in for the
// clustering of [2]; see storage/partitioner.h), plus a memory-resident
// index mapping node id -> list location.
//
// One page format. Every page starts with a 16-byte GraphPageHeader
// (magic, record count, 8 reserved bytes for a page checksum), followed
// by the paper's packed records: (neighbor: uint32, weight: double) = 12
// bytes each, back to back. Records never straddle a page, and lists
// never straddle one unless they are longer than a whole page: the tail
// of a page that cannot fit the next list is left as padding, exactly
// like slotted grouping in the paper's scheme. A longer list continues
// behind the header of the following pages.
//
// Every scan decodes into the cursor's scratch buffer and validates what
// it reads: a page whose magic or record count is wrong, or a record
// naming a neighbor outside the graph or carrying a weight that is not
// finite and positive, fails the scan with Status::Corruption. No pin
// outlives a scan.

#ifndef GRNN_STORAGE_GRAPH_FILE_H_
#define GRNN_STORAGE_GRAPH_FILE_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "graph/graph.h"
#include "graph/network_view.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/partitioner.h"

namespace grnn::storage {

/// Serialized size of one adjacency record (uint32 id + double weight).
inline constexpr size_t kAdjEntryBytes = sizeof(uint32_t) + sizeof(double);

/// Header at the start of every adjacency page.
struct GraphPageHeader {
  uint32_t magic = 0;        // kGraphPageMagic
  uint32_t entry_count = 0;  // records stored on this page
  uint64_t reserved = 0;     // zero; room for a page checksum
};
static_assert(sizeof(GraphPageHeader) == 16);

inline constexpr uint32_t kGraphPageMagic = 0x47524e50u;  // "GRNP"
inline constexpr size_t kGraphPageHeaderBytes = sizeof(GraphPageHeader);

struct GraphFileOptions {
  NodeOrder order = NodeOrder::kBisection;
  /// Seed for NodeOrder::kRandom.
  uint64_t seed = 42;
};

/// \brief Paged adjacency-list file with a memory-resident node index.
class GraphFile {
 public:
  /// Serializes `g` into fresh pages of `disk`. The page size must leave
  /// room for at least one record behind the header.
  static Result<GraphFile> Build(const graph::Graph& g, DiskManager* disk,
                                 const GraphFileOptions& options = {});

  /// Scans the adjacency list of `n` through `pool`, charging page I/O.
  /// The entries are decoded into the cursor's scratch buffer, so the
  /// span stays valid until the next scan through `cursor` or its
  /// destruction; the page pins are dropped before returning.
  /// Corruption when a page or record fails validation.
  Result<std::span<const AdjEntry>> ScanNeighbors(
      BufferPool* pool, NodeId n, graph::NeighborCursor& cursor) const;

  NodeId num_nodes() const { return static_cast<NodeId>(degrees_.size()); }
  size_t num_edges() const { return num_edges_; }
  uint32_t Degree(NodeId n) const { return degrees_[n]; }

  /// Pages occupied by adjacency data.
  size_t num_pages() const { return num_pages_; }
  /// First page id of this file inside the disk manager.
  PageId first_page() const { return first_page_; }

  /// Distinct pages the list of `n` occupies (>=1); exposed for tests and
  /// the packing ablation.
  size_t PagesSpanned(NodeId n) const;

 private:
  GraphFile() = default;

  /// Node index entry of `n`: the page holding its first record, relative
  /// to first_page_, and that record's slot on the page.
  std::pair<PageId, size_t> Locate(NodeId n) const;
  /// Validates the header of `page` and decodes `count` records starting
  /// at record `first_slot` into `out`.
  Status DecodeRecords(const uint8_t* page, PageId id, size_t first_slot,
                       size_t count, AdjEntry* out) const;

  size_t page_size_ = 0;
  size_t slots_per_page_ = 0;  // records one page holds behind its header
  size_t num_edges_ = 0;
  size_t num_pages_ = 0;
  PageId first_page_ = kInvalidPage;
  // Node index (memory-resident, as in Fig 3b): byte offset of each
  // list's first record within this file's page range (page headers
  // included in the byte count), plus its length in entries.
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> degrees_;
};

}  // namespace grnn::storage

#endif  // GRNN_STORAGE_GRAPH_FILE_H_
