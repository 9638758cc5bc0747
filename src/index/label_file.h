// Copyright (c) GRNN authors.
// LabelFile: the hub-label index persisted as a paged file, served
// through the storage::BufferPool / PageGuard machinery with zero-copy
// cursor leases (the only pins held across calls in the tree).
//
// Layout (all pages contiguous, starting at first_page):
//
//   header page      LabelFileHeader, rest zero.
//   directory pages  one 16-byte DirectoryEntry per node, packed back to
//                    back (byte offset of the node's first record within
//                    this file's page range + entry count). Read once at
//                    Open into the memory-resident node index, exactly
//                    like GraphFile's offsets.
//   data pages       a 16-byte page header carrying the page's record
//                    count, then 16-byte records bit-identical to the
//                    in-memory HubEntry. Labels never straddle a page
//                    unless longer than a whole page, so almost every
//                    scan is one pin. Longer labels take runs of fresh
//                    pages; the rest are packed best-fit decreasing
//                    into the free slots, so data pages are not in node
//                    order (the directory locates every label) and the
//                    no-straddle rule costs only a few percent of the
//                    file.
//
// Scans: a label resident on one page of a lease-friendly pool is served
// zero-copy (the LabelCursor holds the RAII PageGuard pin until its next
// scan); page-straddling labels and pools under lease pressure decode
// into the cursor's scratch buffer and drop their pins before returning.
//
// v3 (LabelLayout::kDelta, opt-in at Build) replaces the record stream
// with one variable-length blob per label: the sorted hub ids as LEB128
// varint DELTAS followed by the distances as raw 8-byte doubles, grouped
// — the on-disk twin of index/packed_labels.h's SoA split. Grid/road
// labels, whose sorted hub ids sit close together, shrink to ~10 B/entry
// from 16. The cost is immutability: delta blobs cannot be patched in
// place, so RewriteLabel/ReplayLabel fail with FailedPrecondition and
// the journaled maintenance path (core/durability.cc) requires kRecords
// — which is why kRecords stays the default. Labels depend only on the
// immutable graph, so a serving-only deployment loses nothing. v3 scans
// always decode into the cursor scratch (never zero-copy, never a
// lease); the same no-straddle pad rule applies byte-wise.

#ifndef GRNN_INDEX_LABEL_FILE_H_
#define GRNN_INDEX_LABEL_FILE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "index/hub_label.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace grnn::index {

inline constexpr uint32_t kLabelFileMagic = 0x47524c31u;   // "GRL1"
inline constexpr uint32_t kLabelPageMagic = 0x47524c32u;   // "GRL2"
inline constexpr uint32_t kLabelFileVersion = 1;
inline constexpr uint32_t kLabelFileVersionDelta = 3;
inline constexpr size_t kLabelRecordBytes = sizeof(HubEntry);

/// On-disk data-page layout, chosen at Build time and recorded in the
/// header version (kLabelFileVersion <-> kRecords,
/// kLabelFileVersionDelta <-> kDelta).
enum class LabelLayout : uint8_t {
  kRecords,  // 16-byte HubEntry records; zero-copy scans, in-place
             // rewrites (the journaled maintenance path needs this)
  kDelta,    // varint hub-id deltas + grouped raw distances; ~40%
             // smaller, decode-only, immutable
};

/// First bytes of the header page.
struct LabelFileHeader {
  uint32_t magic = 0;          // kLabelFileMagic
  uint32_t version = 0;        // kLabelFileVersion
  uint32_t num_nodes = 0;
  uint32_t directory_pages = 0;
  uint64_t num_entries = 0;
  uint64_t data_pages = 0;
};
static_assert(sizeof(LabelFileHeader) == 32);

/// One directory record: where a node's label lives inside the file.
struct LabelDirectoryEntry {
  /// Byte offset of the first record, relative to the file's first
  /// page (page headers included in the count, as in GraphFile).
  uint64_t offset = 0;
  uint32_t count = 0;
  /// v3 (delta) files store the label blob's byte length here; v1 files
  /// write 0.
  uint32_t reserved = 0;
};
static_assert(sizeof(LabelDirectoryEntry) == 16);

/// Per-data-page header; sized to one record slot so the records behind
/// it stay 16-byte aligned relative to the page base. The spare 8 bytes
/// carry the page LSN (PR 7): RewriteLabel stamps the WAL lsn of the
/// newest update applied to the page, and redo-on-open (ReplayLabel)
/// skips pages already at or past the record's lsn.
struct LabelPageHeader {
  uint32_t magic = 0;        // kLabelPageMagic
  uint32_t entry_count = 0;  // records on this page (v1); payload bytes
                             // used on this page (v3)
  uint64_t lsn = 0;          // WAL lsn of the newest applied update
};
static_assert(sizeof(LabelPageHeader) == 16);
static_assert(offsetof(LabelPageHeader, lsn) == 8,
              "the page LSN lives in the header's spare bytes [8, 16)");
inline constexpr size_t kLabelPageHeaderBytes = sizeof(LabelPageHeader);

/// \brief Paged hub-label file with a memory-resident node index.
class LabelFile {
 public:
  /// Serializes `index` into fresh pages of `disk` (header, directory,
  /// data — written directly, not through a pool: construction is an
  /// offline step, like GraphFile::Build). The page size must hold the
  /// header structs plus at least one record. `layout` picks the data-
  /// page format; kRecords (the default) is the only layout the
  /// journaled rewrite path can maintain.
  static Result<LabelFile> Build(const HubLabelIndex& index,
                                 storage::DiskManager* disk,
                                 LabelLayout layout = LabelLayout::kRecords);

  /// Reopens a file previously written by Build: reads the header and
  /// directory pages back into the memory-resident index. `first_page`
  /// is the header page id Build reported.
  static Result<LabelFile> Open(storage::DiskManager* disk,
                                PageId first_page);

  /// Scans the label of `n` through `pool`, charging page I/O. The span
  /// stays valid until the next scan through `cursor`, its Reset, or its
  /// destruction; zero-copy/degrade rules as in the file comment.
  Result<std::span<const HubEntry>> ScanLabel(storage::BufferPool* pool,
                                              NodeId n,
                                              LabelCursor& cursor) const;

  /// Replaces the stored label of `n` in place. The layout is fixed at
  /// Build time, so the new label must have EXACTLY the node's directory
  /// count (label maintenance rewrites entries, never grows them). A
  /// non-zero `lsn` stamps the touched pages' headers (monotonically) —
  /// the journaled update path passes its WAL record's lsn. Needs
  /// external write synchronization against readers of the same label.
  /// FailedPrecondition on delta-layout files (variable-length blobs
  /// cannot be patched in place).
  Status RewriteLabel(storage::BufferPool* pool, NodeId n,
                      std::span<const HubEntry> entries, uint64_t lsn = 0);

  /// Redo arm of recovery: re-applies a logged label rewrite directly
  /// via `disk`, but only to pages whose header LSN is older than `lsn`
  /// (idempotent — see KnnFile::ReplayBatch). Returns the number of
  /// pages it wrote. Offline only.
  Result<size_t> ReplayLabel(storage::DiskManager* disk, NodeId n,
                             std::span<const HubEntry> entries,
                             uint64_t lsn) const;

  /// Page LSN of the data page holding (the start of) node `n`'s label,
  /// read through `disk`. Exposed for recovery tests.
  Result<uint64_t> PageLsnOf(storage::DiskManager* disk, NodeId n) const;

  NodeId num_nodes() const { return static_cast<NodeId>(counts_.size()); }
  size_t num_entries() const { return num_entries_; }
  uint32_t LabelSize(NodeId n) const { return counts_[n]; }
  LabelLayout layout() const { return layout_; }

  /// Pages occupied by the whole file (header + directory + data).
  size_t num_pages() const { return num_pages_; }
  /// Header page id inside the disk manager (pass to Open).
  PageId first_page() const { return first_page_; }

 private:
  LabelFile() = default;

  static Result<LabelFile> BuildRecords(const HubLabelIndex& index,
                                        storage::DiskManager* disk);
  static Result<LabelFile> BuildDelta(const HubLabelIndex& index,
                                      storage::DiskManager* disk);

  Status AssembleStraddling(storage::BufferPool* pool, NodeId n,
                            std::vector<HubEntry>& scratch) const;
  Status AssembleStraddlingBytes(storage::BufferPool* pool, NodeId n,
                                 std::vector<uint8_t>& out) const;
  Result<std::span<const HubEntry>> ScanLabelDelta(storage::BufferPool* pool,
                                                   NodeId n,
                                                   LabelCursor& cursor) const;

  size_t SlotsPerPage() const {
    return (page_size_ - kLabelPageHeaderBytes) / kLabelRecordBytes;
  }

  size_t page_size_ = 0;
  size_t num_entries_ = 0;
  size_t num_pages_ = 0;
  PageId first_page_ = kInvalidPage;
  LabelLayout layout_ = LabelLayout::kRecords;
  // Node index (memory-resident): byte offset of each label within this
  // file's page range plus its length in records (and, for delta files,
  // in bytes).
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> counts_;
  std::vector<uint32_t> bytes_;  // delta layout only
};

/// \brief Disk-backed LabelStore over a LabelFile + BufferPool, the
/// stored counterpart of HubLabelIndex (the "stored-label engine" of the
/// differential harness).
class StoredLabelIndex final : public LabelStore {
 public:
  /// \param file, pool must outlive the view.
  StoredLabelIndex(const LabelFile* file, storage::BufferPool* pool)
      : file_(file), pool_(pool) {
    GRNN_CHECK(file != nullptr);
    GRNN_CHECK(pool != nullptr);
  }

  NodeId num_nodes() const override { return file_->num_nodes(); }
  size_t num_entries() const override { return file_->num_entries(); }

  Result<std::span<const HubEntry>> Scan(
      NodeId n, LabelCursor& cursor) const override {
    return file_->ScanLabel(pool_, n, cursor);
  }

  storage::BufferPool* pool() const { return pool_; }
  const LabelFile& file() const { return *file_; }

 private:
  const LabelFile* file_;
  storage::BufferPool* pool_;
};

}  // namespace grnn::index

#endif  // GRNN_INDEX_LABEL_FILE_H_
