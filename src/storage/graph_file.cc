#include "storage/graph_file.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/string_util.h"

namespace grnn::storage {

namespace {

// Slot-granular page writer: every page carries a GraphPageHeader
// followed by packed 12-byte records. The page buffer stays zeroed
// between pages, so page tails are deterministic on disk.
class PageWriter {
 public:
  PageWriter(DiskManager* disk, size_t page_size, size_t slots_per_page)
      : disk_(disk),
        page_size_(page_size),
        slots_per_page_(slots_per_page),
        buffer_(page_size, 0) {}

  uint64_t position() const {
    return static_cast<uint64_t>(pages_written_) * page_size_ +
           kGraphPageHeaderBytes + slot_fill_ * kAdjEntryBytes;
  }

  size_t remaining_slots() const { return slots_per_page_ - slot_fill_; }
  size_t slots_per_page() const { return slots_per_page_; }

  Result<PageId> first_page() const {
    if (first_page_ == kInvalidPage) {
      return Status::FailedPrecondition("no pages written yet");
    }
    return first_page_;
  }

  size_t pages_flushed_or_open() const {
    return pages_written_ + (slot_fill_ > 0 ? 1 : 0);
  }

  Status AppendEntry(const AdjEntry& a) {
    uint8_t* rec = buffer_.data() + kGraphPageHeaderBytes +
                   slot_fill_ * kAdjEntryBytes;
    std::memcpy(rec, &a.node, sizeof(uint32_t));
    std::memcpy(rec + sizeof(uint32_t), &a.weight, sizeof(double));
    if (++slot_fill_ == slots_per_page_) {
      GRNN_RETURN_NOT_OK(FlushPage());
    }
    return Status::OK();
  }

  Status PadToPageBoundary() {
    if (slot_fill_ > 0) {
      GRNN_RETURN_NOT_OK(FlushPage());
    }
    return Status::OK();
  }

 private:
  Status FlushPage() {
    GraphPageHeader header;
    header.magic = kGraphPageMagic;
    header.entry_count = static_cast<uint32_t>(slot_fill_);
    std::memcpy(buffer_.data(), &header, sizeof(header));
    GRNN_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
    if (first_page_ == kInvalidPage) {
      first_page_ = id;
    } else if (id != first_page_ + pages_written_) {
      return Status::Internal("graph file pages are not contiguous");
    }
    GRNN_RETURN_NOT_OK(disk_->WritePage(id, buffer_.data()));
    std::memset(buffer_.data(), 0, buffer_.size());
    pages_written_++;
    slot_fill_ = 0;
    return Status::OK();
  }

  DiskManager* disk_;
  size_t page_size_;
  size_t slots_per_page_;
  std::vector<uint8_t> buffer_;
  size_t slot_fill_ = 0;
  size_t pages_written_ = 0;
  PageId first_page_ = kInvalidPage;
};

}  // namespace

Result<GraphFile> GraphFile::Build(const graph::Graph& g,
                                   DiskManager* disk,
                                   const GraphFileOptions& options) {
  if (disk == nullptr) {
    return Status::InvalidArgument("disk manager is null");
  }
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot store an empty graph");
  }

  GraphFile file;
  file.page_size_ = disk->page_size();
  if (file.page_size_ < kGraphPageHeaderBytes + kAdjEntryBytes) {
    return Status::InvalidArgument(StrPrintf(
        "page size %zu cannot hold a page header plus one record",
        file.page_size_));
  }
  file.slots_per_page_ =
      (file.page_size_ - kGraphPageHeaderBytes) / kAdjEntryBytes;
  file.num_edges_ = g.num_edges();
  file.offsets_.assign(g.num_nodes(), 0);
  file.degrees_.assign(g.num_nodes(), 0);

  PageWriter writer(disk, file.page_size_, file.slots_per_page_);
  for (NodeId n : ComputeNodeOrder(g, options.order, options.seed)) {
    auto nbrs = g.Neighbors(n);
    // A list that fits on a page starts on a fresh one rather than
    // straddle the boundary.
    if (!nbrs.empty() && nbrs.size() <= writer.slots_per_page() &&
        nbrs.size() > writer.remaining_slots()) {
      GRNN_RETURN_NOT_OK(writer.PadToPageBoundary());
    }
    file.offsets_[n] = writer.position();
    file.degrees_[n] = static_cast<uint32_t>(nbrs.size());
    for (const AdjEntry& a : nbrs) {
      GRNN_RETURN_NOT_OK(writer.AppendEntry(a));
    }
  }
  GRNN_RETURN_NOT_OK(writer.PadToPageBoundary());
  GRNN_ASSIGN_OR_RETURN(file.first_page_, writer.first_page());
  file.num_pages_ = writer.pages_flushed_or_open();
  return file;
}

Result<std::span<const AdjEntry>> GraphFile::ScanNeighbors(
    BufferPool* pool, NodeId n, graph::NeighborCursor& cursor) const {
  if (n >= degrees_.size()) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  if (pool == nullptr) {
    return Status::InvalidArgument("buffer pool is null");
  }
  const uint32_t degree = degrees_[n];
  std::vector<AdjEntry>& scratch = cursor.scratch_;
  scratch.resize(degree);
  auto [page, slot] = Locate(n);
  size_t filled = 0;
  while (filled < degree) {
    const size_t take =
        std::min<size_t>(degree - filled, slots_per_page_ - slot);
    const PageId id = first_page_ + page;
    GRNN_ASSIGN_OR_RETURN(PageGuard guard, pool->Acquire(id));
    GRNN_RETURN_NOT_OK(DecodeRecords(guard.data(), id, slot, take,
                                     scratch.data() + filled));
    filled += take;
    // A longer list continues behind the next page's header.
    ++page;
    slot = 0;
  }
  return std::span<const AdjEntry>(scratch.data(), degree);
}

std::pair<PageId, size_t> GraphFile::Locate(NodeId n) const {
  const uint64_t off = offsets_[n];
  return {static_cast<PageId>(off / page_size_),
          (static_cast<size_t>(off % page_size_) - kGraphPageHeaderBytes) /
              kAdjEntryBytes};
}

Status GraphFile::DecodeRecords(const uint8_t* page, PageId id,
                                size_t first_slot, size_t count,
                                AdjEntry* out) const {
  GraphPageHeader header;
  std::memcpy(&header, page, sizeof(header));
  if (header.magic != kGraphPageMagic) {
    return Status::Corruption(
        StrPrintf("graph page %u has bad magic 0x%08x", id, header.magic));
  }
  if (header.entry_count > slots_per_page_ ||
      first_slot + count > header.entry_count) {
    return Status::Corruption(StrPrintf(
        "graph page %u holds %u records, scan needs slots [%zu, %zu)", id,
        header.entry_count, first_slot, first_slot + count));
  }
  const uint8_t* rec =
      page + kGraphPageHeaderBytes + first_slot * kAdjEntryBytes;
  for (size_t i = 0; i < count; ++i, rec += kAdjEntryBytes) {
    AdjEntry& a = out[i];
    std::memcpy(&a.node, rec, sizeof(uint32_t));
    std::memcpy(&a.weight, rec + sizeof(uint32_t), sizeof(double));
    if (a.node >= degrees_.size() || !(a.weight > 0) ||
        !std::isfinite(a.weight)) {
      return Status::Corruption(StrPrintf(
          "graph page %u slot %zu holds invalid record (node %u, "
          "weight %g)",
          id, first_slot + i, a.node, a.weight));
    }
  }
  return Status::OK();
}

size_t GraphFile::PagesSpanned(NodeId n) const {
  GRNN_CHECK(n < degrees_.size());
  if (degrees_[n] == 0) {
    return 1;
  }
  const size_t slots_first = slots_per_page_ - Locate(n).second;
  if (degrees_[n] <= slots_first) {
    return 1;
  }
  const size_t rest = degrees_[n] - slots_first;
  return 2 + (rest - 1) / slots_per_page_;
}

}  // namespace grnn::storage
