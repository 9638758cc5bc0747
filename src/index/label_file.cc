#include "index/label_file.h"

#include <cstring>

#include "common/string_util.h"
#include "obs/trace.h"

namespace grnn::index {

namespace {

// Cursor lease over one pinned frame: backs the zero-copy label spans,
// the LabelFile counterpart of GraphFile's page lease.
class LabelPageLease final : public graph::NeighborLease {
 public:
  void Drop() override { guard_.Release(); }
  // Guards from unbuffered pools own a private copy and pin nothing;
  // only report real frame pins.
  size_t num_pins() const override { return guard_.pins_frame() ? 1 : 0; }

  storage::PageGuard guard_;
};

// LEB128 varint (unsigned, 32-bit): 7 payload bits per byte, high bit
// marks continuation. Hub-id deltas within a sorted label are small, so
// most encode to 1-2 bytes.
void AppendVarint32(std::vector<uint8_t>& out, uint32_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

// Serializes one label as the v3 blob: varint deltas of the (sorted,
// strictly increasing) hub ids — the first id absolute — then the
// distances as raw 8-byte doubles.
void EncodeDeltaLabel(std::span<const HubEntry> label,
                      std::vector<uint8_t>& out) {
  out.clear();
  uint32_t prev = 0;
  for (const HubEntry& e : label) {
    AppendVarint32(out, e.hub - prev);
    prev = e.hub;
  }
  for (const HubEntry& e : label) {
    const size_t at = out.size();
    out.resize(at + sizeof(Weight));
    std::memcpy(out.data() + at, &e.dist, sizeof(Weight));
  }
}

// Decodes a v3 blob of `count` entries into HubEntry records.
Status DecodeDeltaLabel(const uint8_t* blob, size_t nbytes, uint32_t count,
                        std::vector<HubEntry>& out) {
  out.resize(count);
  size_t at = 0;
  uint32_t prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    int shift = 0;
    for (;;) {
      if (at >= nbytes || shift > 28) {
        return Status::Corruption("truncated varint in delta label blob");
      }
      const uint8_t byte = blob[at++];
      delta |= static_cast<uint32_t>(byte & 0x7fu) << shift;
      if ((byte & 0x80u) == 0) {
        break;
      }
      shift += 7;
    }
    prev += delta;
    out[i].hub = prev;
  }
  if (nbytes - at != static_cast<size_t>(count) * sizeof(Weight)) {
    return Status::Corruption(
        StrPrintf("delta label blob has %zu distance bytes, want %zu",
                  nbytes - at,
                  static_cast<size_t>(count) * sizeof(Weight)));
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(&out[i].dist, blob + at + i * sizeof(Weight),
                sizeof(Weight));
  }
  return Status::OK();
}

}  // namespace

Result<LabelFile> LabelFile::Build(const HubLabelIndex& index,
                                   storage::DiskManager* disk,
                                   LabelLayout layout) {
  return layout == LabelLayout::kDelta ? BuildDelta(index, disk)
                                       : BuildRecords(index, disk);
}

Result<LabelFile> LabelFile::BuildRecords(const HubLabelIndex& index,
                                          storage::DiskManager* disk) {
  if (disk == nullptr) {
    return Status::InvalidArgument("disk manager is null");
  }
  const NodeId n = index.num_nodes();
  if (n == 0) {
    return Status::InvalidArgument("cannot store an empty label index");
  }
  const size_t page_size = disk->page_size();
  if (page_size < sizeof(LabelFileHeader) ||
      page_size < kLabelPageHeaderBytes + kLabelRecordBytes) {
    return Status::InvalidArgument(StrPrintf(
        "page size %zu cannot hold the label file headers plus one "
        "record",
        page_size));
  }

  LabelFile file;
  file.page_size_ = page_size;
  file.num_entries_ = index.num_entries();
  file.first_page_ = kInvalidPage;
  file.offsets_.assign(n, 0);
  file.counts_.assign(n, 0);

  const size_t dir_pages =
      (static_cast<size_t>(n) * sizeof(LabelDirectoryEntry) + page_size -
       1) /
      page_size;
  const size_t slots_per_page =
      (page_size - kLabelPageHeaderBytes) / kLabelRecordBytes;

  // Lay the data region out first (same pad rule as the v2 GraphFile:
  // a label that fits on one page never straddles a boundary), so the
  // directory can be written in one forward pass.
  const uint64_t data_start =
      static_cast<uint64_t>(1 + dir_pages) * page_size;
  uint64_t data_pages = 0;
  size_t slot_fill = 0;
  for (NodeId v = 0; v < n; ++v) {
    const size_t count = index.LabelSize(v);
    if (count > 0 && count <= slots_per_page &&
        count > slots_per_page - slot_fill) {
      data_pages++;  // pad: the label starts on a fresh page
      slot_fill = 0;
    }
    file.offsets_[v] = data_start + data_pages * page_size +
                       kLabelPageHeaderBytes +
                       slot_fill * kLabelRecordBytes;
    file.counts_[v] = static_cast<uint32_t>(count);
    size_t remaining = count;
    while (remaining > 0) {
      const size_t take = std::min(remaining, slots_per_page - slot_fill);
      slot_fill += take;
      remaining -= take;
      if (slot_fill == slots_per_page) {
        data_pages++;
        slot_fill = 0;
      }
    }
  }
  if (slot_fill > 0) {
    data_pages++;
  }
  file.num_pages_ = 1 + dir_pages + data_pages;

  // Allocate the whole range up front; the writes below go straight to
  // the disk manager (construction is offline, like GraphFile::Build).
  for (size_t i = 0; i < file.num_pages_; ++i) {
    GRNN_ASSIGN_OR_RETURN(PageId id, disk->AllocatePage());
    if (file.first_page_ == kInvalidPage) {
      file.first_page_ = id;
    } else if (id != file.first_page_ + i) {
      return Status::Internal("label file pages are not contiguous");
    }
  }

  std::vector<uint8_t> buffer(page_size, 0);

  // Header page.
  LabelFileHeader header;
  header.magic = kLabelFileMagic;
  header.version = kLabelFileVersion;
  header.num_nodes = n;
  header.directory_pages = static_cast<uint32_t>(dir_pages);
  header.num_entries = file.num_entries_;
  header.data_pages = data_pages;
  std::memcpy(buffer.data(), &header, sizeof(header));
  GRNN_RETURN_NOT_OK(disk->WritePage(file.first_page_, buffer.data()));

  // Directory pages.
  const size_t dir_per_page = page_size / sizeof(LabelDirectoryEntry);
  for (size_t dp = 0; dp < dir_pages; ++dp) {
    std::memset(buffer.data(), 0, page_size);
    const size_t begin = dp * dir_per_page;
    const size_t end = std::min<size_t>(n, begin + dir_per_page);
    for (size_t v = begin; v < end; ++v) {
      LabelDirectoryEntry entry;
      entry.offset = file.offsets_[v];
      entry.count = file.counts_[v];
      std::memcpy(buffer.data() + (v - begin) * sizeof(entry), &entry,
                  sizeof(entry));
    }
    GRNN_RETURN_NOT_OK(disk->WritePage(
        file.first_page_ + static_cast<PageId>(1 + dp), buffer.data()));
  }

  // Data pages: replay the layout pass, now copying records.
  std::memset(buffer.data(), 0, page_size);
  uint64_t page_index = 0;
  slot_fill = 0;
  auto flush_page = [&]() -> Status {
    LabelPageHeader ph;
    ph.magic = kLabelPageMagic;
    ph.entry_count = static_cast<uint32_t>(slot_fill);
    std::memcpy(buffer.data(), &ph, sizeof(ph));
    GRNN_RETURN_NOT_OK(disk->WritePage(
        file.first_page_ + static_cast<PageId>(1 + dir_pages + page_index),
        buffer.data()));
    std::memset(buffer.data(), 0, page_size);
    page_index++;
    slot_fill = 0;
    return Status::OK();
  };
  for (NodeId v = 0; v < n; ++v) {
    const std::span<const HubEntry> label = index.Label(v);
    if (!label.empty() && label.size() <= slots_per_page &&
        label.size() > slots_per_page - slot_fill) {
      GRNN_RETURN_NOT_OK(flush_page());
    }
    for (const HubEntry& e : label) {
      std::memcpy(buffer.data() + kLabelPageHeaderBytes +
                      slot_fill * kLabelRecordBytes,
                  &e, sizeof(e));
      if (++slot_fill == slots_per_page) {
        GRNN_RETURN_NOT_OK(flush_page());
      }
    }
  }
  if (slot_fill > 0) {
    GRNN_RETURN_NOT_OK(flush_page());
  }
  if (page_index != data_pages) {
    return Status::Internal(
        "label file layout and write passes disagree");
  }
  return file;
}

Result<LabelFile> LabelFile::BuildDelta(const HubLabelIndex& index,
                                        storage::DiskManager* disk) {
  if (disk == nullptr) {
    return Status::InvalidArgument("disk manager is null");
  }
  const NodeId n = index.num_nodes();
  if (n == 0) {
    return Status::InvalidArgument("cannot store an empty label index");
  }
  const size_t page_size = disk->page_size();
  if (page_size < sizeof(LabelFileHeader) ||
      page_size < kLabelPageHeaderBytes + kLabelRecordBytes) {
    return Status::InvalidArgument(StrPrintf(
        "page size %zu cannot hold the label file headers plus one "
        "record",
        page_size));
  }

  LabelFile file;
  file.page_size_ = page_size;
  file.num_entries_ = index.num_entries();
  file.first_page_ = kInvalidPage;
  file.layout_ = LabelLayout::kDelta;
  file.offsets_.assign(n, 0);
  file.counts_.assign(n, 0);
  file.bytes_.assign(n, 0);

  const size_t dir_pages =
      (static_cast<size_t>(n) * sizeof(LabelDirectoryEntry) + page_size -
       1) /
      page_size;
  const size_t capacity = page_size - kLabelPageHeaderBytes;

  // Byte-granular layout pass with the same pad rule as the records
  // format: a blob that fits a page never straddles a boundary.
  const uint64_t data_start =
      static_cast<uint64_t>(1 + dir_pages) * page_size;
  uint64_t data_pages = 0;
  size_t byte_fill = 0;
  std::vector<uint8_t> blob;
  for (NodeId v = 0; v < n; ++v) {
    EncodeDeltaLabel(index.Label(v), blob);
    const size_t len = blob.size();
    file.counts_[v] = static_cast<uint32_t>(index.LabelSize(v));
    file.bytes_[v] = static_cast<uint32_t>(len);
    if (len > 0 && len <= capacity && len > capacity - byte_fill) {
      data_pages++;  // pad: the blob starts on a fresh page
      byte_fill = 0;
    }
    file.offsets_[v] = data_start + data_pages * page_size +
                       kLabelPageHeaderBytes + byte_fill;
    size_t remaining = len;
    while (remaining > 0) {
      const size_t take = std::min(remaining, capacity - byte_fill);
      byte_fill += take;
      remaining -= take;
      if (byte_fill == capacity) {
        data_pages++;
        byte_fill = 0;
      }
    }
  }
  if (byte_fill > 0) {
    data_pages++;
  }
  file.num_pages_ = 1 + dir_pages + data_pages;

  for (size_t i = 0; i < file.num_pages_; ++i) {
    GRNN_ASSIGN_OR_RETURN(PageId id, disk->AllocatePage());
    if (file.first_page_ == kInvalidPage) {
      file.first_page_ = id;
    } else if (id != file.first_page_ + i) {
      return Status::Internal("label file pages are not contiguous");
    }
  }

  std::vector<uint8_t> buffer(page_size, 0);

  LabelFileHeader header;
  header.magic = kLabelFileMagic;
  header.version = kLabelFileVersionDelta;
  header.num_nodes = n;
  header.directory_pages = static_cast<uint32_t>(dir_pages);
  header.num_entries = file.num_entries_;
  header.data_pages = data_pages;
  std::memcpy(buffer.data(), &header, sizeof(header));
  GRNN_RETURN_NOT_OK(disk->WritePage(file.first_page_, buffer.data()));

  const size_t dir_per_page = page_size / sizeof(LabelDirectoryEntry);
  for (size_t dp = 0; dp < dir_pages; ++dp) {
    std::memset(buffer.data(), 0, page_size);
    const size_t begin = dp * dir_per_page;
    const size_t end = std::min<size_t>(n, begin + dir_per_page);
    for (size_t v = begin; v < end; ++v) {
      LabelDirectoryEntry entry;
      entry.offset = file.offsets_[v];
      entry.count = file.counts_[v];
      entry.reserved = file.bytes_[v];
      std::memcpy(buffer.data() + (v - begin) * sizeof(entry), &entry,
                  sizeof(entry));
    }
    GRNN_RETURN_NOT_OK(disk->WritePage(
        file.first_page_ + static_cast<PageId>(1 + dp), buffer.data()));
  }

  // Data pages: replay the layout pass, now copying blob bytes.
  std::memset(buffer.data(), 0, page_size);
  uint64_t page_index = 0;
  byte_fill = 0;
  auto flush_page = [&]() -> Status {
    LabelPageHeader ph;
    ph.magic = kLabelPageMagic;
    ph.entry_count = static_cast<uint32_t>(byte_fill);
    std::memcpy(buffer.data(), &ph, sizeof(ph));
    GRNN_RETURN_NOT_OK(disk->WritePage(
        file.first_page_ + static_cast<PageId>(1 + dir_pages + page_index),
        buffer.data()));
    std::memset(buffer.data(), 0, page_size);
    page_index++;
    byte_fill = 0;
    return Status::OK();
  };
  for (NodeId v = 0; v < n; ++v) {
    EncodeDeltaLabel(index.Label(v), blob);
    if (!blob.empty() && blob.size() <= capacity &&
        blob.size() > capacity - byte_fill) {
      GRNN_RETURN_NOT_OK(flush_page());
    }
    size_t copied = 0;
    while (copied < blob.size()) {
      const size_t take =
          std::min(blob.size() - copied, capacity - byte_fill);
      std::memcpy(buffer.data() + kLabelPageHeaderBytes + byte_fill,
                  blob.data() + copied, take);
      byte_fill += take;
      copied += take;
      if (byte_fill == capacity) {
        GRNN_RETURN_NOT_OK(flush_page());
      }
    }
  }
  if (byte_fill > 0) {
    GRNN_RETURN_NOT_OK(flush_page());
  }
  if (page_index != data_pages) {
    return Status::Internal(
        "label file layout and write passes disagree");
  }
  return file;
}

Result<LabelFile> LabelFile::Open(storage::DiskManager* disk,
                                  PageId first_page) {
  if (disk == nullptr) {
    return Status::InvalidArgument("disk manager is null");
  }
  if (first_page >= disk->num_pages()) {
    return Status::OutOfRange("label file header page out of range");
  }
  const size_t page_size = disk->page_size();
  std::vector<uint8_t> buffer(page_size, 0);
  GRNN_RETURN_NOT_OK(disk->ReadPage(first_page, buffer.data()));
  if (page_size < sizeof(LabelFileHeader)) {
    return Status::Corruption("page size cannot hold a label header");
  }
  LabelFileHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  if (header.magic != kLabelFileMagic) {
    return Status::Corruption(
        StrPrintf("bad label file magic 0x%08x", header.magic));
  }
  if (header.version != kLabelFileVersion &&
      header.version != kLabelFileVersionDelta) {
    return Status::Corruption(
        StrPrintf("unsupported label file version %u", header.version));
  }
  const bool delta = header.version == kLabelFileVersionDelta;

  LabelFile file;
  file.page_size_ = page_size;
  file.num_entries_ = header.num_entries;
  file.num_pages_ = 1 + header.directory_pages + header.data_pages;
  file.first_page_ = first_page;
  file.layout_ = delta ? LabelLayout::kDelta : LabelLayout::kRecords;
  if (static_cast<size_t>(first_page) + file.num_pages_ >
      disk->num_pages()) {
    return Status::Corruption(
        "label file extends past the end of the disk");
  }
  file.offsets_.assign(header.num_nodes, 0);
  file.counts_.assign(header.num_nodes, 0);
  if (delta) {
    file.bytes_.assign(header.num_nodes, 0);
  }

  const size_t dir_per_page = page_size / sizeof(LabelDirectoryEntry);
  size_t entries_seen = 0;
  for (uint32_t dp = 0; dp < header.directory_pages; ++dp) {
    GRNN_RETURN_NOT_OK(
        disk->ReadPage(first_page + 1 + dp, buffer.data()));
    const size_t begin = static_cast<size_t>(dp) * dir_per_page;
    const size_t end =
        std::min<size_t>(header.num_nodes, begin + dir_per_page);
    for (size_t v = begin; v < end; ++v) {
      LabelDirectoryEntry entry;
      std::memcpy(&entry, buffer.data() + (v - begin) * sizeof(entry),
                  sizeof(entry));
      file.offsets_[v] = entry.offset;
      file.counts_[v] = entry.count;
      if (delta) {
        file.bytes_[v] = entry.reserved;
      }
      entries_seen += entry.count;
    }
  }
  if (entries_seen != header.num_entries) {
    return Status::Corruption(
        StrPrintf("label directory sums to %zu entries, header says %llu",
                  entries_seen,
                  static_cast<unsigned long long>(header.num_entries)));
  }
  return file;
}

Result<std::span<const HubEntry>> LabelFile::ScanLabel(
    storage::BufferPool* pool, NodeId n, LabelCursor& cursor) const {
  if (n >= counts_.size()) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  if (pool == nullptr) {
    return Status::InvalidArgument("buffer pool is null");
  }
  // Armed-trace child span (obs/trace.h): label-file scans are the
  // stored-label read path; the pool's Acquire notes its pins onto
  // this span. One nullptr branch when disarmed.
  obs::ScopedSpan span(obs::CurrentTrace(), "label.scan");
  if (span.armed()) {
    span.Note("entries", counts_[n]);
  }
  if (layout_ == LabelLayout::kDelta) {
    return ScanLabelDelta(pool, n, cursor);
  }
  // Invalidate the cursor's previous span first: its pin (possibly the
  // last frame of a small shard) must not block this scan's Acquire.
  cursor.Reset();
  const uint32_t count = counts_[n];
  if (count == 0) {
    return std::span<const HubEntry>();
  }

  const uint64_t off = offsets_[n];
  const size_t in_page = static_cast<size_t>(off % page_size_);
  const size_t slots_here = (page_size_ - in_page) / kLabelRecordBytes;
  if (count <= slots_here) {
    // Whole label on one page: serve it straight from the frame.
    const PageId page =
        first_page_ + static_cast<PageId>(off / page_size_);
    GRNN_ASSIGN_OR_RETURN(storage::PageGuard guard, pool->Acquire(page));
    const uint8_t* base = guard.data() + in_page;
    GRNN_DCHECK(reinterpret_cast<uintptr_t>(base) % alignof(HubEntry) ==
                0);
    const auto* records = reinterpret_cast<const HubEntry*>(base);
    if (pool->lease_friendly(page)) {
      // Zero-copy: the cursor leases the pin for the span's lifetime.
      if (cursor.lease_ == nullptr) {
        cursor.lease_ = std::make_unique<LabelPageLease>();
      }
      static_cast<LabelPageLease*>(cursor.lease_.get())->guard_ =
          std::move(guard);
      return std::span<const HubEntry>(records, count);
    }
    // Pool too small or under lease pressure: copy and unpin so held
    // cursors cannot exhaust a shard.
    cursor.scratch_.resize(count);
    std::memcpy(cursor.scratch_.data(), base, count * sizeof(HubEntry));
    return std::span<const HubEntry>(cursor.scratch_.data(), count);
  }
  GRNN_RETURN_NOT_OK(AssembleStraddling(pool, n, cursor.scratch_));
  return std::span<const HubEntry>(cursor.scratch_.data(), count);
}

Result<std::span<const HubEntry>> LabelFile::ScanLabelDelta(
    storage::BufferPool* pool, NodeId n, LabelCursor& cursor) const {
  // Delta blobs always decode into the scratch buffer: the span never
  // aliases a frame, so no lease is taken and the pin drops before
  // returning regardless of pool pressure.
  cursor.Reset();
  const uint32_t count = counts_[n];
  if (count == 0) {
    return std::span<const HubEntry>();
  }
  const uint32_t nbytes = bytes_[n];
  const uint64_t off = offsets_[n];
  const size_t in_page = static_cast<size_t>(off % page_size_);
  if (nbytes <= page_size_ - in_page) {
    const PageId page =
        first_page_ + static_cast<PageId>(off / page_size_);
    GRNN_ASSIGN_OR_RETURN(storage::PageGuard guard, pool->Acquire(page));
    GRNN_RETURN_NOT_OK(DecodeDeltaLabel(guard.data() + in_page, nbytes,
                                        count, cursor.scratch_));
    return std::span<const HubEntry>(cursor.scratch_.data(), count);
  }
  std::vector<uint8_t> blob;
  GRNN_RETURN_NOT_OK(AssembleStraddlingBytes(pool, n, blob));
  GRNN_RETURN_NOT_OK(
      DecodeDeltaLabel(blob.data(), nbytes, count, cursor.scratch_));
  return std::span<const HubEntry>(cursor.scratch_.data(), count);
}

Status LabelFile::RewriteLabel(storage::BufferPool* pool, NodeId n,
                               std::span<const HubEntry> entries,
                               uint64_t lsn) {
  if (layout_ == LabelLayout::kDelta) {
    return Status::FailedPrecondition(
        "delta-layout label files are immutable (variable-length blobs "
        "cannot be rewritten in place); build with LabelLayout::kRecords "
        "for journaled maintenance");
  }
  if (n >= counts_.size()) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  if (pool == nullptr) {
    return Status::InvalidArgument("buffer pool is null");
  }
  if (entries.size() != counts_[n]) {
    return Status::InvalidArgument(
        StrPrintf("label of node %u holds %u records, rewrite has %zu "
                  "(the stored layout is fixed at build time)",
                  n, counts_[n], entries.size()));
  }
  uint64_t off = offsets_[n];
  size_t written = 0;
  while (written < entries.size()) {
    const PageId page =
        first_page_ + static_cast<PageId>(off / page_size_);
    const size_t in_page = static_cast<size_t>(off % page_size_);
    const size_t take = std::min<size_t>(
        entries.size() - written,
        (page_size_ - in_page) / kLabelRecordBytes);
    GRNN_ASSIGN_OR_RETURN(storage::PageGuard guard, pool->Acquire(page));
    uint8_t* dst = guard.mutable_data();
    std::memcpy(dst + in_page, entries.data() + written,
                take * kLabelRecordBytes);
    if (lsn != 0) {
      // Monotone stamp: the header records the NEWEST applied update.
      uint64_t page_lsn = 0;
      std::memcpy(&page_lsn, dst + offsetof(LabelPageHeader, lsn),
                  sizeof(page_lsn));
      if (lsn > page_lsn) {
        std::memcpy(dst + offsetof(LabelPageHeader, lsn), &lsn,
                    sizeof(lsn));
      }
    }
    written += take;
    off = (off / page_size_ + 1) * page_size_ + kLabelPageHeaderBytes;
  }
  return Status::OK();
}

Result<size_t> LabelFile::ReplayLabel(storage::DiskManager* disk, NodeId n,
                                      std::span<const HubEntry> entries,
                                      uint64_t lsn) const {
  if (layout_ == LabelLayout::kDelta) {
    return Status::FailedPrecondition(
        "delta-layout label files are immutable and take no redo");
  }
  if (n >= counts_.size()) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  if (entries.size() != counts_[n]) {
    return Status::InvalidArgument(
        StrPrintf("label of node %u holds %u records, replay has %zu",
                  n, counts_[n], entries.size()));
  }
  if (lsn == 0) {
    return Status::InvalidArgument("replay needs the record's lsn");
  }
  std::vector<uint8_t> buffer(page_size_, 0);
  uint64_t off = offsets_[n];
  size_t written = 0;
  size_t pages_applied = 0;
  while (written < entries.size()) {
    const PageId page =
        first_page_ + static_cast<PageId>(off / page_size_);
    const size_t in_page = static_cast<size_t>(off % page_size_);
    const size_t take = std::min<size_t>(
        entries.size() - written,
        (page_size_ - in_page) / kLabelRecordBytes);
    GRNN_RETURN_NOT_OK(disk->ReadPage(page, buffer.data()));
    LabelPageHeader header;
    std::memcpy(&header, buffer.data(), sizeof(header));
    if (header.magic != kLabelPageMagic) {
      return Status::Corruption(StrPrintf(
          "bad label page magic 0x%08x on page %u", header.magic, page));
    }
    // Page-LSN redo filter (idempotent replay).
    if (header.lsn < lsn) {
      std::memcpy(buffer.data() + in_page, entries.data() + written,
                  take * kLabelRecordBytes);
      header.lsn = lsn;
      std::memcpy(buffer.data(), &header, sizeof(header));
      GRNN_RETURN_NOT_OK(disk->WritePage(page, buffer.data()));
      pages_applied++;
    }
    written += take;
    off = (off / page_size_ + 1) * page_size_ + kLabelPageHeaderBytes;
  }
  return pages_applied;
}

Result<uint64_t> LabelFile::PageLsnOf(storage::DiskManager* disk,
                                      NodeId n) const {
  if (n >= counts_.size()) {
    return Status::OutOfRange(StrPrintf("node %u out of range", n));
  }
  if (counts_[n] == 0) {
    return uint64_t{0};  // empty labels own no page
  }
  std::vector<uint8_t> buffer(page_size_, 0);
  GRNN_RETURN_NOT_OK(disk->ReadPage(
      first_page_ + static_cast<PageId>(offsets_[n] / page_size_),
      buffer.data()));
  LabelPageHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  return header.lsn;
}

Status LabelFile::AssembleStraddling(storage::BufferPool* pool, NodeId n,
                                     std::vector<HubEntry>& scratch) const {
  const uint32_t count = counts_[n];
  scratch.resize(count);
  uint64_t off = offsets_[n];
  size_t filled = 0;
  while (filled < count) {
    const PageId page =
        first_page_ + static_cast<PageId>(off / page_size_);
    const size_t in_page = static_cast<size_t>(off % page_size_);
    const size_t take = std::min<size_t>(
        count - filled, (page_size_ - in_page) / kLabelRecordBytes);
    GRNN_ASSIGN_OR_RETURN(storage::PageGuard guard, pool->Acquire(page));
#ifndef NDEBUG
    LabelPageHeader header;
    std::memcpy(&header, guard.data(), sizeof(header));
    GRNN_DCHECK(header.magic == kLabelPageMagic);
    GRNN_DCHECK((in_page - kLabelPageHeaderBytes) / kLabelRecordBytes +
                    take <=
                header.entry_count);
#endif
    std::memcpy(scratch.data() + filled, guard.data() + in_page,
                take * kLabelRecordBytes);
    filled += take;
    // Continuation records start behind the next page's header.
    off = (off / page_size_ + 1) * page_size_ + kLabelPageHeaderBytes;
  }
  return Status::OK();
}

Status LabelFile::AssembleStraddlingBytes(storage::BufferPool* pool,
                                          NodeId n,
                                          std::vector<uint8_t>& out) const {
  const uint32_t nbytes = bytes_[n];
  out.resize(nbytes);
  uint64_t off = offsets_[n];
  size_t filled = 0;
  while (filled < nbytes) {
    const PageId page =
        first_page_ + static_cast<PageId>(off / page_size_);
    const size_t in_page = static_cast<size_t>(off % page_size_);
    const size_t take =
        std::min<size_t>(nbytes - filled, page_size_ - in_page);
    GRNN_ASSIGN_OR_RETURN(storage::PageGuard guard, pool->Acquire(page));
    std::memcpy(out.data() + filled, guard.data() + in_page, take);
    filled += take;
    // Continuation bytes start behind the next page's header.
    off = (off / page_size_ + 1) * page_size_ + kLabelPageHeaderBytes;
  }
  return Status::OK();
}

}  // namespace grnn::index
