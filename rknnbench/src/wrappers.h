// Copyright (c) GRNN authors.
// Timing wrappers over the library's public virtual interfaces. Each
// forwards every call unchanged to the source it wraps and records one
// span per data-access call (Scan / Read / ReadPage / WritePage). They
// are installed only in the traced run; the end-to-end run talks to the
// library objects directly.

#ifndef RKNNBENCH_WRAPPERS_H_
#define RKNNBENCH_WRAPPERS_H_

#include <vector>

#include "core/materialize.h"
#include "core/unrestricted.h"
#include "graph/network_view.h"
#include "index/hub_label.h"
#include "storage/disk_manager.h"
#include "trace.h"

namespace rknnbench {

class TracedNetworkView final : public grnn::graph::NetworkView {
 public:
  TracedNetworkView(const grnn::graph::NetworkView* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  grnn::NodeId num_nodes() const override { return inner_->num_nodes(); }
  size_t num_edges() const override { return inner_->num_edges(); }
  grnn::Result<std::span<const grnn::AdjEntry>> Scan(
      grnn::NodeId n, grnn::graph::NeighborCursor& cursor) const override {
    SpanScope span(tracer_, SpanKind::kGraphScan);
    return inner_->Scan(n, cursor);
  }

 private:
  const grnn::graph::NetworkView* inner_;
  Tracer* tracer_;
};

/// Read-only KNN stores only: snapshot serving requires maintained
/// stores to be MemoryKnnStores, which cannot be wrapped.
class TracedKnnStore final : public grnn::core::KnnStore {
 public:
  TracedKnnStore(grnn::core::KnnStore* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  uint32_t k() const override { return inner_->k(); }
  grnn::NodeId num_nodes() const override { return inner_->num_nodes(); }
  grnn::Status Read(grnn::NodeId n,
                    std::vector<grnn::core::NnEntry>* out) const override {
    SpanScope span(tracer_, SpanKind::kKnnRead);
    return inner_->Read(n, out);
  }
  grnn::Status Write(
      grnn::NodeId n,
      const std::vector<grnn::core::NnEntry>& entries) override {
    return inner_->Write(n, entries);
  }

 private:
  grnn::core::KnnStore* inner_;
  Tracer* tracer_;
};

class TracedLabelStore final : public grnn::index::LabelStore {
 public:
  TracedLabelStore(const grnn::index::LabelStore* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  grnn::NodeId num_nodes() const override { return inner_->num_nodes(); }
  size_t num_entries() const override { return inner_->num_entries(); }
  grnn::Result<std::span<const grnn::index::HubEntry>> Scan(
      grnn::NodeId n, grnn::index::LabelCursor& cursor) const override {
    SpanScope span(tracer_, SpanKind::kLabelScan);
    return inner_->Scan(n, cursor);
  }

 private:
  const grnn::index::LabelStore* inner_;
  Tracer* tracer_;
};

class TracedEdgePointReader final : public grnn::core::EdgePointReader {
 public:
  TracedEdgePointReader(const grnn::core::EdgePointReader* inner,
                        Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  bool Has(grnn::NodeId a, grnn::NodeId b) const override {
    return inner_->Has(a, b);
  }
  grnn::Status Read(
      grnn::NodeId a, grnn::NodeId b,
      std::vector<grnn::core::EdgePointRecord>* out) const override {
    SpanScope span(tracer_, SpanKind::kPointRead);
    return inner_->Read(a, b, out);
  }

 private:
  const grnn::core::EdgePointReader* inner_;
  Tracer* tracer_;
};

class TracedDiskManager final : public grnn::storage::DiskManager {
 public:
  TracedDiskManager(grnn::storage::DiskManager* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  size_t page_size() const override { return inner_->page_size(); }
  size_t num_pages() const override { return inner_->num_pages(); }
  grnn::Result<grnn::PageId> AllocatePage() override {
    return inner_->AllocatePage();
  }
  grnn::Status ReadPage(grnn::PageId id, uint8_t* out) override {
    SpanScope span(tracer_, SpanKind::kDiskRead);
    return inner_->ReadPage(id, out);
  }
  grnn::Status WritePage(grnn::PageId id, const uint8_t* data) override {
    SpanScope span(tracer_, SpanKind::kDiskWrite);
    return inner_->WritePage(id, data);
  }
  grnn::Status Sync() override { return inner_->Sync(); }

 private:
  grnn::storage::DiskManager* inner_;
  Tracer* tracer_;
};

}  // namespace rknnbench

#endif  // RKNNBENCH_WRAPPERS_H_
