// Copyright (c) GRNN authors.
// Span recorder for the benchmark's traced run.
//
// The benchmark wraps the library's public interfaces from outside
// (wrappers.h) and times its own calls into the library; every timed
// call is a span with a name, start, end, parent and request id. Spans
// live in per-thread buffers and are written out once, when the run
// ends. A span opened on a thread with no open root (e.g. a scheduler
// worker) is not recorded: the bench only attributes time below calls
// it made itself.
//
// Besides the stored spans every thread keeps exact aggregates per
// (root kind, span kind): count, inclusive time and self time (the span
// minus its children). Aggregates cover every span; storage is capped
// per thread at root granularity, so long runs keep bounded memory and
// the span file holds complete request trees only.
//
// A client that times a root call with its own clock reports that
// interval (ClientTimed), so the check can hold the span to it.

#ifndef RKNNBENCH_TRACE_H_
#define RKNNBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace rknnbench {

/// The repo modules spans are attributed to.
enum class Layer : uint8_t { kCore, kGraph, kStorage, kIndex, kCount };

/// Every span the benchmark records. The first group are roots (calls
/// the bench itself makes), the rest are wrapper spans.
enum class SpanKind : uint8_t {
  kQuery,         // core.query: RknnEngine::Run, expansion algorithms
  kHubQuery,      // index.query: RknnEngine::Run with kHubLabel
  kUpdate,        // core.update: RknnEngine::ApplyUpdate
  kFileBuild,     // storage.build: Graph/Knn/Point/LabelFile builds
  kMaterialize,   // core.materialize: BuildAllNn
  kLabelBuild,    // index.build: HubLabelBuilder::Build
  kEngineCreate,  // core.engine_create: RknnEngine::Create
  kGraphScan,     // graph.scan: NetworkView::Scan
  kKnnRead,       // core.knn_read: KnnStore::Read
  kLabelScan,     // index.label_scan: LabelStore::Scan
  kPointRead,     // storage.point_read: EdgePointReader::Read
  kDiskRead,      // storage.disk_read: DiskManager::ReadPage
  kDiskWrite,     // storage.disk_write: DiskManager::WritePage
  kCount
};

inline constexpr size_t kNumSpanKinds = static_cast<size_t>(SpanKind::kCount);

const char* SpanName(SpanKind kind);
Layer SpanLayer(SpanKind kind);
bool IsRootKind(SpanKind kind);

inline constexpr uint32_t kNoParent = UINT32_MAX;

/// One recorded span. `parent` indexes the same thread's buffer.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  uint32_t parent = kNoParent;
  SpanKind kind = SpanKind::kQuery;
};

/// Exact totals over every span of one kind below one kind of root.
struct SpanAggregate {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;

  bool operator==(const SpanAggregate&) const = default;
  SpanAggregate& operator+=(const SpanAggregate& o) {
    count += o.count;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    return *this;
  }
};

/// aggregates[root kind][span kind].
using AggregateTable =
    std::array<std::array<SpanAggregate, kNumSpanKinds>, kNumSpanKinds>;

/// The interval a client timed around the root span `span`.
struct ClientTime {
  uint32_t span = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's stored spans, the client intervals of its stored roots
/// and its running aggregates over the stored requests.
struct ThreadSpans {
  uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<ClientTime> client;
  AggregateTable aggregates{};
  /// Roots aggregated but not stored (past the cap).
  uint64_t dropped_roots = 0;
};

/// The steady clock every span and client interval is read from.
int64_t NowNs();

class Tracer {
 public:
  /// `max_stored_spans` caps each thread's buffer; a root that starts
  /// past the cap is aggregated but not stored.
  explicit Tracer(size_t max_stored_spans = 100000);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  /// Opens a span on the calling thread. Returns false (and records
  /// nothing) for a non-root kind on a thread without an open root.
  bool Open(SpanKind kind);
  /// Closes the innermost span the calling thread opened.
  void Close();
  /// Reports the interval the calling thread timed around the root span
  /// it closed last; ignored when that root was not stored.
  void ClientTimed(int64_t start_ns, int64_t end_ns);

  /// Sum of every thread's aggregates. Call after all threads stopped.
  AggregateTable Aggregates() const;
  /// Every thread's stored spans. Call after all threads stopped.
  std::vector<ThreadSpans> StoredSpans() const;

 private:
  struct PerThread;
  PerThread& ThisThread();

  const size_t max_stored_;
  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<PerThread>> threads_;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanKind kind)
      : tracer_(tracer != nullptr && tracer->Open(kind) ? tracer : nullptr) {}
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->Close();
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

/// Span-file sanity: every parent exists and precedes its child, every
/// child lies inside its parent and shares its request id, and siblings
/// do not overlap. Every stored query or update root lies inside the
/// interval its client timed, and together the roots cover those
/// intervals (within 2% plus 2 us per root), so a root that closed
/// early shows. Each thread's running aggregates, kept span by span as
/// the run went, equal the count, time and self time recomputed from
/// its stored spans, and when no root was dropped `aggregates` (the
/// source of the per-layer metrics) equals their sum.
grnn::Status CheckSpans(const std::vector<ThreadSpans>& threads,
                        const AggregateTable& aggregates);

/// Writes the span file (tab-separated, one span per line, with a
/// header) and checks it with CheckSpans.
grnn::Status WriteSpanFile(const std::string& path,
                           const std::vector<ThreadSpans>& threads,
                           const AggregateTable& aggregates);

}  // namespace rknnbench

#endif  // RKNNBENCH_TRACE_H_
