// Copyright (c) GRNN authors.

#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>

#include "common/macros.h"
#include "common/string_util.h"

namespace rknnbench {

using grnn::Status;
using grnn::StrPrintf;

namespace {

struct KindInfo {
  const char* name;
  Layer layer;
  bool root;
};

constexpr KindInfo kKinds[kNumSpanKinds] = {
    {"core.query", Layer::kCore, true},
    {"index.query", Layer::kIndex, true},
    {"core.update", Layer::kCore, true},
    {"storage.build", Layer::kStorage, true},
    {"core.materialize", Layer::kCore, true},
    {"index.build", Layer::kIndex, true},
    {"core.engine_create", Layer::kCore, true},
    {"graph.scan", Layer::kGraph, false},
    {"core.knn_read", Layer::kCore, false},
    {"index.label_scan", Layer::kIndex, false},
    {"storage.point_read", Layer::kStorage, false},
    {"storage.disk_read", Layer::kStorage, false},
    {"storage.disk_write", Layer::kStorage, false},
};

std::atomic<uint64_t> next_tracer_id{1};

// Roots the benchmark's clients time with ClientTimed.
bool IsClientTimedKind(SpanKind kind) {
  return kind == SpanKind::kQuery || kind == SpanKind::kHubQuery ||
         kind == SpanKind::kUpdate;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanName(SpanKind kind) {
  return kKinds[static_cast<size_t>(kind)].name;
}

Layer SpanLayer(SpanKind kind) {
  return kKinds[static_cast<size_t>(kind)].layer;
}

bool IsRootKind(SpanKind kind) {
  return kKinds[static_cast<size_t>(kind)].root;
}

struct Tracer::PerThread {
  struct OpenSpan {
    uint32_t stored = kNoParent;
    SpanKind kind = SpanKind::kQuery;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
  };

  uint32_t index = 0;
  std::vector<Span> spans;
  std::vector<ClientTime> client;
  std::vector<OpenSpan> stack;
  AggregateTable aggregates{};
  AggregateTable stored_aggregates{};
  bool storing = false;
  uint64_t dropped_roots = 0;
  uint64_t requests = 0;
  uint64_t request = 0;
  uint32_t last_root = kNoParent;
};

Tracer::Tracer(size_t max_stored_spans)
    : max_stored_(max_stored_spans),
      id_(next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() = default;

Tracer::PerThread& Tracer::ThisThread() {
  // Keyed by tracer id, not address: a later tracer at the same address
  // must not inherit a dangling buffer.
  thread_local uint64_t cached_id = 0;
  thread_local PerThread* cached = nullptr;
  if (cached_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<PerThread>());
    cached = threads_.back().get();
    cached->index = static_cast<uint32_t>(threads_.size() - 1);
    cached_id = id_;
  }
  return *cached;
}

bool Tracer::Open(SpanKind kind) {
  PerThread& t = ThisThread();
  if (t.stack.empty()) {
    if (!IsRootKind(kind)) {
      return false;
    }
    t.storing = t.spans.size() < max_stored_;
    t.dropped_roots += t.storing ? 0 : 1;
    t.request = (static_cast<uint64_t>(t.index) << 40) | ++t.requests;
  }
  const int64_t now = NowNs();
  uint32_t stored = kNoParent;
  if (t.storing) {
    Span s;
    s.start_ns = now;
    s.end_ns = now - 1;  // marks "still open" until Close
    s.request = t.request;
    s.parent = t.stack.empty() ? kNoParent : t.stack.back().stored;
    s.kind = kind;
    t.spans.push_back(s);
    stored = static_cast<uint32_t>(t.spans.size() - 1);
  }
  t.stack.push_back({stored, kind, now, 0});
  return true;
}

void Tracer::Close() {
  const int64_t now = NowNs();
  PerThread& t = ThisThread();
  const PerThread::OpenSpan open = t.stack.back();
  t.stack.pop_back();
  const int64_t dur = now - open.start_ns;
  const SpanKind root = t.stack.empty() ? open.kind : t.stack.front().kind;
  const SpanAggregate one{1, dur, dur - open.child_ns};
  t.aggregates[static_cast<size_t>(root)][static_cast<size_t>(open.kind)] +=
      one;
  if (!t.stack.empty()) {
    t.stack.back().child_ns += dur;
  } else {
    t.last_root = open.stored;
  }
  if (open.stored != kNoParent) {
    t.spans[open.stored].end_ns = now;
    t.stored_aggregates[static_cast<size_t>(root)]
                       [static_cast<size_t>(open.kind)] += one;
  }
}

void Tracer::ClientTimed(int64_t start_ns, int64_t end_ns) {
  PerThread& t = ThisThread();
  if (t.last_root != kNoParent) {
    t.client.push_back({t.last_root, start_ns, end_ns});
    t.last_root = kNoParent;
  }
}

AggregateTable Tracer::Aggregates() const {
  std::lock_guard<std::mutex> lock(mu_);
  AggregateTable sum{};
  for (const auto& t : threads_) {
    for (size_t r = 0; r < kNumSpanKinds; ++r) {
      for (size_t k = 0; k < kNumSpanKinds; ++k) {
        sum[r][k] += t->aggregates[r][k];
      }
    }
  }
  return sum;
}

std::vector<ThreadSpans> Tracer::StoredSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadSpans> out;
  for (const auto& t : threads_) {
    out.push_back({t->index, t->spans, t->client, t->stored_aggregates,
                   t->dropped_roots});
  }
  return out;
}

namespace {

std::string Describe(const SpanAggregate& a) {
  return StrPrintf("count %llu, %lld ns, self %lld ns",
                   static_cast<unsigned long long>(a.count),
                   static_cast<long long>(a.total_ns),
                   static_cast<long long>(a.self_ns));
}

// Tree shape of one thread's spans: fills the time each span's direct
// children cover and the root each span belongs to.
Status CheckTree(const ThreadSpans& t, std::vector<int64_t>& child_ns,
                 std::vector<uint32_t>& root_of) {
  const std::vector<Span>& spans = t.spans;
  const size_t n = spans.size();
  std::vector<int64_t> last_child_end(n, INT64_MIN);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) {
      return Status::Internal(StrPrintf("thread %u span %zu (%s) never closed",
                                        t.thread, i, SpanName(s.kind)));
    }
    if (s.parent == kNoParent) {
      if (!IsRootKind(s.kind)) {
        return Status::Internal(
            StrPrintf("thread %u span %zu (%s) has no parent", t.thread, i,
                      SpanName(s.kind)));
      }
      root_of[i] = static_cast<uint32_t>(i);
      continue;
    }
    if (s.parent >= i) {
      return Status::Internal(
          StrPrintf("thread %u span %zu: parent %u does not exist before it",
                    t.thread, i, s.parent));
    }
    const Span& p = spans[s.parent];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return Status::Internal(StrPrintf(
          "thread %u span %zu (%s) lies outside its parent %u (%s)", t.thread,
          i, SpanName(s.kind), s.parent, SpanName(p.kind)));
    }
    if (s.request != p.request) {
      return Status::Internal(
          StrPrintf("thread %u span %zu: request id differs from its parent's",
                    t.thread, i));
    }
    if (s.start_ns < last_child_end[s.parent]) {
      return Status::Internal(StrPrintf(
          "thread %u span %zu overlaps an earlier sibling", t.thread, i));
    }
    last_child_end[s.parent] = s.end_ns;
    child_ns[s.parent] += s.end_ns - s.start_ns;
    root_of[i] = root_of[s.parent];
  }
  return Status::OK();
}

// Stored query and update roots against the intervals their clients
// timed around the same calls.
Status CheckClientTimes(const ThreadSpans& t) {
  constexpr int64_t kSlackPerRootNs = 2000;
  const std::vector<Span>& spans = t.spans;
  std::vector<uint8_t> timed(spans.size(), 0);
  int64_t client_ns = 0;
  int64_t root_ns = 0;
  for (const ClientTime& c : t.client) {
    if (c.span >= spans.size() || spans[c.span].parent != kNoParent ||
        !IsClientTimedKind(spans[c.span].kind)) {
      return Status::Internal(StrPrintf(
          "thread %u: a client interval names span %u, not a stored query or "
          "update root",
          t.thread, c.span));
    }
    if (timed[c.span]++ != 0) {
      return Status::Internal(StrPrintf(
          "thread %u root span %u has two client intervals", t.thread, c.span));
    }
    const Span& s = spans[c.span];
    if (s.start_ns < c.start_ns || s.end_ns > c.end_ns) {
      return Status::Internal(StrPrintf(
          "thread %u root span %u (%s) lies outside the interval its client "
          "timed",
          t.thread, c.span, SpanName(s.kind)));
    }
    client_ns += c.end_ns - c.start_ns;
    root_ns += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == kNoParent && IsClientTimedKind(spans[i].kind) &&
        timed[i] == 0) {
      return Status::Internal(
          StrPrintf("thread %u root span %zu (%s) has no client interval",
                    t.thread, i, SpanName(spans[i].kind)));
    }
  }
  const int64_t slack =
      client_ns / 50 + kSlackPerRootNs * static_cast<int64_t>(t.client.size());
  if (client_ns - root_ns > slack) {
    return Status::Internal(StrPrintf(
        "thread %u: root spans cover %lld ns of the %lld ns their clients "
        "timed",
        t.thread, static_cast<long long>(root_ns),
        static_cast<long long>(client_ns)));
  }
  return Status::OK();
}

}  // namespace

Status CheckSpans(const std::vector<ThreadSpans>& threads,
                  const AggregateTable& aggregates) {
  AggregateTable stored_sum{};
  bool dropped = false;
  for (const ThreadSpans& t : threads) {
    const size_t n = t.spans.size();
    std::vector<int64_t> child_ns(n, 0);
    std::vector<uint32_t> root_of(n, kNoParent);
    GRNN_RETURN_NOT_OK(CheckTree(t, child_ns, root_of));
    GRNN_RETURN_NOT_OK(CheckClientTimes(t));
    // The running aggregates against the same figures recomputed from
    // the stored spans and their parent links.
    AggregateTable recomputed{};
    for (size_t i = 0; i < n; ++i) {
      const Span& s = t.spans[i];
      const int64_t dur = s.end_ns - s.start_ns;
      recomputed[static_cast<size_t>(t.spans[root_of[i]].kind)]
                [static_cast<size_t>(s.kind)] +=
          SpanAggregate{1, dur, dur - child_ns[i]};
    }
    for (size_t r = 0; r < kNumSpanKinds; ++r) {
      for (size_t k = 0; k < kNumSpanKinds; ++k) {
        if (recomputed[r][k] != t.aggregates[r][k]) {
          return Status::Internal(StrPrintf(
              "thread %u: running aggregate of %s under %s roots (%s) "
              "differs from its stored spans (%s)",
              t.thread, SpanName(static_cast<SpanKind>(k)),
              SpanName(static_cast<SpanKind>(r)),
              Describe(t.aggregates[r][k]).c_str(),
              Describe(recomputed[r][k]).c_str()));
        }
        stored_sum[r][k] += t.aggregates[r][k];
      }
    }
    dropped = dropped || t.dropped_roots > 0;
  }
  // With every root stored, the metrics' aggregates are exactly the
  // stored requests'; otherwise they can only hold more.
  for (size_t r = 0; r < kNumSpanKinds; ++r) {
    for (size_t k = 0; k < kNumSpanKinds; ++k) {
      const SpanAggregate& got = aggregates[r][k];
      const SpanAggregate& stored = stored_sum[r][k];
      if (dropped ? got.count < stored.count : !(got == stored)) {
        return Status::Internal(StrPrintf(
            "aggregate of %s under %s roots (%s) does not match the stored "
            "requests (%s)",
            SpanName(static_cast<SpanKind>(k)),
            SpanName(static_cast<SpanKind>(r)), Describe(got).c_str(),
            Describe(stored).c_str()));
      }
    }
  }
  return Status::OK();
}

Status WriteSpanFile(const std::string& path,
                     const std::vector<ThreadSpans>& threads,
                     const AggregateTable& aggregates) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError(StrPrintf("cannot open %s", path.c_str()));
  }
  std::fprintf(f, "thread\tspan\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const ThreadSpans& t : threads) {
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      std::fprintf(f, "%u\t%zu\t%lld\t%llu\t%s\t%lld\t%lld\n", t.thread, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   SpanName(s.kind), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  if (std::fclose(f) != 0) {
    return Status::IOError(StrPrintf("write to %s failed", path.c_str()));
  }
  return CheckSpans(threads, aggregates);
}

}  // namespace rknnbench
