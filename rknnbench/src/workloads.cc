// Copyright (c) GRNN authors.

#include "workloads.h"

#include <sys/resource.h>
#include <time.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/string_util.h"
#include "common/timer.h"
#include "gen/points.h"
#include "gen/road_network.h"
#include "serve/scheduler.h"
#include "storage/partitioner.h"

namespace rknnbench {

using grnn::NodeId;
using grnn::PointId;
using grnn::Result;
using grnn::Rng;
using grnn::Status;
using grnn::StrPrintf;
using grnn::WallTimer;
using grnn::core::Algorithm;
using grnn::core::QueryKind;
using grnn::core::QuerySpec;
using grnn::core::RknnEngine;
using grnn::core::RknnResult;
using grnn::core::UpdateSpec;

namespace {

constexpr uint32_t kKnnK = 4;
constexpr int kKs[] = {1, 2, 4};
constexpr double kIoCostMs = 10.0;  // the paper's charge per page fault
// Generator seed of every dataset (network and point sets). The dataset
// is fixed, like the paper's SF map; the run's --seed drives the query,
// update and arrival streams.
constexpr uint64_t kWorldSeed = 1;
// mixed-update's closed-loop readers (plus one writer: 3 busy threads).
constexpr size_t kReaders = 2;

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Sleeps most of the way, then spins, so open-loop due times hold to a
// few microseconds.
void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t left = due_ns - NowNs();
    if (left <= 0) {
      return;
    }
    if (left > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
    }
  }
}

int NumCpus() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Oracle sample membership: a seeded hash of the op index.
bool Sampled(uint64_t seed, uint64_t i, uint64_t every) {
  uint64_t x = (seed + 1) * 0x9E3779B97F4A7C15ULL ^ (i + 1) * 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 31;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 29;
  return x % every == 0;
}

SpanKind RootKindFor(const QuerySpec& spec) {
  return spec.algorithm == Algorithm::kHubLabel ? SpanKind::kHubQuery
                                                : SpanKind::kQuery;
}

// Runs `spec` under a root span, timed by the client's own clock into
// [*t0, *t1]; the span check holds the stored root to that interval.
Result<RknnResult> TimedRun(RknnEngine& engine, const QuerySpec& spec,
                            Tracer* tracer, int64_t* t0, int64_t* t1) {
  *t0 = NowNs();
  Result<RknnResult> r = [&] {
    SpanScope root(tracer, RootKindFor(spec));
    return engine.Run(spec);
  }();
  *t1 = NowNs();
  if (tracer != nullptr) {
    tracer->ClientTimed(*t0, *t1);
  }
  return r;
}

std::vector<NodeId> BfsSlots(const grnn::graph::Graph& g) {
  // Cluster KNN lists like the adjacency pages (bench_util's recipe).
  const std::vector<NodeId> order = grnn::storage::ComputeNodeOrder(
      g, grnn::storage::NodeOrder::kBfs);
  std::vector<NodeId> slot_of(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    slot_of[order[i]] = i;
  }
  return slot_of;
}

std::string Describe(const QuerySpec& spec) {
  std::string where;
  if (spec.kind == QueryKind::kUnrestricted) {
    where = StrPrintf("(%u,%u)@%.3f", spec.position.u, spec.position.v,
                      spec.position.pos);
  } else {
    for (NodeId n : spec.query_nodes) {
      where += StrPrintf("%s%u", where.empty() ? "" : ",", n);
    }
  }
  return StrPrintf("%s %s k=%d at %s", grnn::core::QueryKindName(spec.kind),
                   grnn::core::AlgorithmShortName(spec.algorithm), spec.k,
                   where.c_str());
}

int Slices(const Config& cfg) { return std::max(1, cfg.setups); }

// ---------------------------------------------------------------------
// Measurement records

// Per-op samples of one phase, with completion times so the phase can
// be cut into time windows.
struct Samples {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<int64_t> done_ns;
  std::vector<double> latency_us;
  std::vector<double> cpu_us;
  std::vector<double> faults;

  void Add(int64_t done, double latency, double cpu, double fault_count) {
    done_ns.push_back(done);
    latency_us.push_back(latency);
    cpu_us.push_back(cpu);
    faults.push_back(fault_count);
  }
  // Adds a phase that ran alongside this one (same time base).
  void Append(const Samples& o, int64_t shift_ns = 0) {
    for (int64_t done : o.done_ns) {
      done_ns.push_back(done + shift_ns);
    }
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    cpu_us.insert(cpu_us.end(), o.cpu_us.begin(), o.cpu_us.end());
    faults.insert(faults.end(), o.faults.begin(), o.faults.end());
  }
  // Adds a phase that ran after this one as if it had followed without
  // a gap: the set-up between two slices is not part of the phase.
  void AppendSlice(const Samples& o) {
    if (done_ns.empty() && start_ns == end_ns) {
      start_ns = end_ns = o.start_ns;
    }
    Append(o, end_ns - o.start_ns);
    end_ns += o.end_ns - o.start_ns;
  }
};

// The reported end-to-end figures of a phase. Each is the median over
// equal time windows of that window's value, so a burst of host noise
// moves one window, not the figure. p99 windows hold at least 2000
// samples (20 beyond the percentile).
struct Figures {
  double p50_us = 0;
  double p99_us = 0;
  double qps = 0;
  double paper_cost_ms = 0;  // CPU time + 10 ms per page fault, per op
};

Figures Summarize(const Samples& s) {
  const size_t n = s.latency_us.size();
  const double span_ns = static_cast<double>(std::max<int64_t>(1, s.end_ns - s.start_ns));
  auto window_of = [&](size_t i, size_t windows) {
    const double at = static_cast<double>(s.done_ns[i] - s.start_ns) / span_ns;
    return std::min(windows - 1,
                    static_cast<size_t>(std::max(0.0, at) * static_cast<double>(windows)));
  };
  Figures f;
  {
    const size_t windows = std::clamp<size_t>(n / 200, 1, 10);
    std::vector<std::vector<double>> lat(windows);
    std::vector<double> cost(windows, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t w = window_of(i, windows);
      lat[w].push_back(s.latency_us[i]);
      cost[w] += s.cpu_us[i] / 1e3 + kIoCostMs * s.faults[i];
    }
    std::vector<double> p50, qps, costs;
    for (size_t w = 0; w < windows; ++w) {
      const double count = static_cast<double>(lat[w].size());
      p50.push_back(Percentile(lat[w], 0.5));
      qps.push_back(count / (span_ns / 1e9 / static_cast<double>(windows)));
      costs.push_back(Ratio(cost[w], count));
    }
    f.p50_us = Median(p50);
    f.qps = Median(qps);
    f.paper_cost_ms = Median(costs);
  }
  {
    const size_t windows = std::clamp<size_t>(n / 2000, 1, 10);
    std::vector<std::vector<double>> lat(windows);
    for (size_t i = 0; i < n; ++i) {
      lat[window_of(i, windows)].push_back(s.latency_us[i]);
    }
    std::vector<double> p99;
    for (const std::vector<double>& w : lat) {
      p99.push_back(Percentile(w, 0.99));
    }
    f.p99_us = Median(p99);
  }
  return f;
}

struct QueryTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t results = 0;
  grnn::core::SearchStats search;
  grnn::storage::IoStats io;
  Samples samples;

  void Add(const Result<RknnResult>& r, int64_t done_ns, double latency_us,
           int64_t cpu_ns, const grnn::storage::IoStats& io_delta) {
    attempted += 1;
    io += io_delta;
    samples.Add(done_ns, latency_us, static_cast<double>(cpu_ns) / 1e3,
                static_cast<double>(io_delta.physical_reads));
    if (!r.ok()) {
      failed += 1;
      return;
    }
    results += r->results.size();
    search += r->stats;
  }
  void Merge(const QueryTotals& o) {
    MergeCounts(o);
    samples.Append(o.samples);
  }
  void MergeSlice(const QueryTotals& o) {
    MergeCounts(o);
    samples.AppendSlice(o.samples);
  }
  void MergeCounts(const QueryTotals& o) {
    attempted += o.attempted;
    failed += o.failed;
    results += o.results;
    search += o.search;
    io += o.io;
  }
  double PerQuery(double total) const {
    return Ratio(total, static_cast<double>(attempted));
  }
};

struct OracleSample {
  uint64_t index = 0;  // position in the phase's op stream
  QuerySpec spec;
  std::vector<PointId> ids;
};

struct Collector {
  uint64_t seed = 0;
  size_t max = 0;
  std::vector<OracleSample> samples;

  void Offer(uint64_t index, const QuerySpec& spec,
             const Result<RknnResult>& r) {
    if (r.ok() && samples.size() < max && Sampled(seed, index, 16)) {
      samples.push_back({index, spec, ResultIds(*r)});
    }
  }
};

// Mean over the traced phase of an aggregate, per root of `roots`.
struct TraceView {
  const AggregateTable& agg;
  std::vector<SpanKind> roots;

  double Roots() const {
    double n = 0;
    for (SpanKind r : roots) {
      n += static_cast<double>(At(r, r).count);
    }
    return n;
  }
  const SpanAggregate& At(SpanKind root, SpanKind kind) const {
    return agg[static_cast<size_t>(root)][static_cast<size_t>(kind)];
  }
  SpanAggregate Sum(SpanKind kind) const {
    SpanAggregate s;
    for (SpanKind r : roots) {
      s += At(r, kind);
    }
    return s;
  }
  double CountPerRoot(SpanKind kind) const {
    return Ratio(static_cast<double>(Sum(kind).count), Roots());
  }
  double UsPerRoot(SpanKind kind) const {
    return Ratio(static_cast<double>(Sum(kind).total_ns) / 1e3, Roots());
  }
  double MeanNs(SpanKind kind) const {
    const SpanAggregate s = Sum(kind);
    return Ratio(static_cast<double>(s.total_ns), static_cast<double>(s.count));
  }
  double LayerSelfUsPerRoot(Layer layer) const {
    double ns = 0;
    for (size_t k = 0; k < kNumSpanKinds; ++k) {
      if (SpanLayer(static_cast<SpanKind>(k)) == layer) {
        ns += static_cast<double>(Sum(static_cast<SpanKind>(k)).self_ns);
      }
    }
    return Ratio(ns / 1e3, Roots());
  }
};

// Traced vs untraced p50 over the same leading ops (both phases replay
// one seeded stream, so their prefixes hold identical specs).
double OverheadPct(const std::vector<double>& untraced,
                   const std::vector<double>& traced, bool paired) {
  std::vector<double> a = untraced;
  std::vector<double> b = traced;
  if (paired) {
    const size_t n = std::min(a.size(), b.size());
    a.resize(n);
    b.resize(n);
  }
  const double base = Median(a);
  return base > 0 ? (Median(b) - base) / base * 100.0 : 0;
}

// Every per-layer metric, in BENCHMARK.json order; a traced run reports
// all of them (0 where a layer does no work on the workload).
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kLayerMetrics[] = {
    {"core.expanded_per_query", "count"},
    {"core.verify_per_query", "count"},
    {"core.verify_yield", "ratio"},
    {"core.self_us_per_query", "us"},
    {"core.knn_reads_per_query", "count"},
    {"core.knn_read_us_per_query", "us"},
    {"core.update_p50_us", "us"},
    {"core.update_p99_us", "us"},
    {"core.update_self_us", "us"},
    {"core.lists_written_per_update", "count"},
    {"core.nodes_touched_per_update", "count"},
    {"core.materialize_s", "s"},
    {"core.engine_create_s", "s"},
    {"graph.scans_per_query", "count"},
    {"graph.scan_us_per_query", "us"},
    {"graph.scan_ns", "ns"},
    {"graph.scans_per_update", "count"},
    {"graph.scan_us_per_update", "us"},
    {"storage.faults_per_query", "count"},
    {"storage.hit_ratio", "ratio"},
    {"storage.evictions_per_query", "count"},
    {"storage.read_us_per_fault", "us"},
    {"storage.file_pages", "count"},
    {"storage.build_s", "s"},
    {"index.build_s", "s"},
    {"index.avg_label_size", "count"},
    {"index.bytes_per_entry", "B"},
    {"index.scans_per_query", "count"},
    {"index.scan_us_per_query", "us"},
    {"index.entries_per_query", "count"},
    {"index.self_us_per_query", "us"},
    {"index.fallbacks", "count"},
    {"serve.service_us_p50", "us"},
    {"serve.open_p50_us", "us"},
    {"serve.open_p99_us", "us"},
    {"serve.wait_us_p50", "us"},
    {"serve.batch_mean", "count"},
    {"serve.shed", "count"},
    {"serve.expired", "count"},
    {"serve.late_us_p99", "us"},
    {"serve.sustained_qps", "1/s"},
    {"serve.versions_published", "count"},
    {"serve.pin_retries", "count"},
    {"serve.epoch_limbo", "count"},
    {"obs.trace_overhead_pct", "%"},
};

// Collects per-layer values by name and emits them in kLayerMetrics
// order. A name kLayerMetrics does not list fails the run instead of
// reading as 0 ("does not apply").
class MetricSheet {
 public:
  MetricSheet() : values_(std::size(kLayerMetrics), 0) {}

  void Set(const std::string& name, double value) {
    for (size_t i = 0; i < std::size(kLayerMetrics); ++i) {
      if (name == kLayerMetrics[i].name) {
        values_[i] = value;
        return;
      }
    }
    unknown_.push_back(name);
  }
  Result<std::vector<Metric>> LayerMetrics() const {
    if (!unknown_.empty()) {
      return Status::Internal("unknown per-layer metric '" + unknown_[0] + "'");
    }
    std::vector<Metric> out;
    for (size_t i = 0; i < std::size(kLayerMetrics); ++i) {
      out.push_back({kLayerMetrics[i].name, values_[i], kLayerMetrics[i].unit});
    }
    return out;
  }

 private:
  std::vector<double> values_;
  std::vector<std::string> unknown_;
};

// Set-up times are the fastest of the run's set-ups: host noise only
// ever adds time, so the minimum is the steadiest estimate.
double Fastest(const std::vector<SetupTimes>& setups,
               double SetupTimes::*step) {
  double best = setups.front().*step;
  for (const SetupTimes& t : setups) {
    best = std::min(best, t.*step);
  }
  return best;
}

void SetSetupMetrics(const std::vector<SetupTimes>& setups, MetricSheet& m) {
  m.Set("storage.build_s", Fastest(setups, &SetupTimes::files_s));
  m.Set("core.materialize_s", Fastest(setups, &SetupTimes::materialize_s));
  m.Set("index.build_s", Fastest(setups, &SetupTimes::labels_s));
  m.Set("core.engine_create_s", Fastest(setups, &SetupTimes::engine_s));
  m.Set("storage.file_pages", static_cast<double>(setups.back().file_pages));
  m.Set("index.avg_label_size", setups.back().avg_label_size);
  m.Set("index.bytes_per_entry", setups.back().bytes_per_entry);
}

// Per-query counters read off the engine's SearchStats and the pool.
void SetQueryCounters(const QueryTotals& q, MetricSheet& m) {
  m.Set("core.expanded_per_query",
        q.PerQuery(static_cast<double>(q.search.nodes_expanded)));
  m.Set("core.verify_per_query",
        q.PerQuery(static_cast<double>(q.search.verify_calls)));
  m.Set("core.verify_yield", Ratio(static_cast<double>(q.results),
                                   static_cast<double>(q.search.verify_calls)));
  m.Set("core.knn_reads_per_query",
        q.PerQuery(static_cast<double>(q.search.knn_list_reads)));
  m.Set("index.entries_per_query",
        q.PerQuery(static_cast<double>(q.search.label_entries)));
  m.Set("storage.faults_per_query",
        q.PerQuery(static_cast<double>(q.io.physical_reads)));
  m.Set("storage.hit_ratio", q.io.HitRate());
  m.Set("storage.evictions_per_query",
        q.PerQuery(static_cast<double>(q.io.evictions)));
}

void SetQuerySpans(const AggregateTable& agg, MetricSheet& m) {
  const TraceView t{agg, {SpanKind::kQuery, SpanKind::kHubQuery}};
  m.Set("core.self_us_per_query", t.LayerSelfUsPerRoot(Layer::kCore));
  m.Set("core.knn_read_us_per_query", t.UsPerRoot(SpanKind::kKnnRead));
  m.Set("graph.scans_per_query", t.CountPerRoot(SpanKind::kGraphScan));
  m.Set("graph.scan_us_per_query", t.UsPerRoot(SpanKind::kGraphScan));
  m.Set("graph.scan_ns", t.MeanNs(SpanKind::kGraphScan));
  m.Set("storage.read_us_per_fault", t.MeanNs(SpanKind::kDiskRead) / 1e3);
  m.Set("index.scans_per_query", t.CountPerRoot(SpanKind::kLabelScan));
  m.Set("index.scan_us_per_query", t.UsPerRoot(SpanKind::kLabelScan));
  m.Set("index.self_us_per_query", t.LayerSelfUsPerRoot(Layer::kIndex));
}

Status WriteSpans(const RunOptions& opts, const Tracer& tracer) {
  const std::vector<ThreadSpans> spans = tracer.StoredSpans();
  const AggregateTable agg = tracer.Aggregates();
  if (opts.out_dir.empty()) {
    return CheckSpans(spans, agg);
  }
  return WriteSpanFile(
      StrPrintf("%s/spans-%s.tsv", opts.out_dir.c_str(), opts.workload.c_str()),
      spans, agg);
}

// Compares two runs of the same spec; records a problem on mismatch.
void CompareIds(const std::string& what, const QuerySpec& spec,
                const std::vector<PointId>& got,
                const std::vector<PointId>& want, RunResult& out) {
  if (got != want) {
    out.correct = false;
    out.problems.push_back(StrPrintf(
        "oracle mismatch (%s) on %s: %zu vs %zu results", what.c_str(),
        Describe(spec).c_str(), got.size(), want.size()));
  }
}

// The traced phase replays the untraced phase's op stream, so wherever
// both sampled the same position the answers must be identical.
void CompareTraced(const Collector& untraced, const Collector& traced,
                   RunResult& out) {
  size_t j = 0;
  for (const OracleSample& t : traced.samples) {
    while (j < untraced.samples.size() && untraced.samples[j].index < t.index) {
      ++j;
    }
    if (j < untraced.samples.size() && untraced.samples[j].index == t.index) {
      CompareIds("traced vs untraced", t.spec, t.ids, untraced.samples[j].ids,
                 out);
    }
  }
}

// Builds cfg.setups worlds one after another, timing each set-up, and
// runs one slice of the timed phase, measure(world, slice), on each
// before building the next. The end-to-end figures then span several
// set-ups' memory layouts and several moments of the run: on a shared
// host the same query loop ran 1.6x slower on one freshly built world
// than on the next. Returns the last world.
template <typename Build, typename Measure>
auto SetUpAndMeasure(const Config& cfg, Build build, Measure measure,
                     std::vector<SetupTimes>* times) -> decltype(build()) {
  decltype(build()) world = Status::Internal("no set-up ran");
  for (int i = 0; i < Slices(cfg); ++i) {
    world = Status::Internal("replaced");  // free the previous world first
#ifdef __GLIBC__
    // Hand its pages back, so every world starts from the same heap and
    // peak_rss_mb does not grow with the number of set-ups.
    malloc_trim(0);
#endif
    world = build();
    if (!world.ok()) {
      return world;
    }
    times->push_back((*world)->times);
    measure(**world, i);
  }
  return world;
}

std::vector<Metric> EndToEnd(const std::vector<SetupTimes>& setups,
                             const Figures& f) {
  return {
      {"setup_s", Fastest(setups, &SetupTimes::total_s), "s"},
      {"query_p50_us", f.p50_us, "us"},
      {"query_p99_us", f.p99_us, "us"},
      {"qps", f.qps, "1/s"},
      {"paper_cost_ms", f.paper_cost_ms, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// ---------------------------------------------------------------------
// Closed-loop clients

// One closed-loop client on the calling thread: each query is issued
// when the previous one returned. Records per-query wall latency, thread
// CPU time and the faults `pool` charged. `first` is the position in the
// run's op stream of the first query, which the oracle sample keys on.
template <typename NextSpec, typename EngineFor>
QueryTotals ClosedLoop(grnn::storage::BufferPool& pool, NextSpec next_spec,
                       EngineFor engine_for, size_t first, double seconds,
                       Tracer* tracer, Collector* collector) {
  QueryTotals q;
  q.samples.start_ns = NowNs();
  const int64_t deadline =
      q.samples.start_ns + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = first; NowNs() < deadline; ++i) {
    const QuerySpec spec = next_spec(i);
    RknnEngine& engine = engine_for(spec);
    const grnn::storage::IoStats io0 = pool.stats();
    const int64_t cpu0 = ThreadCpuNs();
    int64_t t0 = 0;
    int64_t t1 = 0;
    Result<RknnResult> r = TimedRun(engine, spec, tracer, &t0, &t1);
    q.Add(r, t1, static_cast<double>(t1 - t0) / 1e3, ThreadCpuNs() - cpu0,
          pool.stats() - io0);
    if (collector != nullptr) {
      collector->Offer(i, spec, r);
    }
  }
  q.samples.end_ns = NowNs();
  return q;
}

// Fills the buffer pool before timing with the same queries on every
// world of a run, so the untraced and traced phases start from equal
// caches. Untimed and outside any root span, so nothing is traced.
void WarmPool(DiskWorld& w, const Inputs& in, uint64_t seed) {
  SpecStream warm(&in, seed + 1000,
                  {std::begin(grnn::core::kAllQueryKinds),
                   std::end(grnn::core::kAllQueryKinds)},
                  {std::begin(grnn::core::kAllAlgorithms),
                   std::end(grnn::core::kAllAlgorithms)});
  for (int i = 0; i < 16; ++i) {
    const QuerySpec spec = warm.Next();
    (void)w.EngineFor(spec).Run(spec);
  }
}

// paper-disk's client cycles through a fixed query pool.
QueryTotals DiskClosedLoop(DiskWorld& w, const std::vector<QuerySpec>& specs,
                           size_t first, double seconds, Tracer* tracer,
                           Collector* collector) {
  return ClosedLoop(
      *w.pool, [&](size_t i) { return specs[i % specs.size()]; },
      [&](const QuerySpec& spec) -> RknnEngine& { return w.EngineFor(spec); },
      first, seconds, tracer, collector);
}

// label-serve's serial pass: the service time of each query without
// queueing.
QueryTotals SerialPass(ServeWorld& w, SpecStream& stream, size_t first,
                       double seconds, Tracer* tracer, Collector* collector) {
  return ClosedLoop(
      *w.pool, [&](size_t) { return stream.Next(); },
      [&](const QuerySpec&) -> RknnEngine& { return *w.engine; }, first,
      seconds, tracer, collector);
}

// ---------------------------------------------------------------------
// paper-disk

Result<RunResult> RunPaperDisk(const RunOptions& opts) {
  const Config& cfg = opts.config;
  GRNN_ASSIGN_OR_RETURN(std::unique_ptr<Inputs> in,
                        MakeInputs(cfg.disk_nodes, cfg.density, kWorldSeed));

  // A fixed pool of queries over the fixed dataset, replayed in a seeded
  // order: every run covers (about) the same queries, so the tail is not
  // at the mercy of which heavy queries one seed happens to draw.
  const std::vector<QueryKind> kinds(std::begin(grnn::core::kAllQueryKinds),
                                     std::end(grnn::core::kAllQueryKinds));
  const std::vector<Algorithm> algos(std::begin(grnn::core::kAllAlgorithms),
                                     std::end(grnn::core::kAllAlgorithms));
  std::vector<QuerySpec> specs;
  {
    // The stream emits blocks of one query per (kind, algorithm, k).
    // Shuffling the blocks, and each block, keeps that stratification:
    // every stretch of the run holds the same mix, so neither a time
    // window nor the part of the pool a run reaches depends on the seed.
    SpecStream pool_stream(in.get(), kWorldSeed * 7919 + 11, kinds, algos);
    const size_t block = kinds.size() * algos.size() * std::size(kKs);
    std::vector<std::vector<QuerySpec>> blocks(
        std::max<size_t>(1, cfg.disk_query_pool / block));
    for (std::vector<QuerySpec>& b : blocks) {
      for (size_t i = 0; i < block; ++i) {
        b.push_back(pool_stream.Next());
      }
    }
    Rng order(opts.seed);
    std::shuffle(blocks.begin(), blocks.end(), order);
    for (std::vector<QuerySpec>& b : blocks) {
      std::shuffle(b.begin(), b.end(), order);
      specs.insert(specs.end(), b.begin(), b.end());
    }
  }
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  Collector collector{opts.seed, cfg.oracle_samples, {}};
  QueryTotals q;
  std::vector<SetupTimes> setups;
  GRNN_ASSIGN_OR_RETURN(
      std::unique_ptr<DiskWorld> world,
      SetUpAndMeasure(
          cfg, [&] { return BuildDiskWorld(*in, cfg, nullptr); },
          [&](DiskWorld& w, int) {
            WarmPool(w, *in, opts.seed);
            q.MergeSlice(DiskClosedLoop(w, specs, q.attempted,
                                        untraced_s / Slices(cfg), nullptr,
                                        &collector));
          },
          &setups));

  RunResult out;
  out.attempted = q.attempted;
  out.failed = q.failed;
  MetricSheet m;
  if (opts.trace) {
    world.reset();
    Tracer tracer;
    GRNN_ASSIGN_OR_RETURN(std::unique_ptr<DiskWorld> traced,
                          BuildDiskWorld(*in, cfg, &tracer));
    WarmPool(*traced, *in, opts.seed);
    Collector traced_collector{opts.seed, cfg.oracle_samples, {}};
    const QueryTotals tq = DiskClosedLoop(*traced, specs, 0, opts.seconds / 2,
                                          &tracer, &traced_collector);
    CompareTraced(collector, traced_collector, out);
    out.attempted += tq.attempted;
    out.failed += tq.failed;
    const Status spans = WriteSpans(opts, tracer);
    if (!spans.ok()) {
      out.correct = false;
      out.problems.push_back("span file: " + spans.ToString());
    }
    SetSetupMetrics(setups, m);
    SetQueryCounters(q, m);
    SetQuerySpans(tracer.Aggregates(), m);
    m.Set("obs.trace_overhead_pct",
          OverheadPct(q.samples.latency_us, tq.samples.latency_us,
                      /*paired=*/true));
  }

  // Oracle: a different exact algorithm over the in-memory graph.
  grnn::graph::GraphView mem(&in->g);
  grnn::core::EngineSources node_src;
  node_src.graph = &mem;
  node_src.points = &in->points;
  node_src.sites = &in->sites;
  grnn::core::EngineSources edge_src;
  edge_src.graph = &mem;
  edge_src.edge_points = &in->edge_points;
  GRNN_ASSIGN_OR_RETURN(RknnEngine node_oracle, RknnEngine::Create(node_src));
  GRNN_ASSIGN_OR_RETURN(RknnEngine edge_oracle, RknnEngine::Create(edge_src));
  for (const OracleSample& s : collector.samples) {
    QuerySpec alt = s.spec;
    alt.algorithm = s.spec.algorithm == Algorithm::kLazy ? Algorithm::kEager
                                                         : Algorithm::kLazy;
    RknnEngine& oracle = alt.kind == QueryKind::kUnrestricted ? edge_oracle
                                                              : node_oracle;
    GRNN_ASSIGN_OR_RETURN(RknnResult want, oracle.Run(alt));
    CompareIds("in-memory " + std::string(grnn::core::AlgorithmShortName(
                                  alt.algorithm)),
               s.spec, s.ids, ResultIds(want), out);
  }
  if (collector.samples.empty()) {
    out.correct = false;
    out.problems.push_back("oracle sample is empty");
  }

  if (opts.trace) {
    GRNN_ASSIGN_OR_RETURN(out.metrics, m.LayerMetrics());
  } else {
    out.metrics = EndToEnd(setups, Summarize(q.samples));
  }
  return out;
}

// ---------------------------------------------------------------------
// label-serve

struct OpenLoopResult {
  uint64_t submitted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
  uint64_t batches = 0;
  uint64_t completed = 0;
  uint64_t backlog = 0;  // admitted but unfinished when generation stopped
  uint64_t fallbacks = 0;
  Samples samples;              // latency = due time to completion
  std::vector<double> late_us;  // generator lateness (submit - due)
};

// One Poisson generator (the calling thread) feeding a 2-worker
// scheduler at `rate` requests per second for `seconds`.
OpenLoopResult OpenLoop(ServeWorld& w, SpecStream& stream, double rate,
                        double seconds, uint64_t seed) {
  grnn::serve::SchedulerOptions so;
  so.num_workers = 2;
  so.metrics = &w.metrics;
  grnn::serve::Scheduler sched(&*w.engine, so);
  struct Pending {
    grnn::serve::Scheduler::Ticket ticket;
    int64_t due;
    int64_t submit;
  };
  std::vector<Pending> pending;
  pending.reserve(static_cast<size_t>(rate * seconds * 1.2) + 16);
  Rng arrivals(seed);
  const int64_t start = NowNs() + 1000000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t due = start;
  while (due < end) {
    QuerySpec spec = stream.Next();
    WaitUntil(due);
    const int64_t submit = NowNs();
    pending.push_back({sched.Submit(std::move(spec)), due, submit});
    due += static_cast<int64_t>(-std::log(1.0 - arrivals.Uniform01()) / rate *
                                1e9);
  }
  OpenLoopResult out;
  {
    const grnn::serve::Scheduler::Stats s = sched.stats();
    out.backlog = s.admitted - s.completed;
  }
  for (const Pending& p : pending) {
    const grnn::serve::Scheduler::Response& resp = p.ticket.Wait();
    out.submitted += 1;
    out.late_us.push_back(static_cast<double>(p.submit - p.due) / 1e3);
    if (resp.disposition != grnn::serve::Disposition::kRun ||
        !resp.result.ok()) {
      out.failed += 1;
      continue;
    }
    out.fallbacks += resp.result->stats.hub_fallbacks;
    const double latency = static_cast<double>(p.submit - p.due) / 1e3 +
                           static_cast<double>(resp.latency_micros);
    out.samples.Add(p.due + static_cast<int64_t>(latency * 1e3), latency, 0,
                    0);
  }
  out.samples.start_ns = start;
  out.samples.end_ns = end;
  const grnn::serve::Scheduler::Stats s = sched.stats();
  out.shed = s.shed;
  out.expired = s.expired;
  out.batches = s.batches;
  out.completed = s.completed;
  sched.Shutdown();
  return out;
}

Result<RunResult> RunLabelServe(const RunOptions& opts) {
  const Config& cfg = opts.config;
  GRNN_ASSIGN_OR_RETURN(std::unique_ptr<Inputs> in,
                        MakeInputs(cfg.serve_nodes, cfg.density, kWorldSeed));

  const std::vector<QueryKind> kinds(std::begin(grnn::core::kAllQueryKinds),
                                     std::end(grnn::core::kAllQueryKinds));
  const std::vector<Algorithm> hub = {Algorithm::kHubLabel};
  // The end-to-end figures come from a closed-loop serial pass through
  // Run: open-loop latency on a shared virtual machine mostly measures
  // how fast the host wakes idle vCPUs, and was too unsteady to gate
  // on. A traced run adds the open loop at the nominal rate and the rate
  // ladder through serve::Scheduler (serve.* metrics), then the traced
  // serial pass.
  const double serial_s = opts.seconds * (opts.trace ? 0.15 : 1.0);
  const double open_s = opts.seconds * 0.25;
  const double ladder_s = opts.seconds * 0.40;
  const double traced_s = opts.seconds * 0.20;

  SpecStream stream(in.get(), opts.seed, kinds, hub);
  Collector collector{opts.seed, cfg.oracle_samples, {}};
  QueryTotals serial;
  std::vector<SetupTimes> setups;
  GRNN_ASSIGN_OR_RETURN(
      std::unique_ptr<ServeWorld> world,
      SetUpAndMeasure(
          cfg, [&] { return BuildServeWorld(*in, nullptr); },
          [&](ServeWorld& w, int) {
            serial.MergeSlice(SerialPass(w, stream, serial.attempted,
                                         serial_s / Slices(cfg), nullptr,
                                         &collector));
          },
          &setups));

  RunResult out;
  out.attempted = serial.attempted;
  out.failed = serial.failed;
  uint64_t fallbacks = serial.search.hub_fallbacks;
  MetricSheet m;
  if (opts.trace) {
    SpecStream open_stream(in.get(), opts.seed + 1, kinds, hub);
    const OpenLoopResult open =
        OpenLoop(*world, open_stream, cfg.nominal_qps, open_s, opts.seed);
    out.attempted += open.submitted;
    out.failed += open.failed;
    fallbacks += open.fallbacks;
    // Rate ladder: the highest rung whose p99 meets the limit with
    // nothing shed and no backlog left when generation stops. A capacity
    // probe, so its (intentional) overload is not counted as failures.
    double sustained = 0;
    for (size_t i = 0; i < cfg.ladder.size(); ++i) {
      const double rate = cfg.nominal_qps * cfg.ladder[i];
      SpecStream rung_stream(in.get(), opts.seed + 2 + i, kinds, hub);
      const OpenLoopResult rung =
          OpenLoop(*world, rung_stream, rate, ladder_s / cfg.ladder.size(),
                   opts.seed + 2 + i);
      fallbacks += rung.fallbacks;
      const bool ok = rung.failed == 0 && rung.backlog <= 64 &&
                      Summarize(rung.samples).p99_us <= cfg.p99_limit_us;
      if (!ok) {
        break;
      }
      sustained = rate;
    }
    const std::vector<double> untraced_service = serial.samples.latency_us;
    world.reset();
    Tracer tracer;
    GRNN_ASSIGN_OR_RETURN(std::unique_ptr<ServeWorld> traced,
                          BuildServeWorld(*in, &tracer));
    SpecStream replay(in.get(), opts.seed, kinds, hub);
    Collector traced_collector{opts.seed, cfg.oracle_samples, {}};
    const QueryTotals tq = SerialPass(*traced, replay, 0, traced_s, &tracer,
                                      &traced_collector);
    CompareTraced(collector, traced_collector, out);
    out.attempted += tq.attempted;
    out.failed += tq.failed;
    fallbacks += tq.search.hub_fallbacks;
    const Status spans = WriteSpans(opts, tracer);
    if (!spans.ok()) {
      out.correct = false;
      out.problems.push_back("span file: " + spans.ToString());
    }
    SetSetupMetrics(setups, m);
    SetQueryCounters(serial, m);
    SetQuerySpans(tracer.Aggregates(), m);
    const double service_p50 = Percentile(serial.samples.latency_us, 0.5);
    m.Set("serve.service_us_p50", service_p50);
    const Figures open_f = Summarize(open.samples);
    m.Set("serve.open_p50_us", open_f.p50_us);
    m.Set("serve.open_p99_us", open_f.p99_us);
    m.Set("serve.wait_us_p50", open_f.p50_us - service_p50);
    m.Set("serve.batch_mean", Ratio(static_cast<double>(open.completed),
                                    static_cast<double>(open.batches)));
    m.Set("serve.shed", static_cast<double>(open.shed));
    m.Set("serve.expired", static_cast<double>(open.expired));
    m.Set("serve.late_us_p99", Percentile(open.late_us, 0.99));
    m.Set("serve.sustained_qps", sustained);
    m.Set("obs.trace_overhead_pct",
          OverheadPct(untraced_service, tq.samples.latency_us,
                      /*paired=*/true));
    m.Set("index.fallbacks", static_cast<double>(fallbacks));
  }

  // Oracle: exact eager expansion over the in-memory graph.
  grnn::graph::GraphView mem(&in->g);
  grnn::core::EngineSources src;
  src.graph = &mem;
  src.points = &in->points;
  src.sites = &in->sites;
  src.edge_points = &in->edge_points;
  GRNN_ASSIGN_OR_RETURN(RknnEngine oracle, RknnEngine::Create(src));
  for (const OracleSample& s : collector.samples) {
    QuerySpec alt = s.spec;
    alt.algorithm = Algorithm::kEager;
    GRNN_ASSIGN_OR_RETURN(RknnResult want, oracle.Run(alt));
    CompareIds("in-memory E", s.spec, s.ids, ResultIds(want), out);
  }
  if (collector.samples.empty()) {
    out.correct = false;
    out.problems.push_back("oracle sample is empty");
  }
  if (fallbacks > 0) {
    out.correct = false;
    out.problems.push_back(StrPrintf("%llu hub-label fallbacks",
                                     static_cast<unsigned long long>(fallbacks)));
  }

  if (opts.trace) {
    GRNN_ASSIGN_OR_RETURN(out.metrics, m.LayerMetrics());
  } else {
    out.metrics = EndToEnd(setups, Summarize(serial.samples));
  }
  return out;
}

// ---------------------------------------------------------------------
// mixed-update

struct MixedTotals {
  QueryTotals reads;
  std::vector<double> update_us;  // due time to completion
  uint64_t updates_attempted = 0;
  uint64_t updates_failed = 0;
  grnn::core::UpdateStats update_stats;
  uint64_t versions_published = 0;
  uint64_t pin_retries = 0;
  uint64_t epoch_limbo = 0;

  void MergeSlice(const MixedTotals& o) {
    reads.MergeSlice(o.reads);
    update_us.insert(update_us.end(), o.update_us.begin(), o.update_us.end());
    updates_attempted += o.updates_attempted;
    updates_failed += o.updates_failed;
    update_stats += o.update_stats;
    versions_published += o.versions_published;
    pin_retries += o.pin_retries;
    epoch_limbo = std::max(epoch_limbo, o.epoch_limbo);
  }
};

// The writer's view of one population: which nodes are occupied and
// which point ids are live. It is the only mutator, so the mirror is
// exact and inserts always land on free nodes.
struct Population {
  grnn::core::UpdateSet set;
  std::vector<uint8_t> occupied;
  std::vector<std::pair<PointId, NodeId>> live;

  Population(grnn::core::UpdateSet s, const grnn::core::NodePointSet& init)
      : set(s), occupied(init.num_nodes(), 0) {
    for (PointId p : init.LivePoints()) {
      live.emplace_back(p, init.NodeOf(p));
      occupied[init.NodeOf(p)] = 1;
    }
  }
};

MixedTotals MixedPhase(UpdateWorld& w, const Inputs& in, const Config& cfg,
                       uint64_t seed, double seconds, Tracer* tracer) {
  RknnEngine& engine = *w.engine;
  MixedTotals out;
  const uint64_t seq0 = engine.world_seq();
  const grnn::serve::EpochStats ep0 = engine.epoch_stats();
  std::atomic<bool> stop{false};
  std::vector<QueryTotals> per_reader(kReaders);
  std::vector<std::thread> threads;
  const int64_t start = NowNs();
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      SpecStream stream(&in, seed * 31 + r + 7,
                        {QueryKind::kMonochromatic, QueryKind::kBichromatic,
                         QueryKind::kContinuous},
                        {Algorithm::kEagerM, Algorithm::kHubLabel},
                        /*start_at_points=*/false);
      QueryTotals& q = per_reader[r];
      while (!stop.load(std::memory_order_relaxed)) {
        const QuerySpec spec = stream.Next();
        const int64_t cpu0 = ThreadCpuNs();
        int64_t t0 = 0;
        int64_t t1 = 0;
        Result<RknnResult> res = TimedRun(engine, spec, tracer, &t0, &t1);
        q.Add(res, t1, static_cast<double>(t1 - t0) / 1e3,
              ThreadCpuNs() - cpu0, grnn::storage::IoStats{});
      }
    });
  }
  threads.emplace_back([&] {
    // Open-loop writer: insert P, insert Q, delete P, delete Q, ... at a
    // fixed rate, each update timed from its due time.
    Population pops[2] = {{grnn::core::UpdateSet::kPoints, in.points},
                          {grnn::core::UpdateSet::kSites, in.sites}};
    Rng rng(seed * 131 + 5);
    const int64_t period = static_cast<int64_t>(1e9 / cfg.update_rate);
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    for (uint64_t i = 0;; ++i) {
      const int64_t due = start + static_cast<int64_t>(i) * period;
      if (due >= end) {
        break;
      }
      Population& pop = pops[i % 2];
      const bool insert = (i / 2) % 2 == 0 || pop.live.empty();
      UpdateSpec spec;
      size_t victim = 0;
      if (insert) {
        NodeId node;
        do {
          node = static_cast<NodeId>(rng.UniformInt(pop.occupied.size()));
        } while (pop.occupied[node] != 0);
        spec = pop.set == grnn::core::UpdateSet::kPoints
                   ? UpdateSpec::InsertPoint(node)
                   : UpdateSpec::InsertSite(node);
      } else {
        victim = rng.UniformInt(pop.live.size());
        const PointId p = pop.live[victim].first;
        spec = pop.set == grnn::core::UpdateSet::kPoints
                   ? UpdateSpec::DeletePoint(p)
                   : UpdateSpec::DeleteSite(p);
      }
      WaitUntil(due);
      const int64_t t0 = NowNs();
      Result<RknnEngine::UpdateResult> r = [&] {
        SpanScope root(tracer, SpanKind::kUpdate);
        return engine.ApplyUpdate(spec);
      }();
      const int64_t t1 = NowNs();
      if (tracer != nullptr) {
        tracer->ClientTimed(t0, t1);
      }
      out.update_us.push_back(static_cast<double>(t1 - due) / 1e3);
      out.updates_attempted += 1;
      if (!r.ok()) {
        out.updates_failed += 1;
        continue;
      }
      out.update_stats += r->stats;
      if (insert) {
        pop.live.emplace_back(r->point, spec.node);
        pop.occupied[spec.node] = 1;
      } else {
        pop.occupied[pop.live[victim].second] = 0;
        pop.live[victim] = pop.live.back();
        pop.live.pop_back();
      }
    }
    stop.store(true, std::memory_order_relaxed);
  });
  for (std::thread& t : threads) {
    t.join();
  }
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  for (const QueryTotals& q : per_reader) {
    out.reads.Merge(q);
  }
  out.reads.samples.start_ns = start;
  out.reads.samples.end_ns = start + static_cast<int64_t>(elapsed * 1e9);
  const grnn::serve::EpochStats ep1 = engine.epoch_stats();
  out.versions_published = engine.world_seq() - seq0;
  out.pin_retries = ep1.pin_retries - ep0.pin_retries;
  out.epoch_limbo = ep1.limbo;
  return out;
}

// After quiescing: every algorithm answers a seeded sample on the final
// world and must agree. (Brute force is too slow at this size; the
// benchmark's tests hold every algorithm to it on a small world.)
Status FinalWorldOracle(UpdateWorld& w, const Inputs& in, const Config& cfg,
                        uint64_t seed, RunResult& out, uint64_t* fallbacks) {
  SpecStream stream(&in, seed * 7 + 3,
                    {QueryKind::kMonochromatic, QueryKind::kBichromatic,
                     QueryKind::kContinuous},
                    {Algorithm::kHubLabel}, /*start_at_points=*/false);
  const Algorithm algos[] = {Algorithm::kEager, Algorithm::kEagerM,
                             Algorithm::kLazy, Algorithm::kLazyEp};
  const size_t samples = std::max<size_t>(1, cfg.oracle_samples / 2);
  for (size_t i = 0; i < samples; ++i) {
    QuerySpec spec = stream.Next();
    GRNN_ASSIGN_OR_RETURN(RknnResult ref, w.engine->Run(spec));
    *fallbacks += ref.stats.hub_fallbacks;
    const std::vector<PointId> want = ResultIds(ref);
    for (Algorithm a : algos) {
      spec.algorithm = a;
      GRNN_ASSIGN_OR_RETURN(RknnResult got, w.engine->Run(spec));
      CompareIds(std::string(grnn::core::AlgorithmShortName(a)) + " vs H",
                 spec, ResultIds(got), want, out);
    }
  }
  return Status::OK();
}

Result<RunResult> RunMixedUpdate(const RunOptions& opts) {
  const Config& cfg = opts.config;
  GRNN_ASSIGN_OR_RETURN(std::unique_ptr<Inputs> in,
                        MakeInputs(cfg.update_nodes, cfg.density, kWorldSeed));
  // The traced run keeps the full untraced phase (its update latencies
  // need >= 1000 samples) and adds a traced phase of half the length.
  // Each slice starts from a fresh world and runs its own streams.
  MixedTotals u;
  std::vector<SetupTimes> setups;
  GRNN_ASSIGN_OR_RETURN(
      std::unique_ptr<UpdateWorld> world,
      SetUpAndMeasure(
          cfg, [&] { return BuildUpdateWorld(*in, nullptr); },
          [&](UpdateWorld& w, int slice) {
            u.MergeSlice(MixedPhase(w, *in, cfg, opts.seed + 7919 * slice,
                                    opts.seconds / Slices(cfg), nullptr));
          },
          &setups));

  RunResult out;
  out.attempted = u.reads.attempted + u.updates_attempted;
  out.failed = u.reads.failed + u.updates_failed;
  uint64_t fallbacks = u.reads.search.hub_fallbacks;
  MetricSheet m;
  // Outlives the traced world, which the final-world oracle still reads.
  Tracer tracer;
  if (opts.trace) {
    world.reset();
    GRNN_ASSIGN_OR_RETURN(world, BuildUpdateWorld(*in, &tracer));
    const MixedTotals t =
        MixedPhase(*world, *in, cfg, opts.seed, opts.seconds / 2, &tracer);
    out.attempted += t.reads.attempted + t.updates_attempted;
    out.failed += t.reads.failed + t.updates_failed;
    fallbacks += t.reads.search.hub_fallbacks;
    const Status spans = WriteSpans(opts, tracer);
    if (!spans.ok()) {
      out.correct = false;
      out.problems.push_back("span file: " + spans.ToString());
    }
    const AggregateTable agg = tracer.Aggregates();
    SetSetupMetrics(setups, m);
    SetQueryCounters(u.reads, m);
    SetQuerySpans(agg, m);
    const double updates = static_cast<double>(u.updates_attempted);
    m.Set("core.update_p50_us", Percentile(u.update_us, 0.5));
    m.Set("core.update_p99_us", Percentile(u.update_us, 0.99));
    m.Set("core.lists_written_per_update",
          Ratio(static_cast<double>(u.update_stats.lists_written), updates));
    m.Set("core.nodes_touched_per_update",
          Ratio(static_cast<double>(u.update_stats.nodes_touched), updates));
    const TraceView tu{agg, {SpanKind::kUpdate}};
    m.Set("core.update_self_us", tu.LayerSelfUsPerRoot(Layer::kCore));
    m.Set("graph.scans_per_update", tu.CountPerRoot(SpanKind::kGraphScan));
    m.Set("graph.scan_us_per_update", tu.UsPerRoot(SpanKind::kGraphScan));
    m.Set("serve.versions_published",
          static_cast<double>(u.versions_published));
    m.Set("serve.pin_retries", static_cast<double>(u.pin_retries));
    m.Set("serve.epoch_limbo", static_cast<double>(u.epoch_limbo));
    m.Set("obs.trace_overhead_pct",
          OverheadPct(u.reads.samples.latency_us, t.reads.samples.latency_us,
                      /*paired=*/false));
  }
  GRNN_RETURN_NOT_OK(
      FinalWorldOracle(*world, *in, cfg, opts.seed, out, &fallbacks));
  if (fallbacks > 0) {
    out.correct = false;
    out.problems.push_back(StrPrintf("%llu hub-label fallbacks",
                                     static_cast<unsigned long long>(fallbacks)));
  }
  if (opts.trace) {
    m.Set("index.fallbacks", static_cast<double>(fallbacks));
    GRNN_ASSIGN_OR_RETURN(out.metrics, m.LayerMetrics());
  } else {
    out.metrics = EndToEnd(setups, Summarize(u.reads.samples));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------
// Inputs and worlds

Result<std::unique_ptr<Inputs>> MakeInputs(NodeId nodes, double density,
                                           uint64_t seed) {
  grnn::gen::RoadConfig cfg;
  cfg.num_nodes = nodes;
  cfg.seed = seed;
  GRNN_ASSIGN_OR_RETURN(grnn::gen::RoadNetwork net,
                        grnn::gen::GenerateRoadNetwork(cfg));
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  GRNN_ASSIGN_OR_RETURN(grnn::core::NodePointSet points,
                        grnn::gen::PlaceNodePoints(nodes, density, rng));
  GRNN_ASSIGN_OR_RETURN(grnn::core::NodePointSet sites,
                        grnn::gen::PlaceNodePoints(nodes, density, rng));
  GRNN_ASSIGN_OR_RETURN(grnn::core::EdgePointSet edge_points,
                        grnn::gen::PlaceEdgePoints(net.g, density, rng));
  std::vector<grnn::Edge> edges = net.g.CollectEdges();
  return std::unique_ptr<Inputs>(
      new Inputs{std::move(net.g), std::move(points), std::move(sites),
                 std::move(edge_points), std::move(edges)});
}

Result<std::unique_ptr<DiskWorld>> BuildDiskWorld(const Inputs& in,
                                                  const Config& cfg,
                                                  Tracer* tracer) {
  auto w = std::make_unique<DiskWorld>();
  const NodeId n = in.g.num_nodes();
  WallTimer total;
  WallTimer step;
  w->disk = std::make_unique<grnn::storage::MemoryDiskManager>();
  grnn::storage::MemoryDiskManager* disk = w->disk.get();
  {
    SpanScope span(tracer, SpanKind::kFileBuild);
    GRNN_ASSIGN_OR_RETURN(w->graph_file,
                          grnn::storage::GraphFile::Build(in.g, disk));
    const std::vector<NodeId> slots = BfsSlots(in.g);
    GRNN_ASSIGN_OR_RETURN(w->point_knn_file,
                          grnn::storage::KnnFile::Create(disk, n, kKnnK, &slots));
    GRNN_ASSIGN_OR_RETURN(w->site_knn_file,
                          grnn::storage::KnnFile::Create(disk, n, kKnnK, &slots));
    GRNN_ASSIGN_OR_RETURN(w->edge_knn_file,
                          grnn::storage::KnnFile::Create(disk, n, kKnnK, &slots));
    GRNN_ASSIGN_OR_RETURN(
        w->point_file,
        grnn::storage::PointFile::Build(disk, in.edge_points.ToEdgeGroups()));
  }
  w->times.files_s = step.ElapsedSeconds();
  step.Reset();
  {
    // Materialization is offline: an uncounted build pool over the
    // in-memory graph (bench_util's recipe).
    SpanScope span(tracer, SpanKind::kMaterialize);
    grnn::storage::BufferPool build_pool(disk, cfg.disk_pool_pages);
    grnn::graph::GraphView mem(&in.g);
    grnn::core::FileKnnStore point_store(&*w->point_knn_file, &build_pool);
    grnn::core::FileKnnStore site_store(&*w->site_knn_file, &build_pool);
    grnn::core::FileKnnStore edge_store(&*w->edge_knn_file, &build_pool);
    GRNN_RETURN_NOT_OK(grnn::core::BuildAllNn(mem, in.points, &point_store));
    GRNN_RETURN_NOT_OK(grnn::core::BuildAllNn(mem, in.sites, &site_store));
    GRNN_RETURN_NOT_OK(
        grnn::core::UnrestrictedBuildAllNn(mem, in.edge_points, &edge_store));
    GRNN_RETURN_NOT_OK(build_pool.FlushAll());
  }
  w->times.materialize_s = step.ElapsedSeconds();

  grnn::storage::DiskManager* serving_disk = disk;
  if (tracer != nullptr) {
    w->traced_disk = std::make_unique<TracedDiskManager>(disk, tracer);
    serving_disk = w->traced_disk.get();
  }
  // One shard: the paper's single global LRU order.
  w->pool = std::make_unique<grnn::storage::BufferPool>(serving_disk,
                                                        cfg.disk_pool_pages);
  w->view = std::make_unique<grnn::storage::StoredGraph>(&*w->graph_file,
                                                         w->pool.get());
  w->point_knn = std::make_unique<grnn::core::FileKnnStore>(
      &*w->point_knn_file, w->pool.get());
  w->site_knn = std::make_unique<grnn::core::FileKnnStore>(&*w->site_knn_file,
                                                           w->pool.get());
  w->edge_knn = std::make_unique<grnn::core::FileKnnStore>(&*w->edge_knn_file,
                                                           w->pool.get());
  w->reader = std::make_unique<grnn::core::StoredEdgePointReader>(
      &*w->point_file, w->pool.get());
  const grnn::graph::NetworkView* view = w->view.get();
  const grnn::core::KnnStore* point_knn = w->point_knn.get();
  const grnn::core::KnnStore* site_knn = w->site_knn.get();
  const grnn::core::KnnStore* edge_knn = w->edge_knn.get();
  const grnn::core::EdgePointReader* reader = w->reader.get();
  if (tracer != nullptr) {
    w->traced_view = std::make_unique<TracedNetworkView>(view, tracer);
    w->traced_point_knn =
        std::make_unique<TracedKnnStore>(w->point_knn.get(), tracer);
    w->traced_site_knn =
        std::make_unique<TracedKnnStore>(w->site_knn.get(), tracer);
    w->traced_edge_knn =
        std::make_unique<TracedKnnStore>(w->edge_knn.get(), tracer);
    w->traced_reader =
        std::make_unique<TracedEdgePointReader>(w->reader.get(), tracer);
    view = w->traced_view.get();
    point_knn = w->traced_point_knn.get();
    site_knn = w->traced_site_knn.get();
    edge_knn = w->traced_edge_knn.get();
    reader = w->traced_reader.get();
  }
  grnn::core::EngineSources node;
  node.graph = view;
  node.points = &in.points;
  node.sites = &in.sites;
  node.knn = point_knn;
  node.site_knn = site_knn;
  node.pool = w->pool.get();
  node.snapshot_reads = true;
  node.metrics = &w->node_metrics;
  grnn::core::EngineSources edge;
  edge.graph = view;
  edge.edge_points = &in.edge_points;
  edge.edge_reader = reader;
  edge.knn = edge_knn;
  edge.pool = w->pool.get();
  edge.snapshot_reads = true;
  edge.metrics = &w->edge_metrics;
  step.Reset();
  {
    SpanScope span(tracer, SpanKind::kEngineCreate);
    GRNN_ASSIGN_OR_RETURN(w->node_engine, RknnEngine::Create(node));
    GRNN_ASSIGN_OR_RETURN(w->edge_engine, RknnEngine::Create(edge));
  }
  w->times.engine_s = step.ElapsedSeconds();
  w->times.total_s = total.ElapsedSeconds();
  w->times.file_pages = disk->num_pages();
  return w;
}

Result<std::unique_ptr<ServeWorld>> BuildServeWorld(const Inputs& in,
                                                    Tracer* tracer) {
  auto w = std::make_unique<ServeWorld>();
  WallTimer total;
  WallTimer step;
  w->view = std::make_unique<grnn::graph::GraphView>(&in.g);
  {
    grnn::index::HubLabelIndex labels;
    {
      SpanScope span(tracer, SpanKind::kLabelBuild);
      grnn::index::HubLabelBuildOptions options;
      options.num_threads = NumCpus();
      GRNN_ASSIGN_OR_RETURN(labels,
                            grnn::index::HubLabelBuilder::Build(*w->view, options));
    }
    w->times.labels_s = step.ElapsedSeconds();
    w->times.avg_label_size = labels.AverageLabelSize();
    step.Reset();
    SpanScope span(tracer, SpanKind::kFileBuild);
    w->disk = std::make_unique<grnn::storage::MemoryDiskManager>();
    GRNN_ASSIGN_OR_RETURN(w->label_file,
                          grnn::index::LabelFile::Build(labels, w->disk.get()));
  }
  const size_t pages = w->label_file->num_pages();
  w->times.file_pages = pages;
  w->times.bytes_per_entry =
      Ratio(static_cast<double>(pages * w->disk->page_size()),
            static_cast<double>(w->label_file->num_entries()));
  grnn::storage::DiskManager* serving_disk = w->disk.get();
  if (tracer != nullptr) {
    w->traced_disk = std::make_unique<TracedDiskManager>(w->disk.get(), tracer);
    serving_disk = w->traced_disk.get();
  }
  // Sharded for the concurrent workers, with a few spare frames per
  // shard so the whole file stays resident.
  w->pool = std::make_unique<grnn::storage::BufferPool>(
      serving_disk, pages + 8 * grnn::storage::kDefaultConcurrentShards,
      grnn::storage::ReplacementPolicy::kLru,
      grnn::storage::kDefaultConcurrentShards);
  w->labels = std::make_unique<grnn::index::StoredLabelIndex>(&*w->label_file,
                                                              w->pool.get());
  {
    // Load the whole file into the pool: the workload serves from cache.
    grnn::index::LabelCursor cursor;
    for (NodeId n = 0; n < in.g.num_nodes(); ++n) {
      GRNN_RETURN_NOT_OK(w->labels->Scan(n, cursor).status());
    }
  }
  w->times.files_s = step.ElapsedSeconds();
  const grnn::graph::NetworkView* view = w->view.get();
  const grnn::index::LabelStore* labels = w->labels.get();
  if (tracer != nullptr) {
    w->traced_view = std::make_unique<TracedNetworkView>(view, tracer);
    w->traced_labels = std::make_unique<TracedLabelStore>(labels, tracer);
    view = w->traced_view.get();
    labels = w->traced_labels.get();
  }
  grnn::core::EngineSources src;
  src.graph = view;
  src.points = &in.points;
  src.sites = &in.sites;
  src.edge_points = &in.edge_points;
  src.hub_labels = labels;
  src.pool = w->pool.get();
  src.snapshot_reads = true;
  src.index_build_threads = NumCpus();
  src.metrics = &w->metrics;
  step.Reset();
  {
    // Create derives the hub point indices, scanning every label: the
    // pool holds the whole file afterwards.
    SpanScope span(tracer, SpanKind::kEngineCreate);
    GRNN_ASSIGN_OR_RETURN(w->engine, RknnEngine::Create(src));
  }
  w->times.engine_s = step.ElapsedSeconds();
  w->times.total_s = total.ElapsedSeconds();
  return w;
}

Result<std::unique_ptr<UpdateWorld>> BuildUpdateWorld(const Inputs& in,
                                                      Tracer* tracer) {
  auto w = std::make_unique<UpdateWorld>();
  const NodeId n = in.g.num_nodes();
  WallTimer total;
  WallTimer step;
  w->view = std::make_unique<grnn::graph::GraphView>(&in.g);
  {
    SpanScope span(tracer, SpanKind::kLabelBuild);
    grnn::index::HubLabelBuildOptions options;
    options.num_threads = NumCpus();
    GRNN_ASSIGN_OR_RETURN(w->labels,
                          grnn::index::HubLabelBuilder::Build(*w->view, options));
  }
  w->times.labels_s = step.ElapsedSeconds();
  w->times.avg_label_size = w->labels.AverageLabelSize();
  // In-memory CSR: one HubEntry per entry plus one offset per node.
  w->times.bytes_per_entry = Ratio(
      static_cast<double>(w->labels.num_entries() *
                              sizeof(grnn::index::HubEntry) +
                          (static_cast<size_t>(n) + 1) * sizeof(size_t)),
      static_cast<double>(w->labels.num_entries()));
  w->points = std::make_unique<grnn::core::NodePointSet>(in.points);
  w->sites = std::make_unique<grnn::core::NodePointSet>(in.sites);
  w->point_knn = std::make_unique<grnn::core::MemoryKnnStore>(n, kKnnK);
  w->site_knn = std::make_unique<grnn::core::MemoryKnnStore>(n, kKnnK);
  step.Reset();
  {
    SpanScope span(tracer, SpanKind::kMaterialize);
    GRNN_RETURN_NOT_OK(
        grnn::core::BuildAllNn(*w->view, *w->points, w->point_knn.get()));
    GRNN_RETURN_NOT_OK(
        grnn::core::BuildAllNn(*w->view, *w->sites, w->site_knn.get()));
  }
  w->times.materialize_s = step.ElapsedSeconds();
  const grnn::graph::NetworkView* view = w->view.get();
  const grnn::index::LabelStore* labels = &w->labels;
  if (tracer != nullptr) {
    w->traced_view = std::make_unique<TracedNetworkView>(view, tracer);
    w->traced_labels = std::make_unique<TracedLabelStore>(labels, tracer);
    view = w->traced_view.get();
    labels = w->traced_labels.get();
  }
  grnn::core::EngineSources src;
  src.graph = view;
  src.points = w->points.get();
  src.sites = w->sites.get();
  src.knn = w->point_knn.get();
  src.site_knn = w->site_knn.get();
  src.hub_labels = labels;
  src.snapshot_reads = true;
  src.index_build_threads = NumCpus();
  src.metrics = &w->metrics;
  src.updates.points = w->points.get();
  src.updates.sites = w->sites.get();
  src.updates.knn = w->point_knn.get();
  src.updates.site_knn = w->site_knn.get();
  step.Reset();
  {
    SpanScope span(tracer, SpanKind::kEngineCreate);
    GRNN_ASSIGN_OR_RETURN(w->engine, RknnEngine::Create(src));
  }
  w->times.engine_s = step.ElapsedSeconds();
  w->times.total_s = total.ElapsedSeconds();
  return w;
}

// ---------------------------------------------------------------------
// Query streams

SpecStream::SpecStream(const Inputs* in, uint64_t seed,
                       std::vector<QueryKind> kinds,
                       std::vector<Algorithm> algos, bool start_at_points)
    : in_(in),
      rng_(seed),
      start_at_points_(start_at_points),
      live_points_(in->points.LivePoints()),
      live_sites_(in->sites.LivePoints()) {
  for (QueryKind kind : kinds) {
    for (Algorithm algo : algos) {
      for (int k : kKs) {
        combos_.push_back({kind, algo, k});
      }
    }
  }
  next_combo_ = combos_.size();
}

QuerySpec SpecStream::Next() {
  if (next_combo_ == combos_.size()) {
    std::shuffle(combos_.begin(), combos_.end(), rng_);
    next_combo_ = 0;
  }
  const auto [kind, algo, k] = combos_[next_combo_++];
  const NodeId n = in_->g.num_nodes();
  switch (kind) {
    case QueryKind::kMonochromatic:
      if (start_at_points_) {
        const PointId p = live_points_[rng_.UniformInt(live_points_.size())];
        return QuerySpec::Monochromatic(algo, in_->points.NodeOf(p), k, p);
      }
      return QuerySpec::Monochromatic(algo,
                                      static_cast<NodeId>(rng_.UniformInt(n)), k);
    case QueryKind::kBichromatic:
      if (start_at_points_) {
        const PointId s = live_sites_[rng_.UniformInt(live_sites_.size())];
        return QuerySpec::Bichromatic(algo, in_->sites.NodeOf(s), k, s);
      }
      return QuerySpec::Bichromatic(algo,
                                    static_cast<NodeId>(rng_.UniformInt(n)), k);
    case QueryKind::kContinuous: {
      const NodeId start = static_cast<NodeId>(rng_.UniformInt(n));
      const size_t length = 2 + rng_.UniformInt(7);
      return QuerySpec::Continuous(
          algo, grnn::gen::RandomWalkRoute(in_->g, start, length, rng_), k);
    }
    case QueryKind::kUnrestricted: {
      const grnn::Edge& e = in_->edges[rng_.UniformInt(in_->edges.size())];
      const double pos = rng_.Uniform(0.0, e.w);
      const grnn::core::EdgePosition at =
          e.u < e.v ? grnn::core::EdgePosition{e.u, e.v, pos}
                    : grnn::core::EdgePosition{e.v, e.u, e.w - pos};
      return QuerySpec::Unrestricted(algo, at, k);
    }
  }
  return QuerySpec::Monochromatic(algo, 0, k);
}

std::vector<PointId> ResultIds(const RknnResult& r) {
  std::vector<PointId> ids;
  ids.reserve(r.results.size());
  for (const grnn::core::PointMatch& m : r.results) {
    ids.push_back(m.point);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<RunResult> RunWorkload(const RunOptions& options) {
  if (options.workload == "paper-disk") {
    return RunPaperDisk(options);
  }
  if (options.workload == "label-serve") {
    return RunLabelServe(options);
  }
  if (options.workload == "mixed-update") {
    return RunMixedUpdate(options);
  }
  return Status::InvalidArgument("unknown workload '" + options.workload + "'");
}

std::vector<Metric> LayerMetricDefs() {
  std::vector<Metric> out;
  for (const MetricDef& d : kLayerMetrics) {
    out.push_back({d.name, 0, d.unit});
  }
  return out;
}

}  // namespace rknnbench
