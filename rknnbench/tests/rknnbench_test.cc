// Copyright (c) GRNN authors.
// Tests for the benchmark itself, on small worlds: the timing wrappers
// forward unchanged, traced worlds answer exactly like untraced ones,
// every algorithm on every kind matches brute force, the span-file
// checks catch malformed trees, and each workload runs clean end to end.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"
#include "wrappers.h"

namespace rknnbench {
namespace {

using grnn::NodeId;
using grnn::core::Algorithm;
using grnn::core::QueryKind;
using grnn::core::QuerySpec;

Config SmallConfig() {
  Config cfg;
  cfg.disk_nodes = 800;
  cfg.serve_nodes = 600;
  cfg.update_nodes = 600;
  cfg.density = 0.05;
  cfg.disk_pool_pages = 32;
  cfg.disk_query_pool = 96;
  cfg.setups = 2;  // two slices: exercises the interleaved set-ups
  cfg.nominal_qps = 400;
  cfg.ladder = {1, 2};
  cfg.p99_limit_us = 1e6;
  cfg.update_rate = 200;
  cfg.oracle_samples = 8;
  return cfg;
}

std::unique_ptr<Inputs> SmallInputs(NodeId nodes, uint64_t seed = 3) {
  auto in = MakeInputs(nodes, 0.05, seed);
  EXPECT_TRUE(in.ok()) << in.status().ToString();
  return std::move(in).ValueOrDie();
}

const std::vector<QueryKind> kNodeKinds = {QueryKind::kMonochromatic,
                                           QueryKind::kBichromatic,
                                           QueryKind::kContinuous};
const std::vector<Algorithm> kPaperAlgos = {
    Algorithm::kEager, Algorithm::kEagerM, Algorithm::kLazy,
    Algorithm::kLazyEp};

// ---------------------------------------------------------------------
// Wrappers return what the wrapped source returns.

template <typename A, typename B>
void ExpectSameStatus(const A& a, const B& b) {
  EXPECT_EQ(a.ok(), b.ok());
  if (!a.ok() && !b.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code());
  }
}

TEST(Wrappers, NetworkViewForwardsScans) {
  auto in = SmallInputs(400);
  Config cfg = SmallConfig();
  auto world = BuildDiskWorld(*in, cfg, nullptr);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  grnn::graph::GraphView mem(&in->g);
  Tracer tracer;
  for (const grnn::graph::NetworkView* inner :
       {static_cast<const grnn::graph::NetworkView*>(&mem),
        static_cast<const grnn::graph::NetworkView*>((*world)->view.get())}) {
    TracedNetworkView traced(inner, &tracer);
    EXPECT_EQ(traced.num_nodes(), inner->num_nodes());
    EXPECT_EQ(traced.num_edges(), inner->num_edges());
    SpanScope root(&tracer, SpanKind::kQuery);
    grnn::graph::NeighborCursor c1;
    grnn::graph::NeighborCursor c2;
    for (NodeId n = 0; n <= inner->num_nodes(); ++n) {  // one past the end
      auto want = inner->Scan(n, c1);
      auto got = traced.Scan(n, c2);
      ExpectSameStatus(want, got);
      if (want.ok() && got.ok()) {
        EXPECT_EQ(std::vector<grnn::AdjEntry>(want->begin(), want->end()),
                  std::vector<grnn::AdjEntry>(got->begin(), got->end()));
      }
    }
  }
  const AggregateTable agg = tracer.Aggregates();
  const auto& scans = agg[static_cast<size_t>(SpanKind::kQuery)]
                         [static_cast<size_t>(SpanKind::kGraphScan)];
  EXPECT_EQ(scans.count, 2u * (in->g.num_nodes() + 1));
}

TEST(Wrappers, KnnStoreLabelStoreAndEdgeReaderForward) {
  auto in = SmallInputs(400);
  Config cfg = SmallConfig();
  auto world = BuildDiskWorld(*in, cfg, nullptr);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  DiskWorld& w = **world;
  Tracer tracer;
  SpanScope root(&tracer, SpanKind::kQuery);

  TracedKnnStore knn(w.point_knn.get(), &tracer);
  EXPECT_EQ(knn.k(), w.point_knn->k());
  EXPECT_EQ(knn.num_nodes(), w.point_knn->num_nodes());
  for (NodeId n = 0; n <= in->g.num_nodes(); ++n) {
    std::vector<grnn::core::NnEntry> want, got;
    const grnn::Status a = w.point_knn->Read(n, &want);
    const grnn::Status b = knn.Read(n, &got);
    EXPECT_EQ(a.code(), b.code());
    EXPECT_EQ(want, got);
  }
  grnn::core::MemoryKnnStore mem_knn(8, 2);
  TracedKnnStore mem_traced(&mem_knn, &tracer);
  const std::vector<grnn::core::NnEntry> list = {{3, 0.5}};
  ASSERT_TRUE(mem_traced.Write(4, list).ok());
  std::vector<grnn::core::NnEntry> back;
  ASSERT_TRUE(mem_knn.Read(4, &back).ok());
  EXPECT_EQ(back, list);

  grnn::graph::GraphView mem(&in->g);
  auto labels = grnn::index::HubLabelBuilder::Build(mem);
  ASSERT_TRUE(labels.ok());
  TracedLabelStore traced_labels(&*labels, &tracer);
  EXPECT_EQ(traced_labels.num_entries(), labels->num_entries());
  grnn::index::LabelCursor l1, l2;
  for (NodeId n = 0; n <= in->g.num_nodes(); ++n) {
    auto want = labels->Scan(n, l1);
    auto got = traced_labels.Scan(n, l2);
    ExpectSameStatus(want, got);
    if (want.ok() && got.ok()) {
      EXPECT_EQ(std::vector<grnn::index::HubEntry>(want->begin(), want->end()),
                std::vector<grnn::index::HubEntry>(got->begin(), got->end()));
    }
  }

  TracedEdgePointReader reader(w.reader.get(), &tracer);
  for (const grnn::Edge& e : in->edges) {
    EXPECT_EQ(reader.Has(e.u, e.v), w.reader->Has(e.u, e.v));
    std::vector<grnn::core::EdgePointRecord> want, got;
    const grnn::Status a = w.reader->Read(e.u, e.v, &want);
    const grnn::Status b = reader.Read(e.u, e.v, &got);
    EXPECT_EQ(a.code(), b.code());
    EXPECT_EQ(want, got);
  }
}

TEST(Wrappers, DiskManagerForwardsPages) {
  grnn::storage::MemoryDiskManager disk(256);
  Tracer tracer;
  TracedDiskManager traced(&disk, &tracer);
  SpanScope root(&tracer, SpanKind::kFileBuild);
  ASSERT_TRUE(traced.AllocatePage().ok());
  ASSERT_TRUE(disk.AllocatePage().ok());
  EXPECT_EQ(traced.num_pages(), 2u);
  EXPECT_EQ(traced.page_size(), disk.page_size());
  std::vector<uint8_t> page(256);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(traced.WritePage(1, page.data()).ok());
  std::vector<uint8_t> a(256), b(256);
  ASSERT_TRUE(disk.ReadPage(1, a.data()).ok());
  ASSERT_TRUE(traced.ReadPage(1, b.data()).ok());
  EXPECT_EQ(a, page);
  EXPECT_EQ(b, page);
  EXPECT_EQ(disk.ReadPage(9, a.data()).code(),
            traced.ReadPage(9, b.data()).code());
  EXPECT_FALSE(traced.ReadPage(9, b.data()).ok());
  EXPECT_TRUE(traced.Sync().ok());
}

TEST(Wrappers, NoSpansWithoutARoot) {
  auto in = SmallInputs(200);
  grnn::graph::GraphView mem(&in->g);
  Tracer tracer;
  TracedNetworkView traced(&mem, &tracer);
  grnn::graph::NeighborCursor c;
  ASSERT_TRUE(traced.Scan(0, c).ok());
  const AggregateTable agg = tracer.Aggregates();
  for (const auto& row : agg) {
    for (const SpanAggregate& a : row) {
      EXPECT_EQ(a.count, 0u);
    }
  }
  EXPECT_TRUE(tracer.StoredSpans().empty() ||
              tracer.StoredSpans()[0].spans.empty());
}

// ---------------------------------------------------------------------
// Traced worlds answer exactly like untraced ones.

// A root call timed the way the benchmark's clients time theirs.
template <typename Call>
auto TimedRoot(Tracer& tracer, SpanKind kind, Call call) {
  const int64_t t0 = NowNs();
  auto r = [&] {
    SpanScope root(&tracer, kind);
    return call();
  }();
  tracer.ClientTimed(t0, NowNs());
  return r;
}

std::vector<QuerySpec> Specs(const Inputs& in, std::vector<QueryKind> kinds,
                             std::vector<Algorithm> algos, size_t n,
                             bool at_points = true) {
  SpecStream stream(&in, 77, std::move(kinds), std::move(algos), at_points);
  std::vector<QuerySpec> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(stream.Next());
  }
  return out;
}

TEST(TracedRun, DiskWorldResultsEqualUntraced) {
  auto in = SmallInputs(800);
  Config cfg = SmallConfig();
  auto plain = BuildDiskWorld(*in, cfg, nullptr);
  Tracer tracer;
  auto traced = BuildDiskWorld(*in, cfg, &tracer);
  ASSERT_TRUE(plain.ok() && traced.ok());
  std::vector<QueryKind> kinds(std::begin(grnn::core::kAllQueryKinds),
                               std::end(grnn::core::kAllQueryKinds));
  for (const QuerySpec& spec : Specs(*in, kinds, kPaperAlgos, 144)) {
    auto a = (*plain)->EngineFor(spec).Run(spec);
    auto b = TimedRoot(tracer, SpanKind::kQuery,
                       [&] { return (*traced)->EngineFor(spec).Run(spec); });
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->results, b->results);
  }
  // Same query stream, same pool: same page traffic.
  EXPECT_EQ((*plain)->pool->stats(), (*traced)->pool->stats());
  EXPECT_GT(tracer.Aggregates()[static_cast<size_t>(SpanKind::kQuery)]
                               [static_cast<size_t>(SpanKind::kDiskRead)]
                                   .count,
            0u);
  EXPECT_TRUE(CheckSpans(tracer.StoredSpans(), tracer.Aggregates()).ok());
}

TEST(TracedRun, ServeWorldResultsEqualUntraced) {
  auto in = SmallInputs(600);
  Config cfg = SmallConfig();
  auto plain = BuildServeWorld(*in, nullptr);
  Tracer tracer;
  auto traced = BuildServeWorld(*in, &tracer);
  ASSERT_TRUE(plain.ok() && traced.ok());
  std::vector<QueryKind> kinds(std::begin(grnn::core::kAllQueryKinds),
                               std::end(grnn::core::kAllQueryKinds));
  for (const QuerySpec& spec :
       Specs(*in, kinds, {Algorithm::kHubLabel}, 60)) {
    auto a = (*plain)->engine->Run(spec);
    auto b = TimedRoot(tracer, SpanKind::kHubQuery,
                       [&] { return (*traced)->engine->Run(spec); });
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->results, b->results);
    EXPECT_EQ(b->stats.hub_fallbacks, 0u);
  }
  EXPECT_GT(tracer.Aggregates()[static_cast<size_t>(SpanKind::kHubQuery)]
                               [static_cast<size_t>(SpanKind::kLabelScan)]
                                   .count,
            0u);
  EXPECT_TRUE(CheckSpans(tracer.StoredSpans(), tracer.Aggregates()).ok());
}

TEST(TracedRun, UpdateWorldResultsEqualUntraced) {
  auto in = SmallInputs(600);
  Config cfg = SmallConfig();
  auto plain = BuildUpdateWorld(*in, nullptr);
  Tracer tracer;
  auto traced = BuildUpdateWorld(*in, &tracer);
  ASSERT_TRUE(plain.ok() && traced.ok());
  // The same updates on both, then the same queries.
  grnn::Rng rng(5);
  std::vector<grnn::PointId> inserted;
  for (int i = 0; i < 20; ++i) {
    NodeId node;
    do {
      node = static_cast<NodeId>(rng.UniformInt(in->g.num_nodes()));
    } while (in->points.Contains(node));
    const auto spec = grnn::core::UpdateSpec::InsertPoint(node);
    auto a = (*plain)->engine->ApplyUpdate(spec);
    auto b = TimedRoot(tracer, SpanKind::kUpdate,
                       [&] { return (*traced)->engine->ApplyUpdate(spec); });
    if (!a.ok()) {  // node already taken by an earlier insert
      EXPECT_FALSE(b.ok());
      continue;
    }
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->point, b->point);
    inserted.push_back(a->point);
  }
  for (size_t i = 0; i < inserted.size(); i += 2) {
    const auto spec = grnn::core::UpdateSpec::DeletePoint(inserted[i]);
    ASSERT_TRUE((*plain)->engine->ApplyUpdate(spec).ok());
    ASSERT_TRUE((*traced)->engine->ApplyUpdate(spec).ok());
  }
  std::vector<Algorithm> algos = kPaperAlgos;
  algos.push_back(Algorithm::kHubLabel);
  for (const QuerySpec& spec :
       Specs(*in, kNodeKinds, algos, 90, /*at_points=*/false)) {
    auto a = (*plain)->engine->Run(spec);
    auto b = (*traced)->engine->Run(spec);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->results, b->results);
  }
  EXPECT_GT(tracer.Aggregates()[static_cast<size_t>(SpanKind::kUpdate)]
                               [static_cast<size_t>(SpanKind::kGraphScan)]
                                   .count,
            0u);
  EXPECT_TRUE(CheckSpans(tracer.StoredSpans(), tracer.Aggregates()).ok());
}

// ---------------------------------------------------------------------
// Every algorithm on every kind matches brute force.

void ExpectMatchesBruteForce(grnn::core::RknnEngine& engine, QuerySpec spec) {
  auto got = engine.Run(spec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const Algorithm algo = spec.algorithm;
  spec.algorithm = Algorithm::kBruteForce;
  auto want = engine.Run(spec);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(ResultIds(*got), ResultIds(*want))
      << grnn::core::QueryKindName(spec.kind) << " "
      << grnn::core::AlgorithmShortName(algo) << " k=" << spec.k;
}

TEST(Oracle, DiskWorldEveryAlgorithmEveryKind) {
  auto in = SmallInputs(800);
  Config cfg = SmallConfig();
  auto world = BuildDiskWorld(*in, cfg, nullptr);
  ASSERT_TRUE(world.ok());
  std::vector<QueryKind> kinds(std::begin(grnn::core::kAllQueryKinds),
                               std::end(grnn::core::kAllQueryKinds));
  std::set<std::tuple<int, int, int>> seen;
  for (const QuerySpec& spec : Specs(*in, kinds, kPaperAlgos, 192)) {
    seen.insert({static_cast<int>(spec.kind),
                 static_cast<int>(spec.algorithm), spec.k});
    ExpectMatchesBruteForce((*world)->EngineFor(spec), spec);
  }
  EXPECT_EQ(seen.size(), 4u * 4u * 3u);  // every kind x algorithm x k
}

TEST(Oracle, ServeWorldHubLabelEveryKind) {
  auto in = SmallInputs(600);
  Config cfg = SmallConfig();
  auto world = BuildServeWorld(*in, nullptr);
  ASSERT_TRUE(world.ok());
  std::vector<QueryKind> kinds(std::begin(grnn::core::kAllQueryKinds),
                               std::end(grnn::core::kAllQueryKinds));
  for (const QuerySpec& spec :
       Specs(*in, kinds, {Algorithm::kHubLabel}, 48)) {
    ExpectMatchesBruteForce(*(*world)->engine, spec);
  }
}

TEST(Oracle, UpdateWorldEveryAlgorithmAfterUpdates) {
  auto in = SmallInputs(600);
  Config cfg = SmallConfig();
  auto world = BuildUpdateWorld(*in, nullptr);
  ASSERT_TRUE(world.ok());
  grnn::core::RknnEngine& engine = *(*world)->engine;
  const std::vector<grnn::PointId> sites = in->sites.LivePoints();
  ASSERT_TRUE(engine.ApplyUpdate(grnn::core::UpdateSpec::DeleteSite(sites[0]))
                  .ok());
  for (NodeId n = 0; n < in->g.num_nodes(); n += 97) {
    if (!in->points.Contains(n)) {
      ASSERT_TRUE(engine.ApplyUpdate(grnn::core::UpdateSpec::InsertPoint(n))
                      .ok());
    }
  }
  std::vector<Algorithm> algos = kPaperAlgos;
  algos.push_back(Algorithm::kHubLabel);
  for (const QuerySpec& spec :
       Specs(*in, kNodeKinds, algos, 90, /*at_points=*/false)) {
    ExpectMatchesBruteForce(engine, spec);
  }
}

// ---------------------------------------------------------------------
// Span-file sanity: recorded trees pass, and each check fails when the
// recording is broken the way it guards against.

// Three requests: root -> graph scan -> disk read, then a KNN read.
void Record(Tracer& tracer, int requests = 3) {
  for (int i = 0; i < requests; ++i) {
    TimedRoot(tracer, SpanKind::kQuery, [&] {
      {
        SpanScope scan(&tracer, SpanKind::kGraphScan);
        SpanScope read(&tracer, SpanKind::kDiskRead);
      }
      SpanScope knn(&tracer, SpanKind::kKnnRead);
      return 0;
    });
  }
}

void ExpectRejected(const std::vector<ThreadSpans>& spans,
                    const AggregateTable& agg, const std::string& why) {
  const grnn::Status st = CheckSpans(spans, agg);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find(why), std::string::npos) << st.ToString();
}

class SpanCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    Record(tracer_);
    spans_ = tracer_.StoredSpans();
    agg_ = tracer_.Aggregates();
    ASSERT_EQ(spans_.size(), 1u);
    ASSERT_EQ(spans_[0].spans.size(), 12u);
  }
  Span& At(size_t i) { return spans_[0].spans[i]; }

  Tracer tracer_;
  std::vector<ThreadSpans> spans_;
  AggregateTable agg_{};
};

TEST_F(SpanCheck, AcceptsRecordedTrees) {
  EXPECT_TRUE(CheckSpans(spans_, agg_).ok());
  EXPECT_EQ(spans_[0].client.size(), 3u);
}

TEST_F(SpanCheck, RejectsChildOutsideParent) {
  At(2).end_ns = At(1).end_ns + 1;  // the disk read leaves its scan
  ExpectRejected(spans_, agg_, "outside its parent");
}

TEST_F(SpanCheck, RejectsMissingParent) {
  At(1).parent = 3;  // not before the child
  ExpectRejected(spans_, agg_, "does not exist before it");
  spans_ = tracer_.StoredSpans();
  At(3).parent = kNoParent;  // a wrapper span cannot be a root
  ExpectRejected(spans_, agg_, "has no parent");
}

TEST_F(SpanCheck, RejectsOverlappingSiblings) {
  At(3).start_ns = At(1).end_ns - 1;  // the KNN read overlaps the scan
  ExpectRejected(spans_, agg_, "overlaps an earlier sibling");
}

TEST_F(SpanCheck, RejectsRootOutsideItsClientInterval) {
  spans_[0].client[1].end_ns = At(4).end_ns - 1;
  ExpectRejected(spans_, agg_, "outside the interval its client timed");
}

TEST_F(SpanCheck, RejectsRootWithoutClientInterval) {
  spans_[0].client.pop_back();
  ExpectRejected(spans_, agg_, "has no client interval");
}

TEST_F(SpanCheck, RejectsRunningAggregatesThatDisagreeWithSpans) {
  At(2).end_ns -= 1;  // still inside its parent, but not what was timed
  ExpectRejected(spans_, agg_, "differs from its stored spans");
}

TEST_F(SpanCheck, RejectsMetricAggregatesThatDisagreeWithSpans) {
  agg_[static_cast<size_t>(SpanKind::kQuery)]
      [static_cast<size_t>(SpanKind::kGraphScan)]
          .self_ns += 1;
  ExpectRejected(spans_, agg_, "does not match the stored requests");
}

TEST(SpanFile, RejectsRootThatClosedEarly) {
  // The root closes before the call it should cover: a temporary
  // SpanScope instead of a named one.
  Tracer tracer;
  const int64_t t0 = NowNs();
  { SpanScope root(&tracer, SpanKind::kQuery); }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  tracer.ClientTimed(t0, NowNs());
  ExpectRejected(tracer.StoredSpans(), tracer.Aggregates(),
                 "root spans cover");
}

TEST(SpanFile, RecordedTreesAreWritten) {
  Tracer tracer;
  Record(tracer);
  const std::string path = ::testing::TempDir() + "rknnbench_spans.tsv";
  EXPECT_TRUE(WriteSpanFile(path, tracer.StoredSpans(), tracer.Aggregates())
                  .ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  int lines = 0;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    lines += c == '\n';
  }
  std::fclose(f);
  EXPECT_EQ(lines, 1 + 3 * 4);  // header + four spans per request
  std::remove(path.c_str());
}

TEST(SpanFile, StorageCapKeepsWholeRequests) {
  Tracer tracer(/*max_stored_spans=*/5);
  Record(tracer, 4);
  const auto spans = tracer.StoredSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].spans.size(), 8u);  // two whole requests
  EXPECT_EQ(spans[0].dropped_roots, 2u);
  EXPECT_EQ(tracer.Aggregates()[0][0].count, 4u);  // all four aggregated
  EXPECT_TRUE(CheckSpans(spans, tracer.Aggregates()).ok());
}

// ---------------------------------------------------------------------
// Metric names and units match BENCHMARK.json.

// (name, unit) of every metric in one list of BENCHMARK.json.
std::vector<std::pair<std::string, std::string>> ListedMetrics(
    const std::string& list) {
  std::ifstream f(RKNNBENCH_JSON);
  std::stringstream text;
  text << f.rdbuf();
  const std::string json = text.str();
  const size_t begin = json.find("\"" + list + "\"");
  EXPECT_NE(begin, std::string::npos) << list;
  const size_t end = json.find(']', begin);
  const std::string section = json.substr(begin, end - begin);
  const std::regex entry(
      R"re("name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = std::sregex_iterator(section.begin(), section.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> NamesAndUnits(
    const std::vector<Metric>& metrics) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Metric& m : metrics) {
    out.emplace_back(m.name, m.unit);
  }
  return out;
}

TEST(Metrics, PerLayerListMatchesBenchmarkJson) {
  const auto listed = ListedMetrics("per_layer");
  EXPECT_EQ(listed.size(), 45u);
  EXPECT_EQ(NamesAndUnits(LayerMetricDefs()), listed);
}

// ---------------------------------------------------------------------
// Each workload end to end on a small world.

class WorkloadRun : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadRun, EndToEndAndTraced) {
  for (bool trace : {false, true}) {
    RunOptions opts;
    opts.workload = GetParam();
    opts.seed = 9;
    opts.seconds = 0.6;
    opts.trace = trace;
    opts.config = SmallConfig();
    auto run = RunWorkload(opts);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->correct) << (run->problems.empty() ? ""
                                                        : run->problems[0]);
    EXPECT_EQ(run->failed, 0u);
    EXPECT_GT(run->attempted, 0u);
    std::set<std::string> names;
    for (const Metric& m : run->metrics) {
      names.insert(m.name);
      if (!trace) {
        EXPECT_GT(m.value, 0) << m.name;
      }
    }
    EXPECT_EQ(names.size(), run->metrics.size());
    EXPECT_EQ(NamesAndUnits(run->metrics),
              ListedMetrics(trace ? "per_layer" : "end_to_end"));
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadRun,
                         ::testing::Values("paper-disk", "label-serve",
                                           "mixed-update"));

}  // namespace
}  // namespace rknnbench
