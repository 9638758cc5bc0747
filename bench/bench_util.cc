#include "bench_util.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

#include "common/string_util.h"

#ifndef GRNN_GIT_SHA
#define GRNN_GIT_SHA "unknown"
#endif
#ifndef GRNN_BUILD_TYPE
#define GRNN_BUILD_TYPE "unknown"
#endif

namespace grnn::bench {

namespace {

// Comma-separated algorithm list, each token through the central
// parser. A token the parser rejects aborts the bench: silently
// falling back to the full sweep is far costlier than re-typing a
// flag.
std::vector<core::Algorithm> ParseAlgos(const char* csv) {
  std::vector<core::Algorithm> out;
  std::string_view rest(csv);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string_view token = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    if (token.empty()) {
      continue;
    }
    auto parsed = core::ParseAlgorithm(token);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      std::exit(2);
    }
    out.push_back(*parsed);
  }
  if (out.empty()) {
    std::fprintf(stderr, "--algos= needs at least one algorithm\n");
    std::exit(2);
  }
  return out;
}

}  // namespace

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scale=", 8) == 0) {
      const char* v = a + 8;
      if (std::strcmp(v, "small") == 0) {
        args.scale = ScaleLevel::kSmall;
      } else if (std::strcmp(v, "medium") == 0) {
        args.scale = ScaleLevel::kMedium;
      } else if (std::strcmp(v, "full") == 0) {
        args.scale = ScaleLevel::kFull;
      } else if (std::strcmp(v, "large") == 0) {
        args.scale = ScaleLevel::kLarge;
      } else {
        std::fprintf(stderr, "unknown scale '%s'\n", v);
      }
    } else if (std::strncmp(a, "--queries=", 10) == 0) {
      args.queries = static_cast<size_t>(std::atoll(a + 10));
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      args.seed = static_cast<uint64_t>(std::atoll(a + 7));
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      args.threads = std::atoi(a + 10);
      if (args.threads < 1) {
        std::fprintf(stderr, "--threads= must be >= 1\n");
        std::exit(2);
      }
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      args.json_path = a + 7;
    } else if (std::strncmp(a, "--algos=", 8) == 0) {
      args.algos = ParseAlgos(a + 8);
    } else if (std::strcmp(a, "--help") == 0) {
      std::printf(
          "options: --scale=small|medium|full|large --queries=N --seed=S "
          "--threads=N --json=PATH --algos=E,EM,L,LP (also BF, and hub "
          "(H) on benches serving the hub-label index — all four query "
          "kinds, incl. continuous and unrestricted)\n");
    }
  }
  return args;
}

const char* BenchArgs::scale_name() const {
  switch (scale) {
    case ScaleLevel::kSmall:
      return "small";
    case ScaleLevel::kMedium:
      return "medium";
    case ScaleLevel::kFull:
      return "full";
    case ScaleLevel::kLarge:
      return "large";
  }
  return "?";
}

void StoredRestricted::ResetPool(size_t pages,
                                 storage::ReplacementPolicy policy,
                                 size_t pool_shards) {
  pool = std::make_unique<storage::BufferPool>(disk.get(), pages, policy,
                                               pool_shards);
  view = std::make_unique<storage::StoredGraph>(file.get(), pool.get());
  if (knn_file != nullptr) {
    knn_store =
        std::make_unique<core::FileKnnStore>(knn_file.get(), pool.get());
  }
}

namespace {

// Cluster KNN lists like the adjacency pages (the GraphFile's default
// order), so local expansions touch few distinct KNN pages.
Result<std::unique_ptr<storage::KnnFile>> CreateClusteredKnnFile(
    const graph::Graph& g, storage::DiskManager* disk, uint32_t K) {
  const std::vector<NodeId> order =
      storage::ComputeNodeOrder(g, storage::GraphFileOptions{}.order);
  std::vector<NodeId> slot_of(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    slot_of[order[i]] = i;
  }
  GRNN_ASSIGN_OR_RETURN(
      auto knn, storage::KnnFile::Create(disk, g.num_nodes(), K, &slot_of));
  return std::make_unique<storage::KnnFile>(std::move(knn));
}

}  // namespace

Result<StoredRestricted> BuildStoredRestricted(
    const graph::Graph& g, const core::NodePointSet& points, uint32_t K,
    size_t pool_pages, size_t pool_shards) {
  StoredRestricted env;
  env.disk = std::make_unique<storage::MemoryDiskManager>();
  GRNN_ASSIGN_OR_RETURN(auto file,
                        storage::GraphFile::Build(g, env.disk.get()));
  env.file = std::make_unique<storage::GraphFile>(std::move(file));
  if (K > 0) {
    GRNN_ASSIGN_OR_RETURN(env.knn_file,
                          CreateClusteredKnnFile(g, env.disk.get(), K));
    // Materialization happens offline; use an uncounted build pool.
    storage::BufferPool build_pool(env.disk.get(), pool_pages);
    core::FileKnnStore build_store(env.knn_file.get(), &build_pool);
    graph::GraphView build_view(&g);
    GRNN_RETURN_NOT_OK(
        core::BuildAllNn(build_view, points, &build_store));
    GRNN_RETURN_NOT_OK(build_pool.FlushAll());
  }
  env.ResetPool(pool_pages, storage::ReplacementPolicy::kLru,
                pool_shards);
  return env;
}

void StoredUnrestricted::ResetPool(size_t pages,
                                   storage::ReplacementPolicy policy,
                                   size_t pool_shards) {
  pool = std::make_unique<storage::BufferPool>(disk.get(), pages, policy,
                                               pool_shards);
  view = std::make_unique<storage::StoredGraph>(file.get(), pool.get());
  reader = std::make_unique<core::StoredEdgePointReader>(point_file.get(),
                                                         pool.get());
  if (knn_file != nullptr) {
    knn_store =
        std::make_unique<core::FileKnnStore>(knn_file.get(), pool.get());
  }
}

Result<StoredUnrestricted> BuildStoredUnrestricted(
    const graph::Graph& g, const core::EdgePointSet& points, uint32_t K,
    size_t pool_pages, size_t pool_shards) {
  StoredUnrestricted env;
  env.disk = std::make_unique<storage::MemoryDiskManager>();
  GRNN_ASSIGN_OR_RETURN(auto file,
                        storage::GraphFile::Build(g, env.disk.get()));
  env.file = std::make_unique<storage::GraphFile>(std::move(file));
  GRNN_ASSIGN_OR_RETURN(
      auto pf,
      storage::PointFile::Build(env.disk.get(), points.ToEdgeGroups()));
  env.point_file = std::make_unique<storage::PointFile>(std::move(pf));
  if (K > 0) {
    GRNN_ASSIGN_OR_RETURN(env.knn_file,
                          CreateClusteredKnnFile(g, env.disk.get(), K));
    storage::BufferPool build_pool(env.disk.get(), pool_pages);
    core::FileKnnStore build_store(env.knn_file.get(), &build_pool);
    graph::GraphView build_view(&g);
    GRNN_RETURN_NOT_OK(
        core::UnrestrictedBuildAllNn(build_view, points, &build_store));
    GRNN_RETURN_NOT_OK(build_pool.FlushAll());
  }
  env.ResetPool(pool_pages, storage::ReplacementPolicy::kLru,
                pool_shards);
  return env;
}

int FourWayIndex(core::Algorithm a) {
  for (size_t i = 0; i < std::size(core::kAllAlgorithms); ++i) {
    if (core::kAllAlgorithms[i] == a) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<std::string> FourWayHeaders(std::vector<std::string> first) {
  for (core::Algorithm a : core::kAllAlgorithms) {
    first.push_back(StrPrintf("%s tot(s)", core::AlgorithmShortName(a)));
  }
  for (core::Algorithm a : core::kAllAlgorithms) {
    first.push_back(StrPrintf("%s io/cpu", core::AlgorithmShortName(a)));
  }
  return first;
}

Result<core::RknnEngine> MakeRestrictedEngine(
    const StoredRestricted& env, const core::NodePointSet& points) {
  core::EngineSources sources;
  sources.graph = env.view.get();
  sources.points = &points;
  sources.knn = env.knn_store.get();
  sources.pool = env.pool.get();
  return core::RknnEngine::Create(sources);
}

Result<core::RknnEngine> MakeUnrestrictedEngine(
    const StoredUnrestricted& env, const core::EdgePointSet& points) {
  core::EngineSources sources;
  sources.graph = env.view.get();
  sources.edge_points = &points;
  sources.edge_reader = env.reader.get();
  sources.knn = env.knn_store.get();
  sources.pool = env.pool.get();
  return core::RknnEngine::Create(sources);
}

Result<core::RknnEngine> MakeRestrictedUpdatableEngine(
    const StoredRestricted& env, core::NodePointSet& points,
    obs::MetricsRegistry* metrics) {
  core::EngineSources sources;
  sources.graph = env.view.get();
  sources.points = &points;
  sources.knn = env.knn_store.get();
  sources.pool = env.pool.get();
  sources.updates.points = &points;
  sources.updates.knn = env.knn_store.get();
  sources.metrics = metrics;
  return core::RknnEngine::Create(sources);
}

Result<core::RknnEngine> MakeUnrestrictedUpdatableEngine(
    const StoredUnrestricted& env, core::EdgePointSet& points,
    const graph::Graph& g) {
  core::EngineSources sources;
  sources.graph = env.view.get();
  sources.edge_points = &points;
  // No stored reader: the engine's in-memory reader tracks live updates.
  sources.knn = env.knn_store.get();
  sources.pool = env.pool.get();
  sources.updates.edge_points = &points;
  sources.updates.knn = env.knn_store.get();
  sources.updates.base_graph = &g;
  return core::RknnEngine::Create(sources);
}

Result<FourWay> RunFourWayRestricted(
    StoredRestricted& env, const core::NodePointSet& points,
    const std::vector<PointId>& queries, int k,
    std::span<const core::Algorithm> algos) {
  FourWay out;
  for (core::Algorithm a : algos) {
    const int slot = FourWayIndex(a);
    if (slot < 0) {
      continue;  // brute force has no column in the paper's figures
    }
    env.ResetPool(env.pool->capacity());
    GRNN_ASSIGN_OR_RETURN(core::RknnEngine engine,
                          MakeRestrictedEngine(env, points));
    GRNN_ASSIGN_OR_RETURN(
        out.m[slot],
        RunWorkload(env.pool.get(), queries.size(),
                    [&](size_t i) -> Result<size_t> {
                      // Run (not RunBatch): the paper charges each query
                      // a cold buffer pool, which RunWorkload enforces
                      // between calls; workspace reuse still applies.
                      GRNN_ASSIGN_OR_RETURN(
                          core::RknnResult r,
                          engine.Run(core::QuerySpec::Monochromatic(
                              a, points.NodeOf(queries[i]), k,
                              queries[i])));
                      return r.results.size();
                    }));
  }
  return out;
}

Result<FourWay> RunFourWayUnrestricted(
    StoredUnrestricted& env, const core::EdgePointSet& points,
    const std::vector<PointId>& queries, int k,
    std::span<const core::Algorithm> algos) {
  FourWay out;
  for (core::Algorithm a : algos) {
    const int slot = FourWayIndex(a);
    if (slot < 0) {
      continue;
    }
    env.ResetPool(env.pool->capacity());
    GRNN_ASSIGN_OR_RETURN(core::RknnEngine engine,
                          MakeUnrestrictedEngine(env, points));
    GRNN_ASSIGN_OR_RETURN(
        out.m[slot],
        RunWorkload(env.pool.get(), queries.size(),
                    [&](size_t i) -> Result<size_t> {
                      GRNN_ASSIGN_OR_RETURN(
                          core::RknnResult r,
                          engine.Run(core::QuerySpec::Unrestricted(
                              a, points.PositionOf(queries[i]), k,
                              queries[i])));
                      return r.results.size();
                    }));
  }
  return out;
}

void AppendFourWayCells(const FourWay& fw,
                        std::vector<std::string>* cells) {
  for (int a = 0; a < 4; ++a) {
    cells->push_back(Table::Num(fw.m[a].AvgTotalS(), 3));
  }
  for (int a = 0; a < 4; ++a) {
    cells->push_back(StrPrintf("%.0f/%.1f", fw.m[a].AvgFaults(),
                               fw.m[a].AvgCpuMs()));
  }
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string Table::Num(double v, int precision) {
  if (v >= 1e6) {
    return StrPrintf("%.3g", v);
  }
  return StrPrintf("%.*f", precision, v);
}

void Table::Print() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      std::printf("%s%-*s", c == 0 ? "  " : "  ",
                  static_cast<int>(widths[c]), cells[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::string sep;
  for (size_t c = 0; c < headers_.size(); ++c) {
    sep += std::string(widths[c], '-');
    sep += "  ";
  }
  std::printf("  %s\n", sep.c_str());
  for (const auto& row : rows_) {
    print_row(row);
  }
}

JsonReport::JsonReport(std::string bench, const BenchArgs& args)
    : bench_(std::move(bench)),
      path_(args.json_path),
      scale_(args.scale_name()),
      seed_(args.seed),
      queries_(args.queries),
      threads_(args.threads) {}

void JsonReport::AddConfig(std::string name, Metrics metrics) {
  configs_.emplace_back(std::move(name), std::move(metrics));
}

JsonReport::Metrics JsonReport::MeasurementMetrics(const Measurement& m) {
  return {
      {"queries", static_cast<double>(m.queries)},
      {"results", static_cast<double>(m.results)},
      {"cpu_s", m.cpu_s},
      {"qps_cpu", m.cpu_s > 0
                      ? static_cast<double>(m.queries) / m.cpu_s
                      : 0.0},
      {"page_accesses", static_cast<double>(m.faults)},
      {"logical_reads", static_cast<double>(m.logical)},
      {"avg_faults_per_query", m.AvgFaults()},
      {"avg_total_s_per_query", m.AvgTotalS()},
  };
}

void JsonReport::AddFourWayConfigs(
    const std::string& prefix, const FourWay& fw,
    std::span<const core::Algorithm> algos) {
  for (core::Algorithm a : algos) {
    const int slot = FourWayIndex(a);
    if (slot < 0) {
      continue;  // brute force / hub have no four-way column
    }
    AddConfig(prefix + ",algo=" + core::AlgorithmShortName(a),
              MeasurementMetrics(fw.m[slot]));
  }
}

namespace {

// Minimal JSON string escaping for config/metric names (the harness only
// emits names it built itself, but keep the writer safe).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrPrintf("\\u%04x", c);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Compiler identification for the meta block.
const char* CompilerString() {
#if defined(__clang__)
  return "clang " __VERSION__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

void JsonReport::SetMetrics(const obs::MetricsSnapshot& snapshot) {
  metrics_json_ = snapshot.ExportJson();
}

Status JsonReport::WriteIfRequested() const {
  if (path_.empty()) {
    return Status::OK();
  }
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError(
        StrPrintf("cannot open %s for writing", path_.c_str()));
  }
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"scale\": \"%s\",\n"
               "  \"seed\": %llu,\n  \"queries\": %zu,\n"
               "  \"threads\": %d,\n"
               "  \"meta\": {\"git_sha\": \"%s\", \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"hardware_concurrency\": %u, "
               "\"page_size\": %ld},\n"
               "  \"configs\": [",
               JsonEscape(bench_).c_str(), JsonEscape(scale_).c_str(),
               static_cast<unsigned long long>(seed_), queries_,
               threads_, JsonEscape(GRNN_GIT_SHA).c_str(),
               JsonEscape(CompilerString()).c_str(),
               JsonEscape(GRNN_BUILD_TYPE).c_str(),
               std::thread::hardware_concurrency(),
               sysconf(_SC_PAGESIZE));
  for (size_t i = 0; i < configs_.size(); ++i) {
    std::fprintf(f, "%s\n    {\"name\": \"%s\"", i == 0 ? "" : ",",
                 JsonEscape(configs_[i].first).c_str());
    for (const auto& [key, value] : configs_[i].second) {
      std::fprintf(f, ", \"%s\": %.17g", JsonEscape(key).c_str(), value);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ]");
  if (!metrics_json_.empty()) {
    // ExportJson emits a complete JSON object; embed verbatim.
    std::fprintf(f, ",\n  \"metrics\": %s", metrics_json_.c_str());
  }
  std::fprintf(f, "\n}\n");
  if (std::fclose(f) != 0) {
    return Status::IOError(StrPrintf("write to %s failed", path_.c_str()));
  }
  std::printf("json report written to %s\n", path_.c_str());
  return Status::OK();
}

void PrintBanner(const std::string& title, const BenchArgs& args,
                 const std::string& setup) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("scale=%s queries=%zu seed=%llu | %s\n", args.scale_name(),
              args.queries, static_cast<unsigned long long>(args.seed),
              setup.c_str());
  std::printf("cost model: total = CPU + %.0f ms/page-fault (paper Sec 6)\n",
              kIoCostSeconds * 1e3);
  std::printf("==============================================================\n");
}

}  // namespace grnn::bench
