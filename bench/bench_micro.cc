// Micro-benchmarks (google-benchmark) for the hot substrate pieces:
// neighbor-scan (expansion) throughput, IndexedHeap arity, Dijkstra
// expansion, range-NN, and all-NN build.
//
// Accepts the harness-wide --json=PATH flag (translated to google
// benchmark's own JSON reporter) so CI archives the numbers.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/indexed_heap.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/primitives.h"
#include "gen/brite.h"
#include "gen/points.h"
#include "gen/road_network.h"
#include "graph/dijkstra.h"
#include "graph/network_view.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/graph_file.h"
#include "storage/stored_graph.h"

namespace grnn {
namespace {

template <int Arity>
void BM_HeapPushPop(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  std::vector<double> keys(n);
  for (double& k : keys) {
    k = rng.Uniform01();
  }
  for (auto _ : state) {
    IndexedHeap<double, uint32_t, Arity> heap;
    for (size_t i = 0; i < n; ++i) {
      heap.Push(keys[i], static_cast<uint32_t>(i));
    }
    while (!heap.empty()) {
      benchmark::DoNotOptimize(heap.Pop());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK_TEMPLATE(BM_HeapPushPop, 2)->Arg(1 << 12)->Arg(1 << 16);
BENCHMARK_TEMPLATE(BM_HeapPushPop, 4)->Arg(1 << 12)->Arg(1 << 16);

void BM_HeapErase(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    IndexedHeap<double, uint32_t> heap;
    std::vector<IndexedHeap<double, uint32_t>::Handle> handles;
    for (size_t i = 0; i < n; ++i) {
      handles.push_back(
          heap.Push(rng.Uniform01(), static_cast<uint32_t>(i)));
    }
    for (size_t i = 0; i < n; i += 2) {
      benchmark::DoNotOptimize(heap.Erase(handles[i]));
    }
    while (!heap.empty()) {
      benchmark::DoNotOptimize(heap.Pop());
    }
  }
}
BENCHMARK(BM_HeapErase)->Arg(1 << 14);

// Raw expansion throughput: full adjacency sweeps in BFS-neighborhood
// order, the innermost loop of every RkNN algorithm. Items/sec counts
// directed edges scanned. The GraphView case measures the pure
// zero-copy CSR path; the StoredGraph case measures the buffer-pool
// path (page records decoded into the cursor) with the paper's 256-page
// pool, fully warm.
void ScanSweep(benchmark::State& state, const graph::Graph& g,
               const graph::NetworkView& view) {
  graph::NeighborCursor cursor;
  for (auto _ : state) {
    double acc = 0;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      // Copy the span out before the temporary Result dies.
      const std::span<const AdjEntry> nbrs =
          view.Scan(n, cursor).ValueOrDie();
      for (const AdjEntry& a : nbrs) {
        acc += a.weight;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * g.num_edges()));
}

void BM_NeighborScanGraphView(benchmark::State& state) {
  gen::RoadConfig cfg;
  cfg.num_nodes = 20000;
  auto net = gen::GenerateRoadNetwork(cfg).ValueOrDie();
  graph::GraphView view(&net.g);
  ScanSweep(state, net.g, view);
}
BENCHMARK(BM_NeighborScanGraphView)->Unit(benchmark::kMillisecond);

void BM_NeighborScanStored(benchmark::State& state) {
  gen::RoadConfig cfg;
  cfg.num_nodes = 20000;
  auto net = gen::GenerateRoadNetwork(cfg).ValueOrDie();
  storage::MemoryDiskManager disk;
  auto file = storage::GraphFile::Build(net.g, &disk).ValueOrDie();
  storage::BufferPool pool(&disk, /*capacity_pages=*/256);
  storage::StoredGraph view(&file, &pool);
  ScanSweep(state, net.g, view);
}
BENCHMARK(BM_NeighborScanStored)->Unit(benchmark::kMillisecond);

void BM_DijkstraRoad(benchmark::State& state) {
  gen::RoadConfig cfg;
  cfg.num_nodes = static_cast<NodeId>(state.range(0));
  auto net = gen::GenerateRoadNetwork(cfg).ValueOrDie();
  graph::GraphView view(&net.g);
  Rng rng(3);
  for (auto _ : state) {
    NodeId src = static_cast<NodeId>(rng.UniformInt(net.g.num_nodes()));
    benchmark::DoNotOptimize(
        graph::SingleSourceDistances(view, src).ValueOrDie());
  }
}
BENCHMARK(BM_DijkstraRoad)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_DijkstraBrite(benchmark::State& state) {
  gen::BriteConfig cfg;
  cfg.num_nodes = static_cast<NodeId>(state.range(0));
  cfg.unit_weights = false;
  auto g = gen::GenerateBrite(cfg).ValueOrDie();
  graph::GraphView view(&g);
  Rng rng(3);
  for (auto _ : state) {
    NodeId src = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    benchmark::DoNotOptimize(
        graph::SingleSourceDistances(view, src).ValueOrDie());
  }
}
BENCHMARK(BM_DijkstraBrite)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_RangeNn(benchmark::State& state) {
  gen::RoadConfig cfg;
  cfg.num_nodes = 20000;
  auto net = gen::GenerateRoadNetwork(cfg).ValueOrDie();
  graph::GraphView view(&net.g);
  Rng rng(5);
  auto points = gen::PlaceNodePoints(net.g.num_nodes(),
                                     /*density=*/0.01, rng)
                    .ValueOrDie();
  core::NnSearcher searcher(&view, &points);
  const double range = static_cast<double>(state.range(0));
  for (auto _ : state) {
    NodeId src = static_cast<NodeId>(rng.UniformInt(net.g.num_nodes()));
    benchmark::DoNotOptimize(
        searcher.RangeNn(src, 1, range, kInvalidPoint, nullptr)
            .ValueOrDie());
  }
}
BENCHMARK(BM_RangeNn)->Arg(100)->Arg(400)->Arg(1600);

// Engine-session batching vs one-shot free-function calls: the same
// eager workload, with and without cross-query workspace reuse.
void BM_EngineBatchEager(benchmark::State& state) {
  gen::RoadConfig cfg;
  cfg.num_nodes = 20000;
  auto net = gen::GenerateRoadNetwork(cfg).ValueOrDie();
  graph::GraphView view(&net.g);
  Rng rng(5);
  auto points =
      gen::PlaceNodePoints(net.g.num_nodes(), 0.01, rng).ValueOrDie();
  auto queries = gen::SampleQueryPoints(points, 64, rng);
  std::vector<core::QuerySpec> specs;
  for (PointId qp : queries) {
    specs.push_back(core::QuerySpec::Monochromatic(
        core::Algorithm::kEager, points.NodeOf(qp), 1, qp));
  }
  core::EngineSources sources;
  sources.graph = &view;
  sources.points = &points;
  auto engine = core::RknnEngine::Create(sources).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.RunBatch(specs).ValueOrDie());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(specs.size()));
}
BENCHMARK(BM_EngineBatchEager)->Unit(benchmark::kMillisecond);

void BM_SingleQueryEager(benchmark::State& state) {
  gen::RoadConfig cfg;
  cfg.num_nodes = 20000;
  auto net = gen::GenerateRoadNetwork(cfg).ValueOrDie();
  graph::GraphView view(&net.g);
  Rng rng(5);
  auto points =
      gen::PlaceNodePoints(net.g.num_nodes(), 0.01, rng).ValueOrDie();
  auto queries = gen::SampleQueryPoints(points, 64, rng);
  core::EngineSources sources;
  sources.graph = &view;
  sources.points = &points;
  auto engine = core::RknnEngine::Create(sources).ValueOrDie();
  for (auto _ : state) {
    for (PointId qp : queries) {
      benchmark::DoNotOptimize(
          engine
              .Run(core::QuerySpec::Monochromatic(
                  core::Algorithm::kEager, points.NodeOf(qp), 1, qp))
              .ValueOrDie());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_SingleQueryEager)->Unit(benchmark::kMillisecond);

void BM_AllNnBuild(benchmark::State& state) {
  gen::RoadConfig cfg;
  cfg.num_nodes = static_cast<NodeId>(state.range(0));
  auto net = gen::GenerateRoadNetwork(cfg).ValueOrDie();
  graph::GraphView view(&net.g);
  Rng rng(9);
  auto points =
      gen::PlaceNodePoints(net.g.num_nodes(), 0.01, rng).ValueOrDie();
  for (auto _ : state) {
    core::MemoryKnnStore store(net.g.num_nodes(), 4);
    benchmark::DoNotOptimize(core::BuildAllNn(view, points, &store));
  }
}
BENCHMARK(BM_AllNnBuild)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace grnn

// BENCHMARK_MAIN with one addition: the harness-wide --json=PATH flag is
// translated into google benchmark's JSON output flags.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      storage.push_back(std::string("--benchmark_out=") + (argv[i] + 7));
      storage.push_back("--benchmark_out_format=json");
    } else {
      storage.push_back(argv[i]);
    }
  }
  args.reserve(storage.size());
  for (std::string& s : storage) {
    args.push_back(s.data());
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
