// Hub-label index vs the expansion algorithms (PR 5): single-query
// latency and batch throughput on the paper's three graph families,
// plus the build-time/space cost of the index itself — the trade-off
// axis the index subsystem introduces. All engines serve the same
// in-memory view, so the comparison isolates algorithmic work
// (label-intersection vs Dijkstra expansion); the LabelFile serving
// path is covered by bench_ablation-style page counting elsewhere.
//
// A mixed read/write sweep (query:update ratio x threads, lock AND
// epoch-snapshot modes) then drives every query through the hub-label
// path while updates run live: the incrementally maintained
// HubPointIndex (PR 8) must keep hub_fallbacks at zero at steady
// state, and the bench FAILS if any mix falls back — perf-smoke
// records the JSON as BENCH_PR8.json, so the zero-fallback bar is
// enforced on every run.
//
// CI's perf-smoke job records this bench's --json output (historically
// BENCH_PR5.json); the acceptance bar is a >= 2x single-query speedup
// of hub over eager on at least one world.

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "gen/brite.h"
#include "gen/grid.h"
#include "gen/points.h"
#include "gen/road_network.h"
#include "index/hub_label.h"

using namespace grnn;
using namespace grnn::bench;

namespace {

struct WorldCase {
  std::string name;
  graph::Graph g;
  // Hub order with the smallest labels on this family (bench_hub_build):
  // betweenness on meshes, where no node's degree stands out; degree
  // elsewhere.
  index::HubOrder order = index::HubOrder::kDegreeDesc;
};

std::vector<WorldCase> MakeWorlds(const BenchArgs& args) {
  std::vector<WorldCase> worlds;
  {
    gen::GridConfig cfg;
    cfg.rows = args.pick<uint32_t>(40u, 80u, 160u);
    cfg.cols = cfg.rows;
    cfg.seed = args.seed;
    worlds.push_back({"grid", gen::GenerateGrid(cfg).ValueOrDie(),
                      index::HubOrder::kBetweennessApprox});
  }
  {
    gen::BriteConfig cfg;
    cfg.num_nodes = args.pick<NodeId>(2000, 8000, 30000);
    cfg.seed = args.seed;
    cfg.unit_weights = false;
    worlds.push_back({"brite", gen::GenerateBrite(cfg).ValueOrDie()});
  }
  {
    gen::RoadConfig cfg;
    cfg.num_nodes = args.pick<NodeId>(2000, 8000, 30000);
    cfg.seed = args.seed;
    worlds.push_back(
        {"road", gen::GenerateRoadNetwork(cfg).ValueOrDie().g});
  }
  return worlds;
}

// Wall-clock qps over `specs` through engine.Run, one at a time (the
// serving shape single-query latency cares about).
double SingleQueryQps(core::RknnEngine& engine,
                      const std::vector<core::QuerySpec>& specs) {
  WallTimer timer;
  for (const core::QuerySpec& spec : specs) {
    auto r = engine.Run(spec);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
  }
  const double s = timer.ElapsedSeconds();
  return s > 0 ? static_cast<double>(specs.size()) / s : 0;
}

double BatchQps(core::RknnEngine& engine,
                const std::vector<core::QuerySpec>& specs, int threads) {
  WallTimer timer;
  auto r = engine.RunBatch(specs, core::ParallelOptions{threads, 16});
  if (!r.ok()) {
    std::fprintf(stderr, "batch failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  const double s = timer.ElapsedSeconds();
  return s > 0 ? static_cast<double>(specs.size()) / s : 0;
}

struct HubMixResult {
  size_t queries = 0;
  size_t updates = 0;
  size_t occupied = 0;  // inserts rejected: node already hosts a point
  double wall_s = 0;
  uint64_t hub_fallbacks = 0;
};

// One measured mix: `threads` OS threads against the shared engine,
// update with probability update_percent, EVERY query through
// Algorithm::kHubLabel. Writers delete only their own points so the
// density stays ~stable and victims never race.
Result<HubMixResult> RunHubMix(core::RknnEngine& engine,
                               NodeId num_nodes, int threads,
                               size_t ops_per_thread, int update_percent,
                               uint64_t seed) {
  const core::EngineStats before = engine.lifetime_stats();
  std::atomic<size_t> occupied{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  Status first_error = Status::OK();
  auto record_failure = [&](const Status& s) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (first_error.ok()) {
      first_error = s;
    }
    failed.store(true);
  };
  std::vector<std::thread> team;
  team.reserve(static_cast<size_t>(threads));
  WallTimer wall;
  for (int t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {
      Rng rng(seed * 1299709 + static_cast<uint64_t>(t) * 7919 + 17);
      std::vector<PointId> mine;
      for (size_t i = 0; i < ops_per_thread && !failed.load(); ++i) {
        if (static_cast<int>(rng.UniformInt(100)) < update_percent) {
          if (mine.empty() || rng.UniformInt(2) == 0) {
            NodeId node =
                static_cast<NodeId>(rng.UniformInt(num_nodes));
            auto r =
                engine.ApplyUpdate(core::UpdateSpec::InsertPoint(node));
            if (r.ok()) {
              mine.push_back(r->point);
            } else if (r.status().code() ==
                       StatusCode::kAlreadyExists) {
              occupied.fetch_add(1);
            } else {
              record_failure(r.status());
            }
          } else {
            PointId victim = mine.back();
            mine.pop_back();
            auto r =
                engine.ApplyUpdate(core::UpdateSpec::DeletePoint(victim));
            if (!r.ok()) {
              record_failure(r.status());
            }
          }
        } else {
          const int k = 1 + static_cast<int>(rng.UniformInt(3));
          auto r = engine.Run(core::QuerySpec::Monochromatic(
              core::Algorithm::kHubLabel,
              static_cast<NodeId>(rng.UniformInt(num_nodes)), k));
          if (!r.ok()) {
            record_failure(r.status());
          }
        }
      }
    });
  }
  for (auto& th : team) {
    th.join();
  }
  HubMixResult out;
  out.wall_s = wall.ElapsedSeconds();
  if (failed.load()) {
    return first_error;
  }
  engine.ReclaimVersions();
  const core::EngineStats after = engine.lifetime_stats();
  out.queries = after.queries - before.queries;
  out.updates = after.updates - before.updates;
  out.occupied = occupied.load();
  out.hub_fallbacks =
      after.search.hub_fallbacks - before.search.hub_fallbacks;
  return out;
}

// The PR 8 sweep: both engine modes x update share x threads, all
// queries on the label path. Returns false when any mix fell back to
// eager — the incremental maintenance contract is zero fallbacks at
// steady state, and perf-smoke fails the run on a violation.
bool RunMixedSweep(const BenchArgs& args, JsonReport& report) {
  gen::GridConfig cfg;
  cfg.rows = args.pick<NodeId>(16, 24, 48);
  cfg.cols = cfg.rows;
  cfg.seed = args.seed + 1;
  auto g = gen::GenerateGrid(cfg).ValueOrDie();
  graph::GraphView view(&g);
  Rng rng(args.seed * 37 + 11);
  constexpr uint32_t kK = 4;
  auto labels = index::HubLabelBuilder::Build(view).ValueOrDie();
  const size_t ops_per_thread = args.queries;

  std::printf("\nmixed read/write sweep (grid |V|=%u, all queries "
              "kHubLabel, incremental index maintenance):\n",
              g.num_nodes());
  Table table({"mode", "upd%", "thr", "queries", "updates", "occ",
               "wall(s)", "ops/s", "hub_fb"});
  bool zero_fallbacks = true;
  for (bool snapshot : {false, true}) {
    // Fresh world per mode so both start from the same density.
    Rng prng(args.seed * 37 + 11);
    auto points =
        gen::PlaceNodePoints(g.num_nodes(), 0.1, prng).ValueOrDie();
    core::MemoryKnnStore knn(g.num_nodes(), kK);
    if (!core::BuildAllNn(view, points, &knn).ok()) {
      std::fprintf(stderr, "KNN materialization failed\n");
      return false;
    }
    core::EngineSources sources;
    sources.graph = &view;
    sources.points = &points;
    sources.knn = &knn;
    sources.hub_labels = &labels;
    sources.updates.points = &points;
    sources.updates.knn = &knn;
    sources.snapshot_reads = snapshot;
    auto engine = core::RknnEngine::Create(sources).ValueOrDie();
    const char* mode = snapshot ? "snapshot" : "lock";

    for (int update_percent : {1, 10, 50}) {
      for (int threads : {1, 2, 4}) {
        auto mix = RunHubMix(engine, g.num_nodes(), threads,
                             ops_per_thread, update_percent,
                             args.seed * 211 +
                                 static_cast<uint64_t>(
                                     update_percent * 17 + threads))
                       .ValueOrDie();
        const double total_ops =
            static_cast<double>(mix.queries + mix.updates);
        table.AddRow(
            {mode, std::to_string(update_percent),
             std::to_string(threads), std::to_string(mix.queries),
             std::to_string(mix.updates), std::to_string(mix.occupied),
             Table::Num(mix.wall_s, 3),
             Table::Num(mix.wall_s == 0 ? 0 : total_ops / mix.wall_s,
                        0),
             std::to_string(mix.hub_fallbacks)});
        report.AddConfig(
            std::string("mix,mode=") + mode +
                ",upd=" + std::to_string(update_percent) +
                ",threads=" + std::to_string(threads),
            {{"queries", static_cast<double>(mix.queries)},
             {"updates", static_cast<double>(mix.updates)},
             {"wall_s", mix.wall_s},
             {"ops_per_s",
              mix.wall_s == 0 ? 0 : total_ops / mix.wall_s},
             {"hub_fallbacks",
              static_cast<double>(mix.hub_fallbacks)}});
        if (mix.hub_fallbacks != 0) {
          zero_fallbacks = false;
        }
      }
    }
  }
  table.Print();
  return zero_fallbacks;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  const double density = 0.01;
  const int k = 1;

  PrintBanner("Hub-label index vs expansion (monochromatic, D=0.01, k=1)",
              args,
              "in-memory serving; single-query wall qps + batch qps; "
              "index build cost per world");

  Table table({"world", "|V|", "build(s)", "avg|L|", "E qps", "L qps",
               "H qps", "H/E", "batch E", "batch H"});
  JsonReport report("hub_label", args);

  for (WorldCase& world : MakeWorlds(args)) {
    Rng rng(args.seed * 211 + world.g.num_nodes());
    auto points =
        gen::PlaceNodePoints(world.g.num_nodes(), density, rng)
            .ValueOrDie();
    auto queries = gen::SampleQueryPoints(points, args.queries, rng);
    graph::GraphView view(&world.g);

    index::HubLabelBuildOptions build_opts;
    build_opts.order = world.order;
    index::HubLabelBuildStats build_stats;
    WallTimer build_timer;
    auto labels =
        index::HubLabelBuilder::Build(view, build_opts, &build_stats)
            .ValueOrDie();
    const double build_s = build_timer.ElapsedSeconds();
    std::printf(
        "%s build: order=%s %.3fs (order %.3fs, traverse %.3fs, "
        "finalize %.3fs), avg|L|=%.1f max|L|=%zu, pruned_pops=%llu\n",
        world.name.c_str(),
        world.order == index::HubOrder::kDegreeDesc ? "degree"
                                                    : "betweenness",
        build_s, build_stats.order_s,
        build_stats.traverse_s, build_stats.finalize_s,
        build_stats.avg_label_size, build_stats.max_label_size,
        static_cast<unsigned long long>(build_stats.pruned_pops));

    core::EngineSources sources;
    sources.graph = &view;
    sources.points = &points;
    sources.hub_labels = &labels;
    auto engine = core::RknnEngine::Create(sources).ValueOrDie();

    auto specs_for = [&](core::Algorithm a) {
      std::vector<core::QuerySpec> specs;
      specs.reserve(queries.size());
      for (PointId q : queries) {
        specs.push_back(core::QuerySpec::Monochromatic(
            a, points.NodeOf(q), k, q));
      }
      return specs;
    };
    const auto eager_specs = specs_for(core::Algorithm::kEager);
    const auto lazy_specs = specs_for(core::Algorithm::kLazy);
    const auto hub_specs = specs_for(core::Algorithm::kHubLabel);

    // Warm the workspace pool once per algorithm family, then measure.
    (void)SingleQueryQps(engine, {eager_specs.front()});
    (void)SingleQueryQps(engine, {hub_specs.front()});
    const double eager_qps = SingleQueryQps(engine, eager_specs);
    const double lazy_qps = SingleQueryQps(engine, lazy_specs);
    const double hub_qps = SingleQueryQps(engine, hub_specs);
    const double batch_eager = BatchQps(engine, eager_specs, args.threads);
    const double batch_hub = BatchQps(engine, hub_specs, args.threads);

    table.AddRow({world.name, std::to_string(world.g.num_nodes()),
                  Table::Num(build_s, 3),
                  Table::Num(labels.AverageLabelSize(), 1),
                  Table::Num(eager_qps, 0), Table::Num(lazy_qps, 0),
                  Table::Num(hub_qps, 0),
                  Table::Num(eager_qps > 0 ? hub_qps / eager_qps : 0, 1),
                  Table::Num(batch_eager, 0), Table::Num(batch_hub, 0)});

    report.AddConfig(
        "world=" + world.name + ",index",
        {{"num_nodes", static_cast<double>(world.g.num_nodes())},
         {"num_points", static_cast<double>(points.num_points())},
         {"build_s", build_s},
         {"label_entries", static_cast<double>(labels.num_entries())},
         {"avg_label_size", labels.AverageLabelSize()},
         {"max_label_size",
          static_cast<double>(build_stats.max_label_size)},
         {"pruned_pops", static_cast<double>(build_stats.pruned_pops)},
         {"order_s", build_stats.order_s},
         {"traverse_s", build_stats.traverse_s},
         {"finalize_s", build_stats.finalize_s}});
    auto add = [&](const char* algo, const char* mode, double qps) {
      report.AddConfig("world=" + world.name + ",mode=" + mode +
                           ",algo=" + algo,
                       {{"qps", qps}});
    };
    add("E", "single", eager_qps);
    add("L", "single", lazy_qps);
    add("H", "single", hub_qps);
    add("E", "batch", batch_eager);
    add("H", "batch", batch_hub);
    report.AddConfig("world=" + world.name + ",speedup",
                     {{"hub_over_eager_single",
                       eager_qps > 0 ? hub_qps / eager_qps : 0},
                      {"hub_over_eager_batch",
                       batch_eager > 0 ? batch_hub / batch_eager : 0}});
  }
  table.Print();

  const bool zero_fallbacks = RunMixedSweep(args, report);

  if (auto st = report.WriteIfRequested(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  std::printf(
      "\nexpected shape: hub-label answers every query by label\n"
      "intersection (no network expansion), so H qps >> E qps on every\n"
      "world once the one-off build cost is paid; the build/query\n"
      "trade-off is the index subsystem's new axis (DESIGN.md, \"Index\n"
      "subsystem\"). In the mixed sweep the incrementally maintained\n"
      "index keeps hub_fb at 0 in both modes — updates splice the\n"
      "per-hub runs instead of invalidating them.\n");
  if (!zero_fallbacks) {
    std::fprintf(stderr,
                 "FAIL: hub-label queries fell back to eager during the "
                 "mixed sweep (expected zero at steady state)\n");
    return 1;
  }
  return 0;
}
