// Hub-label CONSTRUCTION bench (PR 9): order x threads x layout over
// the paper's three graph families. Three sweeps per world:
//
//   1. Order ablation — serial builds under each HubOrder, reporting
//      per-phase wall time, label shape and prune effectiveness
//      (HubLabelBuildStats). Degree order on grids is the known
//      pathological cell (labels ~ O(n) per node); it is skipped above
//      small scale so the sweep stays tractable, with a printed note.
//   2. Thread scaling — the rank-windowed parallel build at 2 and 4
//      workers under the best order, with verify_canonical at small
//      scale proving bit-identical labels.
//   3. Layout ablation — LabelFile v1 records vs v3 delta pages
//      (bytes/entry) and AoS HubLabelIndex::Query vs the SoA
//      PackedHubLabelIndex SIMD merge (pair-query qps, backend
//      labelled).
//
// perf-smoke records the --json output as BENCH_PR9.json. The bench
// FAILS if the best-order grid avg |L| exceeds 4x the best-order road
// avg |L| — the betweenness order must tame meshes, not just win rows.
// --scale=large selects the production-scale presets (>= 100k-node
// generator configs).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "gen/brite.h"
#include "gen/grid.h"
#include "gen/road_network.h"
#include "index/hub_label.h"
#include "index/label_file.h"
#include "index/packed_labels.h"

using namespace grnn;
using namespace grnn::bench;

namespace {

struct WorldCase {
  std::string name;
  graph::Graph g;
};

std::vector<WorldCase> MakeWorlds(const BenchArgs& args) {
  std::vector<WorldCase> worlds;
  {
    gen::GridConfig cfg;
    cfg.rows = args.pick<uint32_t>(24u, 80u, 120u, 320u);
    cfg.cols = cfg.rows;
    cfg.seed = args.seed;
    auto g = gen::GenerateGrid(cfg).ValueOrDie();
    worlds.push_back(
        {"grid_" + std::to_string(g.num_nodes()), std::move(g)});
  }
  {
    gen::BriteConfig cfg;
    cfg.num_nodes = args.pick<NodeId>(2000, 8000, 30000, 120000);
    cfg.seed = args.seed;
    cfg.unit_weights = false;
    worlds.push_back({"brite", gen::GenerateBrite(cfg).ValueOrDie()});
  }
  {
    gen::RoadConfig cfg;
    cfg.num_nodes = args.pick<NodeId>(2000, 8000, 30000, 120000);
    cfg.seed = args.seed;
    worlds.push_back(
        {"road", gen::GenerateRoadNetwork(cfg).ValueOrDie().g});
  }
  return worlds;
}

const char* OrderName(index::HubOrder order) {
  switch (order) {
    case index::HubOrder::kDegreeDesc:
      return "degree";
    case index::HubOrder::kRandom:
      return "random";
    case index::HubOrder::kBetweennessApprox:
      return "betweenness";
  }
  return "?";
}

struct BuildRow {
  index::HubOrder order;
  double build_s = 0;
  index::HubLabelBuildStats stats;
};

// Wall-clock qps of `count` random-pair distance queries; `checksum`
// defeats dead-code elimination and doubles as an equivalence probe
// between the AoS and SoA paths.
template <typename QueryFn>
double PairQps(NodeId n, size_t count, uint64_t seed, QueryFn query,
               double* checksum) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.UniformInt(n)),
                       static_cast<NodeId>(rng.UniformInt(n)));
  }
  double sum = 0;
  WallTimer timer;
  for (const auto& [u, v] : pairs) {
    const Weight d = query(u, v);
    if (d < kInfinity) {
      sum += d;
    }
  }
  const double s = timer.ElapsedSeconds();
  *checksum = sum;
  return s > 0 ? static_cast<double>(count) / s : 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintBanner("Hub-label construction: order x threads x layout", args,
              "serial order ablation; rank-windowed parallel build; "
              "LabelFile v1/v3 + SoA SIMD query ablation");
  JsonReport report("hub_build", args);

  const bool skip_grid_degree = args.scale != ScaleLevel::kSmall;
  const size_t pair_queries = args.pick<size_t>(50000, 200000, 200000,
                                                200000);

  double grid_best_avg = -1;
  double road_best_avg = -1;

  for (WorldCase& world : MakeWorlds(args)) {
    graph::GraphView view(&world.g);
    const bool is_grid = world.name.rfind("grid", 0) == 0;
    std::printf("\n== %s (|V|=%u, |E|=%zu) ==\n", world.name.c_str(),
                world.g.num_nodes(), world.g.num_edges());

    // --- 1. Serial order ablation -----------------------------------
    std::vector<BuildRow> rows;
    Table order_table({"order", "build(s)", "order(s)", "trav(s)",
                       "fin(s)", "avg|L|", "max|L|", "entries",
                       "pruned"});
    for (index::HubOrder order :
         {index::HubOrder::kDegreeDesc,
          index::HubOrder::kBetweennessApprox}) {
      if (is_grid && order == index::HubOrder::kDegreeDesc &&
          skip_grid_degree) {
        std::printf(
            "note: skipping grid x degree above --scale=small — degree "
            "order degenerates on meshes (~84 s / avg|L| ~2237 on the "
            "6400-node grid); the betweenness row below is the fix.\n");
        continue;
      }
      index::HubLabelBuildOptions opts;
      opts.order = order;
      opts.seed = args.seed;
      BuildRow row{order, 0, {}};
      WallTimer timer;
      auto built = index::HubLabelBuilder::Build(view, opts, &row.stats);
      if (!built.ok()) {
        std::fprintf(stderr, "build failed (%s): %s\n", OrderName(order),
                     built.status().ToString().c_str());
        return 1;
      }
      row.build_s = timer.ElapsedSeconds();
      rows.push_back(row);
      order_table.AddRow(
          {OrderName(order), Table::Num(row.build_s, 3),
           Table::Num(row.stats.order_s, 3),
           Table::Num(row.stats.traverse_s, 3),
           Table::Num(row.stats.finalize_s, 3),
           Table::Num(row.stats.avg_label_size, 1),
           std::to_string(row.stats.max_label_size),
           std::to_string(row.stats.num_entries),
           std::to_string(row.stats.pruned_pops)});
      report.AddConfig(
          "world=" + world.name + ",order=" + OrderName(order) +
              ",threads=1",
          {{"build_s", row.build_s},
           {"order_s", row.stats.order_s},
           {"traverse_s", row.stats.traverse_s},
           {"finalize_s", row.stats.finalize_s},
           {"avg_label_size", row.stats.avg_label_size},
           {"max_label_size",
            static_cast<double>(row.stats.max_label_size)},
           {"label_entries", static_cast<double>(row.stats.num_entries)},
           {"pruned_pops", static_cast<double>(row.stats.pruned_pops)}});
    }
    order_table.Print();

    // Best order by label size (the axis the order exists to optimize).
    const BuildRow* best = &rows.front();
    for (const BuildRow& r : rows) {
      if (r.stats.avg_label_size < best->stats.avg_label_size) {
        best = &r;
      }
    }
    std::printf("best order: %s (avg|L|=%.1f)\n", OrderName(best->order),
                best->stats.avg_label_size);
    if (is_grid) {
      grid_best_avg = best->stats.avg_label_size;
    } else if (world.name == "road") {
      road_best_avg = best->stats.avg_label_size;
    }

    // --- 2. Parallel thread scaling (best order) --------------------
    Table thread_table({"threads", "build(s)", "trav(s)", "merge(s)",
                        "windows", "rejected", "speedup"});
    double serial_best_s = best->build_s;
    for (int threads : {2, 4}) {
      index::HubLabelBuildOptions opts;
      opts.order = best->order;
      opts.seed = args.seed;
      opts.num_threads = threads;
      // Cross-check the rank-windowed merge against the canonical
      // serial build where it is cheap; at larger scales the dedicated
      // test matrix owns that proof.
      opts.verify_canonical = args.scale == ScaleLevel::kSmall;
      index::HubLabelBuildStats stats;
      WallTimer timer;
      auto built = index::HubLabelBuilder::Build(view, opts, &stats);
      if (!built.ok()) {
        std::fprintf(stderr, "parallel build failed (threads=%d): %s\n",
                     threads, built.status().ToString().c_str());
        return 1;
      }
      const double build_s = timer.ElapsedSeconds();
      thread_table.AddRow(
          {std::to_string(threads), Table::Num(build_s, 3),
           Table::Num(stats.traverse_s, 3), Table::Num(stats.merge_s, 3),
           std::to_string(stats.windows),
           std::to_string(stats.merge_rejected),
           Table::Num(build_s > 0 ? serial_best_s / build_s : 0, 2)});
      report.AddConfig(
          "world=" + world.name + ",order=" +
              OrderName(best->order) + ",threads=" +
              std::to_string(threads),
          {{"build_s", build_s},
           {"traverse_s", stats.traverse_s},
           {"merge_s", stats.merge_s},
           {"windows", static_cast<double>(stats.windows)},
           {"merge_rejected", static_cast<double>(stats.merge_rejected)},
           {"speedup_vs_serial",
            build_s > 0 ? serial_best_s / build_s : 0}});
    }
    thread_table.Print();

    // --- 3. Layout ablation (best order) ----------------------------
    index::HubLabelBuildOptions opts;
    opts.order = best->order;
    opts.seed = args.seed;
    auto labels = index::HubLabelBuilder::Build(view, opts).ValueOrDie();

    double bytes_per_entry[2] = {0, 0};
    const index::LabelLayout layouts[2] = {index::LabelLayout::kRecords,
                                           index::LabelLayout::kDelta};
    const char* layout_names[2] = {"records", "delta"};
    for (int i = 0; i < 2; ++i) {
      storage::MemoryDiskManager disk;
      auto file = index::LabelFile::Build(labels, &disk, layouts[i]);
      if (!file.ok()) {
        std::fprintf(stderr, "LabelFile build (%s) failed: %s\n",
                     layout_names[i], file.status().ToString().c_str());
        return 1;
      }
      bytes_per_entry[i] =
          labels.num_entries() == 0
              ? 0
              : static_cast<double>(file->num_pages() *
                                    disk.page_size()) /
                    static_cast<double>(labels.num_entries());
    }

    auto packed = index::PackedHubLabelIndex::From(labels);
    double aos_sum = 0;
    double soa_sum = 0;
    const double aos_qps = PairQps(
        world.g.num_nodes(), pair_queries, args.seed * 97 + 13,
        [&](NodeId u, NodeId v) { return labels.Query(u, v); }, &aos_sum);
    const double soa_qps = PairQps(
        world.g.num_nodes(), pair_queries, args.seed * 97 + 13,
        [&](NodeId u, NodeId v) { return packed.Query(u, v); }, &soa_sum);
    if (aos_sum != soa_sum) {
      std::fprintf(stderr,
                   "FAIL: SoA query checksum diverged from AoS "
                   "(%.17g vs %.17g)\n",
                   soa_sum, aos_sum);
      return 1;
    }

    Table layout_table({"layout", "B/entry", "query", "qps"});
    layout_table.AddRow({"v1 records", Table::Num(bytes_per_entry[0], 1),
                         "aos-merge", Table::Num(aos_qps, 0)});
    layout_table.AddRow(
        {"v3 delta", Table::Num(bytes_per_entry[1], 1),
         std::string("soa-") + index::PackedMergeBackend(),
         Table::Num(soa_qps, 0)});
    layout_table.Print();
    report.AddConfig(
        "world=" + world.name + ",layout=records",
        {{"bytes_per_entry", bytes_per_entry[0]}, {"qps", aos_qps}});
    report.AddConfig(
        "world=" + world.name + ",layout=delta," +
            "backend=" + index::PackedMergeBackend(),
        {{"bytes_per_entry", bytes_per_entry[1]},
         {"qps", soa_qps},
         {"speedup_vs_aos", aos_qps > 0 ? soa_qps / aos_qps : 0}});
  }

  if (auto st = report.WriteIfRequested(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // The acceptance bar: the betweenness order must bring mesh labels into
  // the same regime as road labels (<= 4x), or grids are still the
  // pathological family the PR set out to fix.
  std::printf("\ngrid best avg|L|=%.1f, road best avg|L|=%.1f (gate: "
              "grid <= 4x road)\n",
              grid_best_avg, road_best_avg);
  if (grid_best_avg < 0 || road_best_avg < 0 ||
      grid_best_avg > 4.0 * road_best_avg) {
    std::fprintf(stderr,
                 "FAIL: grid avg|L| %.1f exceeds 4x road avg|L| %.1f "
                 "under the best order\n",
                 grid_best_avg, road_best_avg);
    return 1;
  }
  return 0;
}
