// Live-update concurrency stress for RknnEngine: 6 query threads and 2
// update threads hammer ONE engine over ONE shared sharded BufferPool.
// The updaters toggle two dedicated points (insert then delete, many
// rounds) through the engine's update path, so at any instant the world
// is one of four states: base, base+t0, base+t1, base+t0+t1. Every
// query result must equal the brute-force answer of ONE of those four
// worlds (the linearizability window: a query sees either the pre- or
// the post-update world, never a torn one), and no query/update counter
// may be lost.
//
// The same oracle harness runs against BOTH serving modes: the PR 3
// lock path (stored engine, per-domain shared_mutex) and the PR 6
// epoch-snapshot path (memory engine, snapshot_reads) — on the epoch
// path "one of the four worlds" literally means "one published
// WorldVersion", and the suite additionally checks the version/retire
// accounting and that limbo drains once the readers are gone.
//
// Registered under the `stress`, `update` and `serve` ctest labels; the
// ThreadSanitizer CI job is what actually proves the domain
// shared_mutexes, the epoch pin/retire protocol, the sharded pin table
// and the stat accounting correct.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "gen/grid.h"
#include "gen/points.h"
#include "index/hub_label.h"

namespace grnn::core {
namespace {

// Sorted hosting nodes of a result. Toggled points get a fresh PointId
// on every re-insert, so results are compared by hosting node (at most
// one point lives per node; every world assigns a unique node set to
// each query answer).
std::vector<NodeId> Nodes(const RknnResult& r) {
  std::vector<NodeId> nodes;
  nodes.reserve(r.results.size());
  for (const PointMatch& m : r.results) {
    nodes.push_back(m.node);
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

struct UpdateStressWorld {
  graph::Graph g;
  NodePointSet points{0};
  bench::StoredRestricted env;
  NodeId toggles[2] = {kInvalidNode, kInvalidNode};
  std::vector<QuerySpec> specs;
  // expected[world][spec] = brute-force node set; world bit i = toggle i
  // present.
  std::vector<std::vector<std::vector<NodeId>>> expected;
};

UpdateStressWorld MakeUpdateStressWorld(uint64_t seed) {
  UpdateStressWorld w;
  gen::GridConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.seed = seed;
  w.g = gen::GenerateGrid(cfg).ValueOrDie();
  Rng rng(seed * 11 + 5);
  w.points = gen::PlaceNodePoints(w.g.num_nodes(), 0.15, rng).ValueOrDie();
  // An 8-page pool over kDefaultConcurrentShards: constant eviction
  // traffic through every shard while updates rewrite KNN pages.
  w.env = bench::BuildStoredRestricted(w.g, w.points, /*K=*/4,
                                       /*pool_pages=*/8,
                                       storage::kDefaultConcurrentShards)
              .ValueOrDie();

  // Two dedicated toggle nodes, initially free.
  int found = 0;
  while (found < 2) {
    NodeId n = static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
    if (!w.points.Contains(n) && (found == 0 || w.toggles[0] != n)) {
      w.toggles[found++] = n;
    }
  }

  auto live = w.points.LivePoints();
  for (Algorithm algo : kAllAlgorithms) {
    for (int k = 1; k <= 3; ++k) {
      PointId qp = live[rng.UniformInt(live.size())];
      w.specs.push_back(
          QuerySpec::Monochromatic(algo, w.points.NodeOf(qp), k, qp));
      w.specs.push_back(QuerySpec::Monochromatic(
          algo, static_cast<NodeId>(rng.UniformInt(w.g.num_nodes())), k));
    }
  }

  // Brute-force ground truth for all four toggle subsets, over throwaway
  // in-memory worlds (brute force needs no KNN store).
  w.expected.resize(4);
  for (int world = 0; world < 4; ++world) {
    NodePointSet world_points = w.points;
    for (int bit = 0; bit < 2; ++bit) {
      if ((world >> bit) & 1) {
        (void)world_points.AddPoint(w.toggles[bit]).ValueOrDie();
      }
    }
    graph::GraphView view(&w.g);
    EngineSources sources;
    sources.graph = &view;
    sources.points = &world_points;
    auto oracle = RknnEngine::Create(sources).ValueOrDie();
    for (const QuerySpec& spec : w.specs) {
      QuerySpec bf = spec;
      bf.algorithm = Algorithm::kBruteForce;
      w.expected[world].push_back(Nodes(oracle.Run(bf).ValueOrDie()));
    }
  }
  return w;
}

// The 6-reader/2-writer linearizability harness, shared by the lock-mode
// and epoch-snapshot suites below.
void RunUpdateStress(RknnEngine& engine, const UpdateStressWorld& w) {
  constexpr int kQueryThreads = 6;
  constexpr int kQueryPasses = 6;
  // Writer-starvation guard: readers run a FIXED number of passes and
  // the updaters toggle until the readers finish (capped), so the test
  // terminates promptly even under a reader-preferring shared_mutex.
  constexpr int kMaxToggleCycles = 4000;
  std::atomic<int> readers_running{kQueryThreads};
  std::atomic<uint64_t> queries_issued{0};
  std::atomic<uint64_t> toggle_cycles[2] = {{0}, {0}};
  std::atomic<int> query_mismatches{0};
  std::atomic<int> update_failures{0};
  std::atomic<int> mixed_mismatches{0};

  auto matches_some_world = [&](size_t spec_idx,
                                const RknnResult& result,
                                int required_bit) {
    const std::vector<NodeId> got = Nodes(result);
    for (int world = 0; world < 4; ++world) {
      if (required_bit >= 0 && ((world >> required_bit) & 1) == 0) {
        continue;  // this query ran while toggle `bit` was present
      }
      if (got == w.expected[static_cast<size_t>(world)][spec_idx]) {
        return true;
      }
    }
    return false;
  };

  std::vector<std::thread> threads;
  // Updater 0: plain ApplyUpdate insert/delete cycles on toggle 0.
  threads.emplace_back([&] {
    while (readers_running.load() > 0 &&
           toggle_cycles[0].load() < kMaxToggleCycles) {
      auto ins = engine.ApplyUpdate(UpdateSpec::InsertPoint(w.toggles[0]));
      if (!ins.ok()) {
        update_failures.fetch_add(1);
        break;
      }
      auto del = engine.ApplyUpdate(UpdateSpec::DeletePoint(ins->point));
      if (!del.ok()) {
        update_failures.fetch_add(1);
        break;
      }
      toggle_cycles[0].fetch_add(1);
    }
  });
  // Updater 1: the mixed path — insert, query (which must observe the
  // just-committed insert), delete, as ONE deterministic op stream.
  threads.emplace_back([&] {
    const size_t probe = 1 % w.specs.size();
    while (readers_running.load() > 0 &&
           toggle_cycles[1].load() < kMaxToggleCycles) {
      std::vector<RknnEngine::MixedOp> ops;
      ops.push_back(
          RknnEngine::MixedOp::Update(UpdateSpec::InsertPoint(w.toggles[1])));
      ops.push_back(RknnEngine::MixedOp::Query(w.specs[probe]));
      auto batch = engine.RunMixedBatch(ops);
      if (!batch.ok() || !batch->results[0].update.has_value() ||
          !batch->results[1].query.has_value()) {
        update_failures.fetch_add(1);
        break;
      }
      // The probe ran after our insert committed: only worlds with
      // toggle 1 present are admissible.
      if (!matches_some_world(probe, *batch->results[1].query,
                              /*required_bit=*/1)) {
        mixed_mismatches.fetch_add(1);
      }
      auto del = engine.ApplyUpdate(
          UpdateSpec::DeletePoint(batch->results[0].update->point));
      if (!del.ok()) {
        update_failures.fetch_add(1);
        break;
      }
      toggle_cycles[1].fetch_add(1);
    }
  });
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t issued = 0;
      for (int pass = 0; pass < kQueryPasses; ++pass) {
        for (size_t j = 0; j < w.specs.size(); ++j) {
          const size_t i =
              (j + static_cast<size_t>(t) * 5) % w.specs.size();
          auto r = engine.Run(w.specs[i]);
          issued++;
          if (!r.ok() || !matches_some_world(i, *r, /*required_bit=*/-1)) {
            query_mismatches.fetch_add(1);
          }
        }
        // Let blocked writers through between passes (shared_mutex may
        // prefer readers).
        std::this_thread::yield();
      }
      queries_issued.fetch_add(issued);
      readers_running.fetch_sub(1);
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  EXPECT_EQ(query_mismatches.load(), 0);
  EXPECT_EQ(mixed_mismatches.load(), 0);
  EXPECT_EQ(update_failures.load(), 0);
  // The window was real: both updaters got toggles through while the
  // readers were running.
  EXPECT_GE(toggle_cycles[0].load(), 1u);
  EXPECT_GE(toggle_cycles[1].load(), 1u);

  // Zero stat loss: every query and every update is counted exactly
  // once, across Run, ApplyUpdate and RunMixedBatch alike.
  const EngineStats stats = engine.lifetime_stats();
  const uint64_t cycles =
      toggle_cycles[0].load() + toggle_cycles[1].load();
  const uint64_t mixed_queries = toggle_cycles[1].load();  // one probe per cycle
  EXPECT_EQ(stats.queries, queries_issued.load() + mixed_queries);
  EXPECT_EQ(stats.updates, 2u * cycles);
  // Every insert rewrites at least the toggle node's own list.
  EXPECT_GE(stats.update.lists_written, cycles);

  // The world round-tripped: both toggles are deleted again, so a final
  // serial check must reproduce the base world exactly.
  for (size_t i = 0; i < w.specs.size(); ++i) {
    auto r = engine.Run(w.specs[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Nodes(*r), w.expected[0][i]) << "spec " << i;
  }
  EXPECT_GE(engine.num_pooled_workspaces(), 1u);
}

TEST(EngineUpdateConcurrencyTest, QueriesSeePreOrPostUpdateWorlds) {
  UpdateStressWorld w = MakeUpdateStressWorld(/*seed=*/11);
  NodePointSet points = w.points;
  auto engine =
      bench::MakeRestrictedUpdatableEngine(w.env, points).ValueOrDie();
  RunUpdateStress(engine, w);
  // Lock mode has no serving layer: epoch counters stay at zero.
  EXPECT_EQ(engine.epoch_stats().pins, 0u);
  EXPECT_EQ(engine.world_seq(), 0u);
}

// Satellite of the serving-layer PR: the SAME oracle harness over the
// epoch-snapshot path. Every result must match one published version,
// every update publishes exactly one version, and the retired-version
// limbo drains to zero once the readers are gone.
TEST(EngineUpdateConcurrencyTest, EpochSnapshotQueriesSeePublishedWorlds) {
  UpdateStressWorld w = MakeUpdateStressWorld(/*seed=*/11);
  graph::GraphView view(&w.g);
  NodePointSet points = w.points;
  MemoryKnnStore store(w.g.num_nodes(), /*k=*/4);
  ASSERT_TRUE(BuildAllNn(view, points, &store).ok());
  EngineSources sources;
  sources.graph = &view;
  sources.points = &points;
  sources.knn = &store;
  sources.updates.points = &points;
  sources.updates.knn = &store;
  sources.snapshot_reads = true;
  auto engine = RknnEngine::Create(sources).ValueOrDie();

  RunUpdateStress(engine, w);

  // Version accounting: every committed update published exactly one
  // version (and retired its predecessor); every dispatch pinned an
  // epoch; with no reader left, one reclaim pass empties limbo.
  const EngineStats stats = engine.lifetime_stats();
  EXPECT_EQ(engine.world_seq(), stats.updates);
  serve::EpochStats es = engine.epoch_stats();
  EXPECT_EQ(es.retired, stats.updates);
  EXPECT_GE(es.pins, stats.queries);
  engine.ReclaimVersions();
  es = engine.epoch_stats();
  EXPECT_EQ(es.limbo, 0u);
  EXPECT_EQ(es.reclaimed, es.retired);
}

// Hub-label serving under concurrent point AND site updates. The (P|Q)
// competitor bounds read both node domains, so a point update and a
// site update must never patch them at once, and a bichromatic reader
// must see both domains at one moment. One thread toggles a point,
// another a site, while readers run monochromatic and bichromatic hub
// queries (k up to the bounded path's limit and one past it): every
// answer must be one of the four worlds' brute-force answers, and the
// hub path must never fall back.
void RunHubToggleStress(bool snapshot_reads) {
  gen::GridConfig cfg;
  cfg.rows = 10;
  cfg.cols = 10;
  cfg.seed = 21;
  const graph::Graph g = gen::GenerateGrid(cfg).ValueOrDie();
  graph::GraphView view(&g);
  const index::HubLabelIndex labels =
      index::HubLabelBuilder::Build(view).ValueOrDie();
  Rng rng(2121);
  auto nodes = rng.SampleWithoutReplacement(g.num_nodes(), 40);
  const NodePointSet base_points =
      NodePointSet::FromLocations(
          g.num_nodes(), std::vector<NodeId>(nodes.begin(), nodes.begin() + 24))
          .ValueOrDie();
  const NodePointSet base_sites =
      NodePointSet::FromLocations(
          g.num_nodes(),
          std::vector<NodeId>(nodes.begin() + 24, nodes.begin() + 38))
          .ValueOrDie();
  const NodeId toggles[2] = {static_cast<NodeId>(nodes[38]),
                             static_cast<NodeId>(nodes[39])};  // point, site

  std::vector<QuerySpec> specs;
  for (int k : {1, 2, 16, 17}) {
    const PointId p = base_points.LivePoints()[rng.UniformInt(24)];
    specs.push_back(QuerySpec::Monochromatic(
        Algorithm::kHubLabel, base_points.NodeOf(p), k, p));
    const PointId s = base_sites.LivePoints()[rng.UniformInt(14)];
    specs.push_back(QuerySpec::Bichromatic(Algorithm::kHubLabel,
                                           base_sites.NodeOf(s), k, s));
  }
  // expected[world][spec]; world bit 0 = toggled point present, bit 1 =
  // toggled site present.
  std::vector<std::vector<std::vector<NodeId>>> expected(4);
  for (int world = 0; world < 4; ++world) {
    NodePointSet points = base_points;
    NodePointSet sites = base_sites;
    if (world & 1) {
      (void)points.AddPoint(toggles[0]).ValueOrDie();
    }
    if (world & 2) {
      (void)sites.AddPoint(toggles[1]).ValueOrDie();
    }
    EngineSources sources;
    sources.graph = &view;
    sources.points = &points;
    sources.sites = &sites;
    auto oracle = RknnEngine::Create(sources).ValueOrDie();
    for (const QuerySpec& spec : specs) {
      QuerySpec bf = spec;
      bf.algorithm = Algorithm::kBruteForce;
      expected[world].push_back(Nodes(oracle.Run(bf).ValueOrDie()));
    }
  }

  NodePointSet points = base_points;
  NodePointSet sites = base_sites;
  EngineSources sources;
  sources.graph = &view;
  sources.points = &points;
  sources.sites = &sites;
  sources.hub_labels = &labels;
  sources.updates.points = &points;
  sources.updates.sites = &sites;
  sources.snapshot_reads = snapshot_reads;
  auto engine = RknnEngine::Create(sources).ValueOrDie();

  constexpr int kReaders = 4;
  constexpr int kPasses = 8;
  constexpr int kMaxToggleCycles = 2000;
  std::atomic<int> readers_running{kReaders};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> fallbacks{0};
  std::atomic<uint64_t> cycles[2] = {{0}, {0}};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      while (readers_running.load() > 0 &&
             cycles[t].load() < kMaxToggleCycles) {
        auto ins = engine.ApplyUpdate(t == 0
                                          ? UpdateSpec::InsertPoint(toggles[0])
                                          : UpdateSpec::InsertSite(toggles[1]));
        auto del =
            ins.ok() ? engine.ApplyUpdate(t == 0
                                              ? UpdateSpec::DeletePoint(
                                                    ins->point)
                                              : UpdateSpec::DeleteSite(
                                                    ins->point))
                     : ins;
        if (!del.ok()) {
          failures.fetch_add(1);
          break;
        }
        cycles[t].fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t j = 0; j < specs.size(); ++j) {
          const size_t i = (j + static_cast<size_t>(t)) % specs.size();
          auto r = engine.Run(specs[i]);
          if (!r.ok()) {
            failures.fetch_add(1);
            continue;
          }
          fallbacks.fetch_add(r->stats.hub_fallbacks);
          const std::vector<NodeId> got = Nodes(*r);
          bool found = false;
          for (int world = 0; world < 4 && !found; ++world) {
            found = got == expected[world][i];
          }
          if (!found) {
            mismatches.fetch_add(1);
          }
        }
        std::this_thread::yield();
      }
      readers_running.fetch_sub(1);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fallbacks.load(), 0u);
  EXPECT_GE(cycles[0].load(), 1u);
  EXPECT_GE(cycles[1].load(), 1u);
  EXPECT_FALSE(engine.hub_index_stale());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(Nodes(engine.Run(specs[i]).ValueOrDie()), expected[0][i])
        << "spec " << i;
  }
}

TEST(EngineUpdateConcurrencyTest, HubQueriesSeeConsistentPointAndSiteWorlds) {
  RunHubToggleStress(/*snapshot_reads=*/false);
}

TEST(EngineUpdateConcurrencyTest,
     SnapshotHubQueriesSeeConsistentPointAndSiteWorlds) {
  RunHubToggleStress(/*snapshot_reads=*/true);
}

// A mixed batch aborted by a failing op must still count the ops that
// committed before it — they mutated the world, so dropping their
// counters would be stat loss.
TEST(EngineUpdateConcurrencyTest, AbortedMixedBatchCountsCommittedOps) {
  UpdateStressWorld w = MakeUpdateStressWorld(/*seed=*/13);
  NodePointSet points = w.points;
  auto engine =
      bench::MakeRestrictedUpdatableEngine(w.env, points).ValueOrDie();

  std::vector<RknnEngine::MixedOp> ops;
  ops.push_back(
      RknnEngine::MixedOp::Update(UpdateSpec::InsertPoint(w.toggles[0])));
  QuerySpec bad = w.specs[0];
  bad.k = 0;  // fails validation after the insert committed
  ops.push_back(RknnEngine::MixedOp::Query(bad));
  auto batch = engine.RunMixedBatch(ops);
  ASSERT_FALSE(batch.ok());

  const EngineStats stats = engine.lifetime_stats();
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_GE(stats.update.lists_written, 1u);
  EXPECT_EQ(stats.queries, 0u);
  // And the insert really persisted: the toggle world answers now.
  QuerySpec probe = w.specs[0];
  probe.algorithm = Algorithm::kBruteForce;
  auto r = engine.Run(probe);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Nodes(*r), w.expected[1][0]);
}

}  // namespace
}  // namespace grnn::core
