// Copyright (c) GRNN authors.
// The benchmark's worlds and workloads.
//
//   paper-disk    SF-like road network on a simulated disk behind the
//                 paper's 256-page buffer; one closed-loop client runs
//                 every query kind x {E, EM, L, LP}.
//   label-serve   hub labels served from a LabelFile that fits in the
//                 pool; an open-loop Poisson client feeds a 2-worker
//                 serve::Scheduler with kHubLabel queries.
//   mixed-update  in-memory world with hub labels and K=4 KNN lists; one
//                 open-loop writer inserts/deletes P and Q while two
//                 closed-loop readers query over {EM, H}.
//
// Every world is built from generated inputs only (MakeInputs) and,
// when given a Tracer, with timing wrappers between the engine and the
// library objects it reads. See README.md for what each workload judges.

#ifndef RKNNBENCH_WORKLOADS_H_
#define RKNNBENCH_WORKLOADS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/materialize.h"
#include "core/point_set.h"
#include "core/unrestricted.h"
#include "graph/graph.h"
#include "index/hub_label.h"
#include "index/label_file.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/graph_file.h"
#include "storage/knn_file.h"
#include "storage/point_file.h"
#include "storage/stored_graph.h"
#include "trace.h"
#include "wrappers.h"

namespace rknnbench {

/// World sizes and load constants. The defaults are the benchmark's;
/// tests shrink them.
struct Config {
  grnn::NodeId disk_nodes = 60000;
  grnn::NodeId serve_nodes = 30000;
  grnn::NodeId update_nodes = 30000;
  /// |P| / |V|, |Q| / |V| and edge points / |V|.
  double density = 0.01;
  /// The paper's buffer: 256 pages of 4 KB.
  size_t disk_pool_pages = 256;
  /// paper-disk: size of the fixed query pool each run replays, rounded
  /// down to whole blocks of the 48 kind x algorithm x k combinations.
  size_t disk_query_pool = 2400;
  /// World set-ups per run, each followed by an equal slice of the
  /// timed phase; setup_s is the fastest.
  int setups = 5;
  /// label-serve: nominal open-loop rate, the rate ladder (multiples of
  /// the nominal rate) and the p99 limit a rung must meet.
  double nominal_qps = 1000;
  std::vector<double> ladder = {1, 1.5, 2, 3, 4, 6};
  double p99_limit_us = 5000;
  /// mixed-update: fixed open-loop writer rate.
  double update_rate = 70;
  /// Oracle sample size per run.
  size_t oracle_samples = 48;
};

/// Generated inputs: road network plus data points P, sites Q and
/// edge-resident points, all at Config::density.
struct Inputs {
  grnn::graph::Graph g;
  grnn::core::NodePointSet points;
  grnn::core::NodePointSet sites;
  grnn::core::EdgePointSet edge_points;
  std::vector<grnn::Edge> edges;
};

grnn::Result<std::unique_ptr<Inputs>> MakeInputs(grnn::NodeId nodes,
                                                 double density,
                                                 uint64_t seed);

/// Wall time of each set-up step (seconds) and the sizes it produced.
struct SetupTimes {
  double total_s = 0;
  double files_s = 0;        // storage: Graph/Knn/Point/LabelFile builds
  double materialize_s = 0;  // core: BuildAllNn
  double labels_s = 0;       // index: HubLabelBuilder::Build
  double engine_s = 0;       // core: RknnEngine::Create
  size_t file_pages = 0;
  double avg_label_size = 0;
  double bytes_per_entry = 0;
};

/// paper-disk: GraphFile (library defaults), KnnFiles K=4 over P, Q and
/// the edge points, and a PointFile, all on one simulated disk behind
/// one pool. A node engine serves mono/bichromatic/continuous, an edge
/// engine unrestricted queries.
struct DiskWorld {
  std::unique_ptr<grnn::storage::MemoryDiskManager> disk;
  std::unique_ptr<TracedDiskManager> traced_disk;
  std::optional<grnn::storage::GraphFile> graph_file;
  std::optional<grnn::storage::KnnFile> point_knn_file;
  std::optional<grnn::storage::KnnFile> site_knn_file;
  std::optional<grnn::storage::KnnFile> edge_knn_file;
  std::optional<grnn::storage::PointFile> point_file;
  std::unique_ptr<grnn::storage::BufferPool> pool;
  std::unique_ptr<grnn::storage::StoredGraph> view;
  std::unique_ptr<grnn::core::FileKnnStore> point_knn;
  std::unique_ptr<grnn::core::FileKnnStore> site_knn;
  std::unique_ptr<grnn::core::FileKnnStore> edge_knn;
  std::unique_ptr<grnn::core::StoredEdgePointReader> reader;
  // Traced run only.
  std::unique_ptr<TracedNetworkView> traced_view;
  std::unique_ptr<TracedKnnStore> traced_point_knn;
  std::unique_ptr<TracedKnnStore> traced_site_knn;
  std::unique_ptr<TracedKnnStore> traced_edge_knn;
  std::unique_ptr<TracedEdgePointReader> traced_reader;
  grnn::obs::MetricsRegistry node_metrics;
  grnn::obs::MetricsRegistry edge_metrics;
  std::optional<grnn::core::RknnEngine> node_engine;
  std::optional<grnn::core::RknnEngine> edge_engine;
  SetupTimes times;

  grnn::core::RknnEngine& EngineFor(const grnn::core::QuerySpec& spec) {
    return spec.kind == grnn::core::QueryKind::kUnrestricted ? *edge_engine
                                                             : *node_engine;
  }
};

grnn::Result<std::unique_ptr<DiskWorld>> BuildDiskWorld(const Inputs& in,
                                                        const Config& cfg,
                                                        Tracer* tracer);

/// label-serve: hub labels (default options) in a LabelFile (default
/// layout) behind a pool holding the whole file; one read-only engine
/// over P, Q and the edge points.
struct ServeWorld {
  std::unique_ptr<grnn::graph::GraphView> view;
  std::unique_ptr<grnn::storage::MemoryDiskManager> disk;
  std::unique_ptr<TracedDiskManager> traced_disk;
  std::optional<grnn::index::LabelFile> label_file;
  std::unique_ptr<grnn::storage::BufferPool> pool;
  std::unique_ptr<grnn::index::StoredLabelIndex> labels;
  std::unique_ptr<TracedNetworkView> traced_view;
  std::unique_ptr<TracedLabelStore> traced_labels;
  grnn::obs::MetricsRegistry metrics;
  std::optional<grnn::core::RknnEngine> engine;
  SetupTimes times;
};

grnn::Result<std::unique_ptr<ServeWorld>> BuildServeWorld(const Inputs& in,
                                                          Tracer* tracer);

/// mixed-update: everything in memory; hub labels and MemoryKnnStore
/// K=4 over P and Q, maintained by the engine's update path.
struct UpdateWorld {
  std::unique_ptr<grnn::graph::GraphView> view;
  grnn::index::HubLabelIndex labels;
  std::unique_ptr<grnn::core::NodePointSet> points;
  std::unique_ptr<grnn::core::NodePointSet> sites;
  std::unique_ptr<grnn::core::MemoryKnnStore> point_knn;
  std::unique_ptr<grnn::core::MemoryKnnStore> site_knn;
  std::unique_ptr<TracedNetworkView> traced_view;
  std::unique_ptr<TracedLabelStore> traced_labels;
  grnn::obs::MetricsRegistry metrics;
  std::optional<grnn::core::RknnEngine> engine;
  SetupTimes times;
};

grnn::Result<std::unique_ptr<UpdateWorld>> BuildUpdateWorld(
    const Inputs& in, Tracer* tracer);

/// Seeded query generator over static inputs. The (kind, algorithm, k)
/// combinations come round-robin in a freshly shuffled order per cycle,
/// so every run holds the same mix. Monochromatic queries start at a
/// data point (excluded from its own query), bichromatic ones at a site;
/// continuous routes are random walks of 2-8 nodes and unrestricted
/// positions are uniform on random edges.
class SpecStream {
 public:
  SpecStream(const Inputs* in, uint64_t seed,
             std::vector<grnn::core::QueryKind> kinds,
             std::vector<grnn::core::Algorithm> algos,
             bool start_at_points = true);
  grnn::core::QuerySpec Next();

 private:
  struct Combo {
    grnn::core::QueryKind kind;
    grnn::core::Algorithm algo;
    int k;
  };

  const Inputs* in_;
  grnn::Rng rng_;
  std::vector<Combo> combos_;
  size_t next_combo_ = 0;
  bool start_at_points_;
  std::vector<grnn::PointId> live_points_;
  std::vector<grnn::PointId> live_sites_;
};

/// Point-id projection of a result, the unit the oracle compares.
std::vector<grnn::PointId> ResultIds(const grnn::core::RknnResult& r);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the span file (traced runs); empty = do not write.
  std::string out_dir;
  Config config;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Why `correct` is false, one line each.
  std::vector<std::string> problems;
};

grnn::Result<RunResult> RunWorkload(const RunOptions& options);

/// Names and units of every per-layer metric, in report order (values 0).
std::vector<Metric> LayerMetricDefs();

}  // namespace rknnbench

#endif  // RKNNBENCH_WORKLOADS_H_
