// Copyright (c) GRNN authors.
// kNN / RkNN primitives over hub labels (ReHub, PAPERS.md): label
// intersection replaces network expansion. Both primitives share one
// structure:
//
//   sweep    — walk the inverted occurrence lists (HubPointIndex) of
//              every hub in the query label, accumulating the minimum
//              d(q,h) + d(h,p) per point. The 2-hop cover guarantees the
//              minimum IS the exact network distance d(q, p).
//   verify   — (RkNN only) decide each candidate p the sweep reached.
//              For k <= kBoundedK with competitor bounds
//              (index/rknn_bounds.h) the sweep is CUT — a run is skipped
//              when cut(h) is below d(q,h), a walk ends at the first
//              entry past cut(h) — and p is decided from its own list:
//              reported iff its k-th competitor distance is not
//              DistLess than d(q, p). Otherwise (no bounds, or
//              k > kBoundedK) the full sweep runs and p's verify walk
//              counts competitors strictly closer to p than the query
//              over the competitor runs of p's hubs; runs are sorted by
//              distance, so a walk stops at the first entry whose bound
//              reaches d(q, p), and the count early-exits at k.
//
// RknnViaLabels implements the EXACT RknnOptions semantics of
// core/types.h (DistLess tie handling included), so its results are
// interchangeable with the expansion algorithms — the differential
// harness holds both verify paths to the brute-force oracle on every
// seeded world.
//
// All scratch state lives in a LabelWorkspace (embedded in
// core::SearchWorkspace): warm queries allocate nothing, and cursor
// leases over stored label pages follow the engine's pin discipline.

#ifndef GRNN_INDEX_HUB_RKNN_H_
#define GRNN_INDEX_HUB_RKNN_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "core/primitives.h"
#include "core/types.h"
#include "index/hub_label.h"
#include "index/hub_point_index.h"

namespace grnn::index {

class RknnBounds;

/// \brief Reusable label-scan scratch: cursors for live label spans plus
/// the per-point accumulation state of the sweep/verify phases. Lives in
/// core::SearchWorkspace; single-owner mutable state, one live query at
/// a time.
struct LabelWorkspace {
  /// Sequential label scans (the query sweep, then one scan per
  /// verified candidate). Only one span is live at a time.
  LabelCursor cursor;
  /// Point id -> minimum d(q,h) + d(h,p) seen so far (exact distance
  /// once the sweep finishes).
  core::StampedDistances point_dist;
  /// Competitor dedupe during verification (a point occurs in the lists
  /// of all its hubs).
  core::StampedSet counted;
  /// Points reached by the sweep, in first-touch order.
  std::vector<PointId> touched;
  /// Hosting node of each touched point (valid only for touched ids).
  std::vector<NodeId> point_node;
  /// kNN sweeps: the source labels' hubs by ascending distance, and the
  /// k nearest points found so far by ascending (distance, id).
  std::vector<std::pair<Weight, NodeId>> hub_order;
  std::vector<std::pair<Weight, PointId>> nearest;

  size_t CapacityFootprint() const {
    return cursor.scratch_capacity() + point_dist.capacity() +
           counted.capacity() + touched.capacity() + point_node.capacity() +
           hub_order.capacity() + nearest.capacity();
  }

  /// Drops any buffer-pool pin the cursor holds for its last span.
  void ReleaseLeases() { cursor.Reset(); }

  size_t held_pins() const { return cursor.held_pins(); }
};

/// \brief The sweep: resets ws and accumulates into ws.point_dist the
/// minimum d(s,h) + d(h,p) over every hub h of every `sources` label and
/// every occurrence of p in h's run, so afterwards ws.point_dist.Get(p)
/// == d(sources, p) (distance to the NEAREST source) for every reached p,
/// listed in ws.touched with its node in ws.point_node. With `bounds`
/// (built over `points` as candidates) the sweep is cut: a run is
/// skipped when DistLess(cut(h), d(s,h)) and a walk ends at the first
/// entry with DistLess(cut(h), d(s,h) + d(h,p)); every point within its
/// own kDepth-th competitor distance of a source keeps its exact
/// distance. Adds the entries walked to stats->label_entries.
Status SweepPointDistances(const LabelStore& labels,
                           const HubPointIndex& points,
                           std::span<const NodeId> sources,
                           const RknnBounds* bounds, LabelWorkspace& ws,
                           core::SearchStats* stats);

/// \brief The sweep from an edge position: the virtual label of `pos`
/// (L(u) offset by pos, L(v) offset by w - pos) over `index`, then the
/// same-edge pass (the direct segment between two positions on one edge
/// is the only path the endpoint cover cannot see). Same contract and
/// cut as SweepPointDistances; ws.point_node holds the canonical `u`.
Status SweepEdgePosition(const LabelStore& labels,
                         const core::EdgePointSet& points,
                         const HubPointIndex& index,
                         const core::EdgePosition& pos, Weight edge_weight,
                         const RknnBounds* bounds, LabelWorkspace& ws,
                         core::SearchStats* stats);

/// \brief Exact k nearest points of `source`, ascending by
/// (distance, point id); `exclude` never appears. Deterministic: ties at
/// the k-th distance resolve by point id. The sweep visits the source's
/// hubs nearest first and stops each run, and then the whole sweep, at
/// the first bound past the k-th distance found so far: that distance
/// never falls below the true k-th, so every one of the k nearest is
/// still reached at its exact distance. When `stats` is non-null the
/// sweep's label_entries are added to it.
Status KnnViaLabelsInto(const LabelStore& labels,
                        const HubPointIndex& points, NodeId source, int k,
                        PointId exclude, LabelWorkspace& ws,
                        std::vector<core::NnResult>* out,
                        core::SearchStats* stats = nullptr);

/// \brief Exact k nearest edge points of the edge position `pos` (canonical
/// u < v, on an edge of weight `edge_weight`): the same pruned sweep over
/// its virtual label, after the same-edge pass. Distances sum exactly
/// as the unrestricted verify walk sums them; `node` of each result is
/// the canonical `u` of its edge (or `pos.u` for same-edge points).
Status KnnViaLabelsInto(const LabelStore& labels,
                        const core::EdgePointSet& points,
                        const HubPointIndex& index,
                        const core::EdgePosition& pos, Weight edge_weight,
                        int k, PointId exclude, LabelWorkspace& ws,
                        std::vector<core::NnResult>* out,
                        core::SearchStats* stats = nullptr);

/// \brief RkNN over hub labels, exact under the RknnOptions contract:
/// candidate p is reported iff strictly fewer than `options.k`
/// competitors (DistLess) are closer to p than the query, where the
/// query distance is min over `query_nodes`.
///
/// `candidates` and `competitors` are the populations of the query kind:
/// the same object for monochromatic queries (candidates then skip
/// options.exclude_point and never compete against themselves), distinct
/// objects for bichromatic queries (sites compete, only
/// options.exclude_point is removed from the competitor side — point and
/// site ids are separate spaces, exactly as in the brute-force oracle).
/// Both must be built over `labels`' node universe.
///
/// `bounds`, when given, must be the RknnBounds of exactly this pairing;
/// for options.k <= kBoundedK they cut the sweep and replace each
/// verify walk by a list lookup. Without them (or for larger k) every
/// candidate is verified by walking.
Result<core::RknnResult> RknnViaLabels(const LabelStore& labels,
                                       const HubPointIndex& candidates,
                                       const HubPointIndex& competitors,
                                       std::span<const NodeId> query_nodes,
                                       const core::RknnOptions& options,
                                       LabelWorkspace& ws,
                                       const RknnBounds* bounds = nullptr);

/// \brief RkNN over hub labels in UNRESTRICTED networks (paper
/// Section 5.2): candidates and competitors are the edge-resident points
/// of `points`, indexed by `index` (HubPointIndex::Build over the
/// EdgePointSet — occurrences at min distance through both endpoints).
/// Exact under the RknnOptions contract and interchangeable with
/// UnrestrictedEagerRknn: distances to an interior position combine the
/// sweep over the two OFFSET endpoint labels of the query position (or
/// the plain per-node sweep for route queries) with a same-edge
/// correction pass. Verification either looks up each candidate's (E|E)
/// list in `bounds` (k <= kBoundedK; the sweep is then cut) or walks the
/// candidate's virtual label (both endpoint labels, offset by its split
/// of its edge) plus its same-edge neighbours.
///
/// `g` resolves the query edge's weight and canonical orientation for
/// position queries; `nbr_cursor` backs that one transient scan.
Result<core::RknnResult> UnrestrictedRknnViaLabels(
    const LabelStore& labels, const graph::NetworkView& g,
    const core::EdgePointSet& points, const HubPointIndex& index,
    const core::UnrestrictedQuery& query, const core::RknnOptions& options,
    LabelWorkspace& ws, graph::NeighborCursor& nbr_cursor,
    const RknnBounds* bounds = nullptr);

}  // namespace grnn::index

#endif  // GRNN_INDEX_HUB_RKNN_H_
