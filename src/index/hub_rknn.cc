#include "index/hub_rknn.h"

#include <algorithm>
#include <cmath>

#include "common/numeric.h"
#include "index/rknn_bounds.h"
#include "obs/trace.h"

namespace grnn::index {

namespace {

Status ValidateQuery(const LabelStore& labels,
                     const HubPointIndex& candidates,
                     const HubPointIndex& competitors,
                     std::span<const NodeId> query_nodes, int k) {
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (query_nodes.empty()) {
    return Status::InvalidArgument("query node set is empty");
  }
  for (NodeId q : query_nodes) {
    if (q >= labels.num_nodes()) {
      return Status::OutOfRange("query node out of range");
    }
  }
  if (candidates.num_hubs() != labels.num_nodes() ||
      competitors.num_hubs() != labels.num_nodes()) {
    return Status::InvalidArgument(
        "point index does not cover the label store's node universe");
  }
  return Status::OK();
}

/// The bounds that serve a query of `k`, or null when the verify walk
/// must run (no bounds, or k beyond the listed depth).
Result<const RknnBounds*> BoundsFor(const LabelStore& labels,
                                    const RknnBounds* bounds, int k) {
  if (bounds == nullptr || k > kBoundedK) {
    return nullptr;
  }
  if (bounds->num_hubs() != labels.num_nodes()) {
    return Status::InvalidArgument(
        "competitor bounds do not cover the label store's node universe");
  }
  return bounds;
}

/// Walks the VIRTUAL label of an edge position: L(u) with every distance
/// offset by pos, then L(v) offset by w - pos. `visit(hub, base)` gets
/// base = offset + d(endpoint, hub) and returns false to end the walk.
template <typename Visit>
Status WalkVirtualLabel(const LabelStore& labels,
                        const core::EdgePosition& pos, Weight edge_weight,
                        LabelCursor& cursor, Visit&& visit) {
  const NodeId endpoints[2] = {pos.u, pos.v};
  const Weight offsets[2] = {pos.pos, edge_weight - pos.pos};
  for (int side = 0; side < 2; ++side) {
    GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> label,
                          labels.Scan(endpoints[side], cursor));
    for (const HubEntry& e : label) {
      if (!visit(e.hub, offsets[side] + e.dist)) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

/// Keeps the minimum distance `ub` seen for occ.point; returns whether
/// this one was smaller (or the first).
bool Accumulate(const HubPointIndex::Entry& occ, Weight ub,
                LabelWorkspace& ws) {
  if (!ws.point_dist.Has(occ.point)) {
    ws.point_dist.Set(occ.point, ub);
    ws.point_node[occ.point] = occ.node;
    ws.touched.push_back(occ.point);
    return true;
  }
  if (ub < ws.point_dist.Get(occ.point)) {
    ws.point_dist.Set(occ.point, ub);
    return true;
  }
  return false;
}

/// Accumulates one hub's run into the sweep state: `base` is the
/// source's distance to `hub`. Returns whether the run was cut whole.
bool SweepRun(const HubPointIndex& points, NodeId hub, Weight base,
              const RknnBounds* bounds, LabelWorkspace& ws,
              core::SearchStats* stats) {
  const std::span<const HubPointIndex::Entry> run = points.ListOf(hub);
  if (bounds == nullptr) {
    for (const HubPointIndex::Entry& occ : run) {
      stats->label_entries++;
      Accumulate(occ, base + occ.dist, ws);
    }
    return false;
  }
  if (run.empty()) {
    return false;
  }
  const Weight cut = bounds->cut(hub);
  if (DistLess(cut, base)) {
    return true;
  }
  for (const HubPointIndex::Entry& occ : run) {
    const Weight ub = base + occ.dist;
    stats->label_entries++;
    if (DistLess(cut, ub)) {
      break;
    }
    Accumulate(occ, ub, ws);
  }
  return false;
}

void ResetSweep(PointId bound, LabelWorkspace& ws) {
  ws.point_dist.Reset(bound);
  if (ws.point_node.size() < bound) {
    ws.point_node.resize(bound, kInvalidNode);
  }
  ws.touched.clear();
}

void NoteSweep(obs::ScopedSpan& span, uint64_t entries, uint64_t runs_cut,
               const LabelWorkspace& ws) {
  if (span.armed()) {
    span.Note("label_entries", entries);
    span.Note("points_touched", ws.touched.size());
    span.Note("runs_cut", runs_cut);
  }
}

void SortResults(core::RknnResult& out) {
  std::sort(out.results.begin(), out.results.end(),
            [](const core::PointMatch& a, const core::PointMatch& b) {
              return a.point < b.point;
            });
}

}  // namespace

Status SweepPointDistances(const LabelStore& labels,
                           const HubPointIndex& points,
                           std::span<const NodeId> sources,
                           const RknnBounds* bounds, LabelWorkspace& ws,
                           core::SearchStats* stats) {
  // Armed-trace child span (obs/trace.h): one nullptr branch when the
  // query is not sampled.
  obs::ScopedSpan span(obs::CurrentTrace(), "hub.sweep");
  const uint64_t entries_before = stats->label_entries;
  uint64_t runs_cut = 0;
  ResetSweep(points.point_id_bound(), ws);
  for (NodeId s : sources) {
    GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> label,
                          labels.Scan(s, ws.cursor));
    for (const HubEntry& e : label) {
      runs_cut += SweepRun(points, e.hub, e.dist, bounds, ws, stats);
    }
  }
  NoteSweep(span, stats->label_entries - entries_before, runs_cut, ws);
  return Status::OK();
}

Status SweepEdgePosition(const LabelStore& labels,
                         const core::EdgePointSet& points,
                         const HubPointIndex& index,
                         const core::EdgePosition& pos, Weight edge_weight,
                         const RknnBounds* bounds, LabelWorkspace& ws,
                         core::SearchStats* stats) {
  obs::ScopedSpan span(obs::CurrentTrace(), "hub.sweep");
  const uint64_t entries_before = stats->label_entries;
  uint64_t runs_cut = 0;
  ResetSweep(std::max(index.point_id_bound(), points.point_id_bound()), ws);
  // Exact for every point not sharing the edge: any path to an interior
  // position enters through an endpoint.
  GRNN_RETURN_NOT_OK(WalkVirtualLabel(
      labels, pos, edge_weight, ws.cursor, [&](NodeId hub, Weight base) {
        runs_cut += SweepRun(index, hub, base, bounds, ws, stats);
        return true;
      }));
  // The same-edge pass: the direct segment between two positions on one
  // edge is the only path the endpoint cover cannot see.
  for (const storage::EdgePointRecord& r : points.PointsOnEdge(pos.u, pos.v)) {
    Accumulate({0, r.point, pos.u}, std::abs(r.pos - pos.pos), ws);
  }
  NoteSweep(span, stats->label_entries - entries_before, runs_cut, ws);
  return Status::OK();
}

namespace {

/// Writes the first k points of ws.touched other than `exclude`,
/// ascending by (distance, point id); reorders ws.touched.
void TakeNearest(LabelWorkspace& ws, int k, PointId exclude,
                 std::vector<core::NnResult>* out) {
  // Only the first k + 1 ranks can be reported (one may be `exclude`).
  const size_t ranks =
      std::min(ws.touched.size(), static_cast<size_t>(k) + 1);
  std::partial_sort(ws.touched.begin(), ws.touched.begin() + ranks,
                    ws.touched.end(), [&](PointId a, PointId b) {
                      const Weight da = ws.point_dist.Get(a);
                      const Weight db = ws.point_dist.Get(b);
                      return da != db ? da < db : a < b;
                    });
  out->clear();
  for (PointId p : ws.touched) {
    if (out->size() == static_cast<size_t>(k)) {
      break;
    }
    if (p != exclude) {
      out->push_back(core::NnResult{p, ws.point_node[p],
                                    ws.point_dist.Get(p)});
    }
  }
}

/// Pruning bound of a kNN sweep: the k-th smallest distance found so far
/// over k distinct points (each at least its exact distance), so never
/// below the true k-th; infinity while fewer than k are known.
Weight NearestBound(const LabelWorkspace& ws, size_t k) {
  return ws.nearest.size() == k ? ws.nearest.back().first : kInfinity;
}

/// Accumulates distance `d` of point p as the sweeps do, and keeps
/// ws.nearest the k smallest (distance, id) pairs over points other than
/// `exclude`: a point whose distance shrinks moves up, or enters when
/// it beats the k-th.
void OfferNearest(PointId p, NodeId node, Weight d, size_t k,
                  PointId exclude, LabelWorkspace& ws) {
  if (!Accumulate({0, p, node}, d, ws) || p == exclude) {
    return;
  }
  std::vector<std::pair<Weight, PointId>>& best = ws.nearest;
  const std::pair<Weight, PointId> entry{d, p};
  auto it = std::find_if(best.begin(), best.end(),
                         [p](const auto& e) { return e.second == p; });
  if (it != best.end()) {
    best.erase(it);
  } else if (best.size() == k) {
    if (!(entry < best.back())) {
      return;
    }
    best.pop_back();
  }
  best.insert(std::lower_bound(best.begin(), best.end(), entry), entry);
}

/// The pruned kNN sweep (ws reset, and possibly seeded, by the caller;
/// ws.hub_order holds the source's (distance, hub) label entries): hubs
/// in ascending distance; a run ends at the first entry past the bound,
/// the sweep at the first hub past it.
void NearestSweep(const HubPointIndex& points, size_t k, PointId exclude,
                  LabelWorkspace& ws, core::SearchStats* stats) {
  obs::ScopedSpan span(obs::CurrentTrace(), "hub.sweep");
  const uint64_t entries_before = stats->label_entries;
  std::sort(ws.hub_order.begin(), ws.hub_order.end());
  for (const auto& [base, hub] : ws.hub_order) {
    if (base > NearestBound(ws, k)) {
      break;
    }
    for (const HubPointIndex::Entry& occ : points.ListOf(hub)) {
      const Weight ub = base + occ.dist;
      stats->label_entries++;
      if (ub > NearestBound(ws, k)) {
        break;
      }
      OfferNearest(occ.point, occ.node, ub, k, exclude, ws);
    }
  }
  NoteSweep(span, stats->label_entries - entries_before, 0, ws);
}

}  // namespace

Status KnnViaLabelsInto(const LabelStore& labels,
                        const HubPointIndex& points, NodeId source, int k,
                        PointId exclude, LabelWorkspace& ws,
                        std::vector<core::NnResult>* out,
                        core::SearchStats* stats) {
  core::SearchStats local;
  GRNN_RETURN_NOT_OK(
      ValidateQuery(labels, points, points, {&source, 1}, k));
  ResetSweep(points.point_id_bound(), ws);
  ws.nearest.clear();
  ws.hub_order.clear();
  GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> label,
                        labels.Scan(source, ws.cursor));
  for (const HubEntry& e : label) {
    ws.hub_order.emplace_back(e.dist, e.hub);
  }
  ws.ReleaseLeases();
  NearestSweep(points, static_cast<size_t>(k), exclude, ws, &local);
  if (stats != nullptr) {
    *stats += local;
  }
  TakeNearest(ws, k, exclude, out);
  return Status::OK();
}

Status KnnViaLabelsInto(const LabelStore& labels,
                        const core::EdgePointSet& points,
                        const HubPointIndex& index,
                        const core::EdgePosition& pos, Weight edge_weight,
                        int k, PointId exclude, LabelWorkspace& ws,
                        std::vector<core::NnResult>* out,
                        core::SearchStats* stats) {
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (index.num_hubs() != labels.num_nodes() ||
      pos.u >= labels.num_nodes() || pos.v >= labels.num_nodes()) {
    return Status::InvalidArgument(
        "edge position or point index outside the label universe");
  }
  core::SearchStats local;
  ResetSweep(std::max(index.point_id_bound(), points.point_id_bound()), ws);
  ws.nearest.clear();
  const size_t kk = static_cast<size_t>(k);
  // The direct segment to same-edge points first: the only path the
  // endpoint cover cannot see, and an early bound.
  for (const storage::EdgePointRecord& r :
       points.PointsOnEdge(pos.u, pos.v)) {
    OfferNearest(r.point, pos.u, std::abs(r.pos - pos.pos), kk, exclude,
                 ws);
  }
  ws.hub_order.clear();
  GRNN_RETURN_NOT_OK(WalkVirtualLabel(labels, pos, edge_weight, ws.cursor,
                                      [&](NodeId hub, Weight base) {
                                        ws.hub_order.emplace_back(base, hub);
                                        return true;
                                      }));
  ws.ReleaseLeases();
  NearestSweep(index, kk, exclude, ws, &local);
  if (stats != nullptr) {
    *stats += local;
  }
  TakeNearest(ws, k, exclude, out);
  return Status::OK();
}

Result<core::RknnResult> RknnViaLabels(const LabelStore& labels,
                                       const HubPointIndex& candidates,
                                       const HubPointIndex& competitors,
                                       std::span<const NodeId> query_nodes,
                                       const core::RknnOptions& options,
                                       LabelWorkspace& ws,
                                       const RknnBounds* bounds) {
  GRNN_RETURN_NOT_OK(ValidateQuery(labels, candidates, competitors,
                                   query_nodes, options.k));
  GRNN_ASSIGN_OR_RETURN(const RknnBounds* bounded,
                        BoundsFor(labels, bounds, options.k));
  // Monochromatic queries pass one index for both roles: candidates
  // then skip the excluded point and never compete against themselves.
  // Bichromatic queries pass distinct indices whose id spaces are
  // unrelated, so only the competitor side honours the exclusion —
  // object identity is the discriminator, exactly mirroring the
  // brute-force oracle's two loops.
  const bool same_population = &candidates == &competitors;

  core::RknnResult out;
  GRNN_RETURN_NOT_OK(SweepPointDistances(labels, candidates, query_nodes,
                                         bounded, ws, &out.stats));

  const size_t k = static_cast<size_t>(options.k);
  obs::ScopedSpan verify(obs::CurrentTrace(), "hub.verify");
  const uint64_t verify_entries_before = out.stats.label_entries;
  for (const PointId p : ws.touched) {
    if (same_population && p == options.exclude_point) {
      continue;
    }
    const Weight d_query = ws.point_dist.Get(p);
    out.stats.verify_calls++;
    bool reported;
    if (bounded != nullptr) {
      reported = !DistLess(
          bounded->Threshold(p, options.k, options.exclude_point), d_query);
    } else {
      // Count competitors strictly closer to p than the query, walking
      // the competitor runs of p's own hubs. Each run is sorted by
      // d(h, c), so the first entry whose bound d(p,h) + d(h,c) is no
      // longer DistLess(d_query) ends the run: bounds only grow, and a
      // competitor whose EXACT distance qualifies is counted through
      // the hub witnessing that distance.
      ws.counted.Reset(competitors.point_id_bound());
      size_t closer = 0;
      GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> label,
                            labels.Scan(ws.point_node[p], ws.cursor));
      for (const HubEntry& e : label) {
        if (closer >= k) {
          break;
        }
        for (const HubPointIndex::Entry& occ :
             competitors.ListOf(e.hub)) {
          out.stats.label_entries++;
          if (!DistLess(e.dist + occ.dist, d_query)) {
            break;
          }
          const PointId c = occ.point;
          if ((same_population && c == p) ||
              c == options.exclude_point || ws.counted.Contains(c)) {
            continue;
          }
          ws.counted.Insert(c);
          if (++closer >= k) {
            break;
          }
        }
      }
      reported = closer < k;
    }
    if (reported) {
      out.results.push_back(
          core::PointMatch{p, ws.point_node[p], d_query});
    }
  }
  if (verify.armed()) {
    verify.Note("verify_calls", out.stats.verify_calls);
    verify.Note("label_entries",
                out.stats.label_entries - verify_entries_before);
    verify.Note("results", out.results.size());
    verify.Note("bounded", bounded != nullptr ? 1 : 0);
  }
  ws.ReleaseLeases();
  SortResults(out);
  return out;
}

namespace {

/// Weight of edge (u, v) through the view; NotFound when absent.
Result<Weight> ViewEdgeWeightFor(const graph::NetworkView& g, NodeId u,
                                 NodeId v,
                                 graph::NeighborCursor& cursor) {
  GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs, g.Scan(u, cursor));
  for (const AdjEntry& e : nbrs) {
    if (e.node == v) {
      return e.weight;
    }
  }
  return Status::NotFound("query position names a nonexistent edge");
}

}  // namespace

Result<core::RknnResult> UnrestrictedRknnViaLabels(
    const LabelStore& labels, const graph::NetworkView& g,
    const core::EdgePointSet& points, const HubPointIndex& index,
    const core::UnrestrictedQuery& query, const core::RknnOptions& options,
    LabelWorkspace& ws, graph::NeighborCursor& nbr_cursor,
    const RknnBounds* bounds) {
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (index.num_hubs() != labels.num_nodes()) {
    return Status::InvalidArgument(
        "point index does not cover the label store's node universe");
  }
  GRNN_ASSIGN_OR_RETURN(const RknnBounds* bounded,
                        BoundsFor(labels, bounds, options.k));
  core::UnrestrictedQuery q = query;
  Weight qw = 0;
  if (q.is_position) {
    if (q.position.u >= labels.num_nodes() ||
        q.position.v >= labels.num_nodes() ||
        q.position.u == q.position.v) {
      return Status::InvalidArgument("invalid query position");
    }
    GRNN_ASSIGN_OR_RETURN(qw, ViewEdgeWeightFor(g, q.position.u,
                                                q.position.v, nbr_cursor));
    if (q.position.u > q.position.v) {
      q.position = core::EdgePosition{q.position.v, q.position.u,
                                      qw - q.position.pos};
    }
    if (q.position.pos < 0 || q.position.pos > qw) {
      return Status::InvalidArgument("query position outside edge");
    }
  } else {
    if (q.route.empty()) {
      return Status::InvalidArgument("route is empty");
    }
    for (NodeId n : q.route) {
      if (n >= labels.num_nodes()) {
        return Status::OutOfRange("route node out of range");
      }
    }
  }

  core::RknnResult out;
  const PointId bound =
      std::max(index.point_id_bound(), points.point_id_bound());
  if (q.is_position) {
    GRNN_RETURN_NOT_OK(SweepEdgePosition(labels, points, index, q.position,
                                         qw, bounded, ws, &out.stats));
  } else {
    // Route queries sweep per route NODE; node-to-interior-position
    // distances carry no same-edge case (the query sits on nodes), so
    // the restricted sweep over the edge-point occurrence index is
    // already exact.
    GRNN_RETURN_NOT_OK(SweepPointDistances(labels, index, q.route, bounded,
                                           ws, &out.stats));
  }

  const size_t k = static_cast<size_t>(options.k);
  obs::ScopedSpan verify(obs::CurrentTrace(), "hub.verify");
  const uint64_t verify_entries_before = out.stats.label_entries;
  for (const PointId p : ws.touched) {
    if (p == options.exclude_point || !points.IsLive(p)) {
      continue;
    }
    const Weight d_query = ws.point_dist.Get(p);
    out.stats.verify_calls++;
    const core::EdgePosition& ppos = points.PositionOf(p);
    if (bounded != nullptr) {
      if (!DistLess(bounded->Threshold(p, options.k, options.exclude_point),
                    d_query)) {
        out.results.push_back(core::PointMatch{p, ppos.u, d_query});
      }
      continue;
    }
    ws.counted.Reset(bound);
    size_t closer = 0;
    // Same-edge competitors first: their direct-segment distance is
    // invisible to the hub walk below.
    for (const storage::EdgePointRecord& r :
         points.PointsOnEdge(ppos.u, ppos.v)) {
      if (closer >= k) {
        break;
      }
      const PointId c = r.point;
      if (c == p || c == options.exclude_point || ws.counted.Contains(c)) {
        continue;
      }
      if (DistLess(std::abs(r.pos - ppos.pos), d_query)) {
        ws.counted.Insert(c);
        ++closer;
      }
    }
    // Hub walk over the candidate's virtual label. Runs are
    // (dist, point)-sorted, so each ends at the first bound past
    // d_query; a competitor whose exact distance qualifies is counted
    // through the hub witnessing it (or the direct pass above).
    if (closer < k) {
      GRNN_RETURN_NOT_OK(WalkVirtualLabel(
          labels, ppos, points.EdgeWeightOfPoint(p), ws.cursor,
          [&](NodeId hub, Weight base) {
            for (const HubPointIndex::Entry& occ : index.ListOf(hub)) {
              out.stats.label_entries++;
              if (!DistLess(base + occ.dist, d_query)) {
                break;
              }
              const PointId c = occ.point;
              if (c == p || c == options.exclude_point ||
                  ws.counted.Contains(c)) {
                continue;
              }
              ws.counted.Insert(c);
              if (++closer >= k) {
                return false;
              }
            }
            return true;
          }));
    }
    if (closer < k) {
      out.results.push_back(core::PointMatch{p, ppos.u, d_query});
    }
  }
  if (verify.armed()) {
    verify.Note("verify_calls", out.stats.verify_calls);
    verify.Note("label_entries",
                out.stats.label_entries - verify_entries_before);
    verify.Note("results", out.results.size());
    verify.Note("bounded", bounded != nullptr ? 1 : 0);
  }
  ws.ReleaseLeases();
  SortResults(out);
  return out;
}

}  // namespace grnn::index
