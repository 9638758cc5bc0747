#include "index/rknn_bounds.h"

#include <algorithm>
#include <functional>

#include "common/thread_pool.h"

namespace grnn::index {

namespace {

constexpr int kDepthK = static_cast<int>(RknnBounds::kDepth);

/// The canonical list order: (dist, point).
bool CompetitorLess(const RknnBounds::Competitor& a,
                    const RknnBounds::Competitor& b) {
  return a.dist != b.dist ? a.dist < b.dist : a.point < b.point;
}

bool Holds(std::span<const RknnBounds::Competitor> list, PointId y) {
  return std::any_of(list.begin(), list.end(),
                     [y](const RknnBounds::Competitor& c) {
                       return c.point == y;
                     });
}

Status CheckUniverse(const LabelStore& labels, NodeId num_hubs,
                     const HubPointIndex& candidates,
                     const HubPointIndex& competitors) {
  if (num_hubs != labels.num_nodes() ||
      candidates.num_hubs() != labels.num_nodes() ||
      competitors.num_hubs() != labels.num_nodes()) {
    return Status::InvalidArgument(
        "competitor bounds do not cover the label store's node universe");
  }
  return Status::OK();
}

/// kDepth nearest competitors of edge point `p`, itself left out.
Status EdgeList(const LabelStore& labels, const core::EdgePointSet& points,
                const HubPointIndex& index, PointId p, LabelWorkspace& ws,
                std::vector<core::NnResult>* out) {
  return KnnViaLabelsInto(labels, points, index, points.PositionOf(p),
                          points.EdgeWeightOfPoint(p), kDepthK, p, ws, out);
}

/// Runs `fill(ws, nn, i)` for every i in [0, n), over the pool's workers
/// (one workspace each) or serially; returns the lowest-index failure.
Status ForEachIndex(
    common::ThreadPool* pool, size_t n,
    const std::function<Status(LabelWorkspace&, std::vector<core::NnResult>&,
                               size_t)>& fill) {
  if (pool == nullptr || pool->num_threads() <= 1 || n <= 1) {
    LabelWorkspace ws;
    std::vector<core::NnResult> nn;
    for (size_t i = 0; i < n; ++i) {
      GRNN_RETURN_NOT_OK(fill(ws, nn, i));
    }
    return Status::OK();
  }
  const size_t workers = static_cast<size_t>(pool->num_threads());
  std::vector<LabelWorkspace> wss(workers);
  std::vector<std::vector<core::NnResult>> nns(workers);
  std::vector<Status> errors(n, Status::OK());
  pool->ParallelFor(n, [&](int worker, size_t i) {
    const size_t w = static_cast<size_t>(worker);
    errors[i] = fill(wss[w], nns[w], i);
  });
  for (const Status& s : errors) {
    GRNN_RETURN_NOT_OK(s);
  }
  return Status::OK();
}

}  // namespace

/// Copy-on-write writer for one maintenance call: the first write to a
/// chunk clones it (or creates it), later writes in the same call go to
/// that private clone. Chunks shared with copies are never written.
class RknnBounds::Patch {
 public:
  explicit Patch(RknnBounds& b)
      : b_(b),
        fresh_lists_(b.lists_.size(), false),
        fresh_cuts_(b.cuts_.size(), false) {}

  List& MutableList(PointId p) {
    const size_t c = p / kListChunk;
    if (c >= b_.lists_.size()) {
      b_.lists_.resize(c + 1);
      fresh_lists_.resize(c + 1, false);
    }
    std::shared_ptr<ListChunk>& chunk = b_.lists_[c];
    if (!fresh_lists_[c]) {
      chunk = chunk == nullptr ? std::make_shared<ListChunk>()
                               : std::make_shared<ListChunk>(*chunk);
      fresh_lists_[c] = true;
    }
    return (*chunk)[p % kListChunk];
  }

  void SetCut(NodeId hub, Weight w) {
    if (b_.cut(hub) == w) {
      return;
    }
    const size_t c = hub / kCutChunk;
    std::shared_ptr<CutChunk>& chunk = b_.cuts_[c];
    if (!fresh_cuts_[c]) {
      chunk = chunk == nullptr ? std::make_shared<CutChunk>()
                               : std::make_shared<CutChunk>(*chunk);
      fresh_cuts_[c] = true;
    }
    (*chunk)[hub % kCutChunk] = w;
  }

 private:
  RknnBounds& b_;
  std::vector<bool> fresh_lists_;
  std::vector<bool> fresh_cuts_;
};

namespace {

void WriteList(const std::vector<core::NnResult>& nn,
               std::span<RknnBounds::Competitor> entries, uint32_t* size) {
  std::fill(entries.begin(), entries.end(), RknnBounds::Competitor{});
  for (size_t i = 0; i < nn.size(); ++i) {
    entries[i] = RknnBounds::Competitor{nn[i].dist, nn[i].point};
  }
  *size = static_cast<uint32_t>(nn.size());
}

}  // namespace

Result<RknnBounds> RknnBounds::Build(const LabelStore& labels,
                                     const core::NodePointSet& candidates,
                                     const HubPointIndex& candidate_index,
                                     const HubPointIndex& competitor_index,
                                     common::ThreadPool* pool) {
  RknnBounds b;
  b.num_hubs_ = labels.num_nodes();
  GRNN_RETURN_NOT_OK(
      CheckUniverse(labels, b.num_hubs_, candidate_index, competitor_index));
  const bool same_population = &candidate_index == &competitor_index;
  const std::vector<PointId> live = candidates.LivePoints();
  // Every chunk a live candidate needs exists before the (parallel)
  // fill, so workers only write their own slots.
  Patch patch(b);
  for (PointId p : live) {
    patch.MutableList(p);
  }
  GRNN_RETURN_NOT_OK(ForEachIndex(
      pool, live.size(),
      [&](LabelWorkspace& ws, std::vector<core::NnResult>& nn, size_t i) {
        const PointId p = live[i];
        GRNN_RETURN_NOT_OK(KnnViaLabelsInto(
            labels, competitor_index, candidates.NodeOf(p), kDepthK,
            same_population ? p : kInvalidPoint, ws, &nn));
        List& list = (*b.lists_[p / kListChunk])[p % kListChunk];
        WriteList(nn, list.entries, &list.size);
        return Status::OK();
      }));
  b.InitCuts(candidate_index);
  return b;
}

Result<RknnBounds> RknnBounds::Build(const LabelStore& labels,
                                     const core::EdgePointSet& points,
                                     const HubPointIndex& index,
                                     common::ThreadPool* pool) {
  RknnBounds b;
  b.num_hubs_ = labels.num_nodes();
  GRNN_RETURN_NOT_OK(CheckUniverse(labels, b.num_hubs_, index, index));
  const std::vector<PointId> live = points.LivePoints();
  Patch patch(b);
  for (PointId p : live) {
    patch.MutableList(p);
  }
  GRNN_RETURN_NOT_OK(ForEachIndex(
      pool, live.size(),
      [&](LabelWorkspace& ws, std::vector<core::NnResult>& nn, size_t i) {
        const PointId p = live[i];
        GRNN_RETURN_NOT_OK(EdgeList(labels, points, index, p, ws, &nn));
        List& list = (*b.lists_[p / kListChunk])[p % kListChunk];
        WriteList(nn, list.entries, &list.size);
        return Status::OK();
      }));
  b.InitCuts(index);
  return b;
}

size_t RknnBounds::num_chunks() const {
  const auto allocated = [](const auto& chunks) {
    return static_cast<size_t>(std::count_if(
        chunks.begin(), chunks.end(),
        [](const auto& c) { return c != nullptr; }));
  };
  return allocated(lists_) + allocated(cuts_);
}

size_t RknnBounds::SharedChunks(const RknnBounds& other) const {
  const auto shared = [](const auto& a, const auto& b) {
    size_t n = 0;
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      n += a[i] != nullptr && a[i] == b[i];
    }
    return n;
  };
  return shared(lists_, other.lists_) + shared(cuts_, other.cuts_);
}

Weight RknnBounds::Depth(PointId p) const {
  const List* list = FindList(p);
  if (list == nullptr || list->size < kDepth) {
    return kInfinity;
  }
  return list->entries[kDepth - 1].dist;
}

Weight RknnBounds::ComputeCut(const HubPointIndex& candidates,
                              NodeId hub) const {
  Weight cut = 0;
  for (const HubPointIndex::Entry& occ : candidates.ListOf(hub)) {
    cut = std::max(cut, Depth(occ.point));
  }
  return cut;
}

void RknnBounds::InitCuts(const HubPointIndex& candidates) {
  cuts_.assign((num_hubs_ + kCutChunk - 1) / kCutChunk, nullptr);
  Patch patch(*this);
  for (NodeId h = 0; h < num_hubs_; ++h) {
    patch.SetCut(h, ComputeCut(candidates, h));
  }
}

Status RknnBounds::ApplyCutChanges(const LabelStore& labels,
                                   const HubPointIndex& candidates,
                                   std::span<const Change> changes,
                                   Patch& patch, LabelWorkspace& ws) {
  // cut(h) is a max over h's run. A deeper list can only raise it (the
  // running max is exact); a shallower list lowers it only when it held
  // the max, and then the run is recomputed once every list is final.
  std::vector<NodeId> recompute;
  for (const Change& ch : changes) {
    if (ch.after == ch.before) {
      continue;
    }
    for (const NodeId n : {ch.u, ch.v}) {
      if (n == kInvalidNode) {
        continue;
      }
      GRNN_ASSIGN_OR_RETURN(std::span<const HubEntry> label,
                            labels.Scan(n, ws.cursor));
      for (const HubEntry& e : label) {
        const Weight c = cut(e.hub);
        if (ch.after >= ch.before) {
          if (ch.after > c) {
            patch.SetCut(e.hub, ch.after);
          }
        } else if (c == ch.before) {
          recompute.push_back(e.hub);
        }
      }
    }
  }
  ws.ReleaseLeases();
  std::sort(recompute.begin(), recompute.end());
  recompute.erase(std::unique(recompute.begin(), recompute.end()),
                  recompute.end());
  for (NodeId h : recompute) {
    patch.SetCut(h, ComputeCut(candidates, h));
  }
  return Status::OK();
}

namespace {

/// Inserts `entry` at its (dist, id) rank, dropping the last entry of a
/// full list. The caller checked that `entry` beats it.
void JoinList(RknnBounds::Competitor entry,
              std::span<RknnBounds::Competitor> entries, uint32_t* size) {
  const size_t n = *size;
  size_t at = n;
  while (at > 0 && CompetitorLess(entry, entries[at - 1])) {
    if (at < entries.size()) {
      entries[at] = entries[at - 1];
    }
    --at;
  }
  entries[at] = entry;
  if (n < entries.size()) {
    *size = static_cast<uint32_t>(n + 1);
  }
}

}  // namespace

/// One pairing as the maintenance routines see it: how a candidate's
/// hubs are reached and how its list is computed from scratch.
struct RknnBounds::Population {
  const LabelStore& labels;
  const HubPointIndex& candidates;
  const HubPointIndex& competitors;
  /// Non-null for the edge-resident (E|E) pairing.
  const core::EdgePointSet* edge_points = nullptr;

  bool same() const { return &candidates == &competitors; }

  /// Whether swept point `p` is a candidate whose list `y` may enter.
  bool Eligible(PointId p, PointId y) const {
    if (edge_points != nullptr) {
      return p != y && edge_points->IsLive(p);
    }
    return !(same() && p == y);
  }

  /// Where p's hubs come from: its node (as the sweep recorded it), or
  /// both endpoints of its edge.
  std::pair<NodeId, NodeId> SourceOf(PointId p, NodeId swept_node) const {
    if (edge_points != nullptr) {
      const core::EdgePosition& pos = edge_points->PositionOf(p);
      return {pos.u, pos.v};
    }
    return {swept_node, kInvalidNode};
  }

  /// The kDepth nearest competitors of candidate `p` on `node`.
  Status ComputeList(PointId p, NodeId node, LabelWorkspace& ws,
                     std::vector<core::NnResult>* nn) const {
    if (edge_points != nullptr) {
      return EdgeList(labels, *edge_points, candidates, p, ws, nn);
    }
    return KnnViaLabelsInto(labels, competitors, node, kDepthK,
                            same() ? p : kInvalidPoint, ws, nn);
  }
};

void RknnBounds::JoinSwept(const Population& pop, PointId y, Patch& patch,
                           const LabelWorkspace& ws,
                           std::vector<Change>* changes) {
  // y joins exactly the lists whose kDepth-th entry it beats. Such a
  // list's witness entry is within its depth, hence within the cut, so
  // the cut sweep from y reached every one of them at its exact
  // distance (d(y,p) sums the same two label entries as d(p,y)).
  for (PointId p : ws.touched) {
    if (!pop.Eligible(p, y)) {
      continue;
    }
    const Competitor entry{ws.point_dist.Get(p), y};
    const std::span<const Competitor> old = ListOf(p);
    if (old.size() == kDepth && !CompetitorLess(entry, old.back())) {
      continue;
    }
    const Weight before = Depth(p);
    List& list = patch.MutableList(p);
    JoinList(entry, list.entries, &list.size);
    const auto [u, v] = pop.SourceOf(p, ws.point_node[p]);
    changes->push_back({u, v, before, Depth(p)});
  }
}

Status RknnBounds::RewriteHolders(const Population& pop, PointId y,
                                  Patch& patch, LabelWorkspace& ws,
                                  std::vector<Change>* changes) {
  // Every list holding y had d(p,y) within its depth: the cut sweep
  // from y (in ws) reached all of them. Their successors come from a
  // fresh kNN over the competitors, which no longer hold y.
  std::vector<std::pair<PointId, NodeId>> holders;
  for (PointId p : ws.touched) {
    if (pop.Eligible(p, y) && Holds(ListOf(p), y)) {
      holders.emplace_back(p, ws.point_node[p]);
    }
  }
  std::vector<core::NnResult> nn;
  for (const auto& [p, node] : holders) {
    const Weight before = Depth(p);
    GRNN_RETURN_NOT_OK(pop.ComputeList(p, node, ws, &nn));
    List& list = patch.MutableList(p);
    WriteList(nn, list.entries, &list.size);
    const auto [u, v] = pop.SourceOf(p, node);
    changes->push_back({u, v, before, Depth(p)});
  }
  return Status::OK();
}

Status RknnBounds::InsertPoint(const LabelStore& labels,
                               const HubPointIndex& candidates,
                               const HubPointIndex& competitors, PointId y,
                               NodeId node, Role role, LabelWorkspace& ws) {
  GRNN_RETURN_NOT_OK(CheckUniverse(labels, num_hubs_, candidates, competitors));
  if (node >= labels.num_nodes()) {
    return Status::OutOfRange("host node outside the label universe");
  }
  const Population pop{labels, candidates, competitors};
  Patch patch(*this);
  std::vector<Change> changes;
  if ((role & kCompetitor) != 0) {
    core::SearchStats stats;
    GRNN_RETURN_NOT_OK(
        SweepPointDistances(labels, candidates, {&node, 1}, this, ws, &stats));
    JoinSwept(pop, y, patch, ws, &changes);
  }
  if ((role & kCandidate) != 0) {
    std::vector<core::NnResult> nn;
    GRNN_RETURN_NOT_OK(pop.ComputeList(y, node, ws, &nn));
    List& list = patch.MutableList(y);
    WriteList(nn, list.entries, &list.size);
    changes.push_back({node, kInvalidNode, -kInfinity, Depth(y)});
  }
  ws.ReleaseLeases();
  return ApplyCutChanges(labels, candidates, changes, patch, ws);
}

Status RknnBounds::ErasePoint(const LabelStore& labels,
                              const HubPointIndex& candidates,
                              const HubPointIndex& competitors, PointId y,
                              NodeId node, Role role, LabelWorkspace& ws) {
  GRNN_RETURN_NOT_OK(CheckUniverse(labels, num_hubs_, candidates, competitors));
  if (node >= labels.num_nodes()) {
    return Status::OutOfRange("host node outside the label universe");
  }
  const Population pop{labels, candidates, competitors};
  Patch patch(*this);
  std::vector<Change> changes;
  if ((role & kCandidate) != 0) {
    changes.push_back({node, kInvalidNode, Depth(y), -kInfinity});
    patch.MutableList(y) = List{};
  }
  if ((role & kCompetitor) != 0) {
    core::SearchStats stats;
    GRNN_RETURN_NOT_OK(
        SweepPointDistances(labels, candidates, {&node, 1}, this, ws, &stats));
    GRNN_RETURN_NOT_OK(RewriteHolders(pop, y, patch, ws, &changes));
  }
  ws.ReleaseLeases();
  return ApplyCutChanges(labels, candidates, changes, patch, ws);
}

Status RknnBounds::InsertEdgePoint(const LabelStore& labels,
                                   const core::EdgePointSet& points,
                                   const HubPointIndex& index, PointId y,
                                   LabelWorkspace& ws) {
  GRNN_RETURN_NOT_OK(CheckUniverse(labels, num_hubs_, index, index));
  if (!points.IsLive(y)) {
    return Status::InvalidArgument("inserted edge point is not live");
  }
  const Population pop{labels, index, index, &points};
  const core::EdgePosition pos = points.PositionOf(y);
  Patch patch(*this);
  std::vector<Change> changes;
  core::SearchStats stats;
  GRNN_RETURN_NOT_OK(SweepEdgePosition(labels, points, index, pos,
                                       points.EdgeWeightOfPoint(y), this, ws,
                                       &stats));
  JoinSwept(pop, y, patch, ws, &changes);
  std::vector<core::NnResult> nn;
  GRNN_RETURN_NOT_OK(pop.ComputeList(y, pos.u, ws, &nn));
  List& list = patch.MutableList(y);
  WriteList(nn, list.entries, &list.size);
  changes.push_back({pos.u, pos.v, -kInfinity, Depth(y)});
  ws.ReleaseLeases();
  return ApplyCutChanges(labels, index, changes, patch, ws);
}

Status RknnBounds::EraseEdgePoint(const LabelStore& labels,
                                  const core::EdgePointSet& points,
                                  const HubPointIndex& index, PointId y,
                                  const core::EdgePosition& pos,
                                  Weight edge_weight, LabelWorkspace& ws) {
  GRNN_RETURN_NOT_OK(CheckUniverse(labels, num_hubs_, index, index));
  if (pos.u >= labels.num_nodes() || pos.v >= labels.num_nodes()) {
    return Status::InvalidArgument(
        "edge position endpoints outside the label universe");
  }
  const Population pop{labels, index, index, &points};
  Patch patch(*this);
  std::vector<Change> changes{{pos.u, pos.v, Depth(y), -kInfinity}};
  patch.MutableList(y) = List{};
  core::SearchStats stats;
  GRNN_RETURN_NOT_OK(SweepEdgePosition(labels, points, index, pos,
                                       edge_weight, this, ws, &stats));
  GRNN_RETURN_NOT_OK(RewriteHolders(pop, y, patch, ws, &changes));
  ws.ReleaseLeases();
  return ApplyCutChanges(labels, index, changes, patch, ws);
}

}  // namespace grnn::index
