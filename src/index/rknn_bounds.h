// Copyright (c) GRNN authors.
// RknnBounds: ReHub's precomputed competitor distances (PAPERS.md) for
// one pairing of a candidate population with a competitor population
// over a hub labeling. For every live candidate p it keeps the
// kDepth = kBoundedK + 1 nearest competitors as (dist, id), in
// (dist, id) order (p itself left out when both populations are the
// same); for every hub h it keeps cut(h), the largest kDepth-th distance
// over the candidates in h's HubPointIndex run — kInfinity when one of
// them reaches fewer than kDepth competitors.
//
// For k <= kBoundedK these bounds turn RknnViaLabels and
// UnrestrictedRknnViaLabels (index/hub_rknn.h) into a cut sweep plus a
// list lookup:
//
//   * p is a reverse k-nearest neighbour of q iff
//     !DistLess(T_k(p), d(q, p)), where T_k(p) is the k-th distance of
//     p's list once the query's excluded point is skipped (kInfinity when
//     the list runs out) — exactly the verify walk's decision, because
//     the list holds the same distances the walk computes;
//   * T_k(p) <= cut(h) for every hub h of p (k + 1 <= kDepth), so the
//     sweep skips a run when DistLess(cut(h), d(q, h)) and ends a walk at
//     the first entry with DistLess(cut(h), d(q, h) + d(h, p)). A
//     qualifying p's witness entry equals d(q, p) and DistLess is
//     monotone in both arguments, so that entry is never cut and p keeps
//     its exact distance; a point whose witness is cut cannot qualify.
//
// Distances are summed exactly as the verify walk sums them
// (label entry + occurrence, edge offsets added to the label entry
// first), so both paths give identical answers.
//
// The bounds are DERIVED state, maintained incrementally after the
// HubPointIndex patch of each update: an inserted competitor joins the
// lists a cut sweep from it reaches; an erased competitor's holders
// (found by the same sweep) are recomputed with KnnViaLabelsInto; cut(h)
// follows for the hubs of every changed list. The result is bit-for-bit
// what Build gives over the updated sets. Lists and cuts live in
// fixed-size chunks behind shared_ptr: a copy shares every chunk and a
// patch clones only the chunks it writes (copy-on-write per chunk, as
// HubPointIndex does per run).

#ifndef GRNN_INDEX_RKNN_BOUNDS_H_
#define GRNN_INDEX_RKNN_BOUNDS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/point_set.h"
#include "core/unrestricted.h"
#include "index/hub_label.h"
#include "index/hub_point_index.h"
#include "index/hub_rknn.h"

namespace grnn::index {

/// Largest k the bounded path serves: the largest k in the paper's
/// figures. Larger k take the sweep-and-verify walk.
inline constexpr int kBoundedK = 16;

/// \brief Competitor lists and per-hub cuts for one (candidate |
/// competitor) pairing; copy-on-write per chunk.
class RknnBounds {
 public:
  /// Competitors kept per candidate.
  static constexpr size_t kDepth = kBoundedK + 1;
  /// Copy-on-write granularity: candidate lists and hub cuts per chunk.
  static constexpr size_t kListChunk = 16;
  static constexpr size_t kCutChunk = 256;

  struct Competitor {
    Weight dist = 0;
    PointId point = kInvalidPoint;

    friend bool operator==(const Competitor&, const Competitor&) = default;
  };

  /// The sides of the pairing an updated node point belongs to.
  enum Role : unsigned {
    kCandidate = 1,
    kCompetitor = 2,
    kBoth = kCandidate | kCompetitor,
  };

  RknnBounds() = default;

  /// Node populations: lists for every live point of `candidates`
  /// against `competitor_index`; cuts over `candidate_index` (built over
  /// `candidates`). Pass the same index twice for one population (each
  /// candidate then leaves itself out). A non-null `pool` computes the
  /// lists in parallel; the result is identical to a serial build.
  static Result<RknnBounds> Build(const LabelStore& labels,
                                  const core::NodePointSet& candidates,
                                  const HubPointIndex& candidate_index,
                                  const HubPointIndex& competitor_index,
                                  common::ThreadPool* pool = nullptr);

  /// Edge-resident population, competing against itself (E|E): lists
  /// from each point's virtual label plus its same-edge neighbours.
  static Result<RknnBounds> Build(const LabelStore& labels,
                                  const core::EdgePointSet& points,
                                  const HubPointIndex& index,
                                  common::ThreadPool* pool = nullptr);

  /// Largest kDepth-th competitor distance over the candidates of `hub`'s
  /// run (kInfinity if one has fewer than kDepth competitors; 0 for an
  /// empty run).
  Weight cut(NodeId hub) const {
    const CutChunk* chunk = cuts_[hub / kCutChunk].get();
    return chunk == nullptr ? 0 : (*chunk)[hub % kCutChunk];
  }

  /// Competitor list of candidate `p`, ascending by (dist, id); empty
  /// for ids that are not live candidates.
  std::span<const Competitor> ListOf(PointId p) const {
    const List* list = FindList(p);
    return list == nullptr
               ? std::span<const Competitor>()
               : std::span<const Competitor>(list->entries.data(),
                                             list->size);
  }

  /// T_k(p): the k-th distance of p's list with `skip` left out;
  /// kInfinity when the list runs out. Requires 1 <= k <= kBoundedK.
  Weight Threshold(PointId p, int k, PointId skip) const {
    int seen = 0;
    for (const Competitor& c : ListOf(p)) {
      if (c.point != skip && ++seen == k) {
        return c.dist;
      }
    }
    return kInfinity;
  }

  NodeId num_hubs() const { return num_hubs_; }
  /// Allocated list and cut chunks, and how many of them this object
  /// physically shares with `other` (copy-on-write diagnostics).
  size_t num_chunks() const;
  size_t SharedChunks(const RknnBounds& other) const;
  /// Upper bound over the candidate ids with a list slot.
  PointId point_id_bound() const {
    return static_cast<PointId>(lists_.size() * kListChunk);
  }

  // --- Incremental maintenance ------------------------------------------
  // Call AFTER the HubPointIndex patch of the same update: `candidates`
  // and `competitors` (or `index`) already reflect it. Each call yields
  // the bounds Build gives over the updated populations. A failure
  // leaves a partial patch behind; the engine then marks its hub state
  // stale.

  /// Node point `y` on `node` joined the population(s) named by `role`.
  Status InsertPoint(const LabelStore& labels,
                     const HubPointIndex& candidates,
                     const HubPointIndex& competitors, PointId y,
                     NodeId node, Role role, LabelWorkspace& ws);
  /// Node point `y` that lived on `node` left the population(s) named
  /// by `role`.
  Status ErasePoint(const LabelStore& labels,
                    const HubPointIndex& candidates,
                    const HubPointIndex& competitors, PointId y,
                    NodeId node, Role role, LabelWorkspace& ws);
  /// Edge point `y` (live in `points`) joined the E|E population.
  Status InsertEdgePoint(const LabelStore& labels,
                         const core::EdgePointSet& points,
                         const HubPointIndex& index, PointId y,
                         LabelWorkspace& ws);
  /// Edge point `y` that lived at `pos` (captured before the set
  /// removal) left the E|E population.
  Status EraseEdgePoint(const LabelStore& labels,
                        const core::EdgePointSet& points,
                        const HubPointIndex& index, PointId y,
                        const core::EdgePosition& pos, Weight edge_weight,
                        LabelWorkspace& ws);

 private:
  struct List {
    uint32_t size = 0;
    std::array<Competitor, kDepth> entries{};
  };
  using ListChunk = std::array<List, kListChunk>;
  using CutChunk = std::array<Weight, kCutChunk>;

  /// One candidate whose list a patch rewrote: where its hubs come from
  /// (its node, or both endpoints of its edge) and its kDepth-th
  /// distance before and after (-kInfinity = no list).
  struct Change {
    NodeId u = kInvalidNode;
    NodeId v = kInvalidNode;
    Weight before = 0;
    Weight after = 0;
  };

  class Patch;
  struct Population;

  const List* FindList(PointId p) const {
    const size_t c = p / kListChunk;
    if (c >= lists_.size() || lists_[c] == nullptr) {
      return nullptr;
    }
    return &(*lists_[c])[p % kListChunk];
  }
  /// kDepth-th distance of p's list; kInfinity when shorter.
  Weight Depth(PointId p) const;
  /// cut(h) from scratch over `candidates`' run of `hub`.
  Weight ComputeCut(const HubPointIndex& candidates, NodeId hub) const;
  /// Brings cut() up to date after `changes`: the running max where a
  /// list deepened, a run recompute where the run's maximum shrank.
  Status ApplyCutChanges(const LabelStore& labels,
                         const HubPointIndex& candidates,
                         std::span<const Change> changes, Patch& patch,
                         LabelWorkspace& ws);
  /// Sizes the cut chunks for `num_hubs` hubs and fills every cut.
  void InitCuts(const HubPointIndex& candidates);
  /// After a cut sweep from competitor `y` (in `ws`): joins y to every
  /// reached list it ranks into.
  void JoinSwept(const Population& pop, PointId y, Patch& patch,
                 const LabelWorkspace& ws, std::vector<Change>* changes);
  /// After a cut sweep from erased competitor `y` (in `ws`): recomputes
  /// every reached list that held y.
  Status RewriteHolders(const Population& pop, PointId y, Patch& patch,
                        LabelWorkspace& ws, std::vector<Change>* changes);

  std::vector<std::shared_ptr<ListChunk>> lists_;  // null = all empty
  std::vector<std::shared_ptr<CutChunk>> cuts_;    // null = all 0
  NodeId num_hubs_ = 0;
};

}  // namespace grnn::index

#endif  // GRNN_INDEX_RKNN_BOUNDS_H_
