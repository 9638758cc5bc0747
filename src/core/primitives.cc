#include "core/primitives.h"
#include "common/numeric.h"

#include <algorithm>

#include "common/string_util.h"

namespace grnn::core {

NnSearcher::NnSearcher(const graph::NetworkView* g,
                       const NodePointSet* points)
    : g_(g), points_(points) {
  GRNN_CHECK(g != nullptr);
  GRNN_CHECK(points != nullptr);
}

Result<std::vector<NnResult>> NnSearcher::RangeNn(NodeId source, int k,
                                                  Weight e, PointId exclude,
                                                  SearchStats* stats) {
  std::vector<NnResult> out;
  GRNN_RETURN_NOT_OK(RangeNnInto(source, k, e, exclude, stats, &out));
  return out;
}

Status NnSearcher::RangeNnInto(NodeId source, int k, Weight e,
                               PointId exclude, SearchStats* stats,
                               std::vector<NnResult>* result) {
  result->clear();
  if (source >= g_->num_nodes()) {
    return Status::OutOfRange(
        StrPrintf("range-NN source %u out of range", source));
  }
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (stats != nullptr) {
    stats->range_nn_calls++;
  }
  std::vector<NnResult>& out = *result;
  if (!(e > 0)) {
    return Status::OK();  // strict range: nothing can qualify
  }

  heap_.clear();
  best_.Reset(g_->num_nodes());
  settled_.Reset(g_->num_nodes());
  heap_.Push(0.0, source);
  best_.Set(source, 0.0);

  while (!heap_.empty()) {
    auto [dist, node] = heap_.Pop();
    if (settled_.Contains(node)) {
      continue;
    }
    if (!DistLess(dist, e)) {
      break;  // all remaining nodes are at distance >= e (mod fp noise)
    }
    settled_.Insert(node);
    if (stats != nullptr) {
      stats->nodes_scanned++;
    }
    PointId p = points_->PointAt(node);
    if (p != kInvalidPoint && p != exclude) {
      out.push_back(NnResult{p, node, dist});
      if (out.size() == static_cast<size_t>(k)) {
        return Status::OK();
      }
    }
    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g_->Scan(node, cursor_));
    for (const AdjEntry& a : nbrs) {
      const Weight nd = dist + a.weight;
      if (DistLess(nd, e) && !settled_.Contains(a.node) &&
          nd < best_.Get(a.node)) {
        best_.Set(a.node, nd);
        heap_.Push(nd, a.node);
        if (stats != nullptr) {
          stats->heap_pushes++;
        }
      }
    }
  }
  return Status::OK();
}

Result<NnSearcher::VerifyOutcome> NnSearcher::Verify(
    PointId candidate, int k, const std::vector<NodeId>& query_nodes,
    PointId exclude, SearchStats* stats) {
  const NodeId start = points_->NodeOf(candidate);
  if (start == kInvalidNode) {
    return Status::InvalidArgument(
        StrPrintf("candidate point %u does not exist", candidate));
  }
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (query_nodes.empty()) {
    return Status::InvalidArgument("query node set is empty");
  }
  if (stats != nullptr) {
    stats->verify_calls++;
  }

  query_mark_.Reset(g_->num_nodes());
  for (NodeId q : query_nodes) {
    if (q >= g_->num_nodes()) {
      return Status::OutOfRange("query node out of range");
    }
    query_mark_.Insert(q);
  }

  heap_.clear();
  best_.Reset(g_->num_nodes());
  settled_.Reset(g_->num_nodes());
  heap_.Push(0.0, start);
  best_.Set(start, 0.0);

  // Grows with the competitors actually met, never with k itself.
  competitors_.clear();

  while (!heap_.empty()) {
    auto [dist, node] = heap_.Pop();
    if (settled_.Contains(node)) {
      continue;
    }
    settled_.Insert(node);
    if (stats != nullptr) {
      stats->nodes_scanned++;
    }

    if (query_mark_.Contains(node)) {
      // First query node settles at the exact distance d(candidate, q).
      // Success iff fewer than k competitors are STRICTLY closer.
      size_t strictly_closer = 0;
      for (Weight c : competitors_) {
        strictly_closer += DistLess(c, dist);
      }
      return VerifyOutcome{strictly_closer < static_cast<size_t>(k), dist};
    }

    PointId p = points_->PointAt(node);
    if (p != kInvalidPoint && p != candidate && p != exclude) {
      if (competitors_.size() < static_cast<size_t>(k)) {
        competitors_.push_back(dist);  // settles in ascending order
      }
      // Early failure: once the k-th competitor is strictly closer than
      // the current frontier, every future query settlement is at least
      // frontier distance away, hence has >= k strictly closer points.
      if (competitors_.size() == static_cast<size_t>(k) &&
          DistLess(competitors_.back(), dist)) {
        return VerifyOutcome{false, kInfinity};
      }
    }

    GRNN_ASSIGN_OR_RETURN(std::span<const AdjEntry> nbrs,
                          g_->Scan(node, cursor_));
    for (const AdjEntry& a : nbrs) {
      const Weight nd = dist + a.weight;
      if (!settled_.Contains(a.node) && nd < best_.Get(a.node)) {
        best_.Set(a.node, nd);
        heap_.Push(nd, a.node);
        if (stats != nullptr) {
          stats->heap_pushes++;
        }
      }
    }
    // Early failure also triggers when the k-th competitor exists and the
    // frontier has moved strictly past it.
    if (competitors_.size() == static_cast<size_t>(k) && !heap_.empty() &&
        DistLess(competitors_.back(), heap_.top_key())) {
      return VerifyOutcome{false, kInfinity};
    }
  }
  // Query unreachable from the candidate.
  return VerifyOutcome{false, kInfinity};
}

}  // namespace grnn::core
