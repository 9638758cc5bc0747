// Copyright (c) GRNN authors.
// Node-ordering strategies for packing adjacency lists into pages.
//
// The paper stores "lists of neighboring nodes, grouped together using the
// method of [2]" (Chan & Zhang) so that an expansion touches few pages.
// kBisection stands in for that topological clustering: recursive BFS
// bisection keeps each small connected region of the network on one page
// and sibling regions on neighbouring pages. One global BFS (kBfs) lays a
// road network out as thin wavefront rings instead, so a local expansion
// crosses many pages; kBfs, kNatural and kRandom exist as ablation
// baselines (bench_ablation_packing).

#ifndef GRNN_STORAGE_PARTITIONER_H_
#define GRNN_STORAGE_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"

namespace grnn::storage {

enum class NodeOrder {
  kBisection,  // recursive BFS bisection: local regions co-located (default)
  kBfs,        // one global BFS from node 0: thin wavefront rings
  kNatural,    // node-id order
  kRandom,     // shuffled (worst-case locality, ablation)
};

/// \brief Returns a permutation of all node ids in storage order.
///
/// kBisection orders each region by a BFS from a pseudo-peripheral node
/// (the smallest id on the farthest level of a BFS from the region's
/// first node), splits that sequence at its midpoint and recurses into
/// both halves down to a fixed small leaf; halves are laid out depth
/// first. A region the BFS cannot cover is finished by BFS restarts from
/// its unreached nodes in order, so the top level visits components
/// smallest id first. kBfs starts a BFS at node 0 and restarts from the
/// smallest unvisited node per component. Both are deterministic and
/// emit every node exactly once; `seed` only drives kRandom.
std::vector<NodeId> ComputeNodeOrder(const graph::Graph& g, NodeOrder order,
                                     uint64_t seed = 42);

}  // namespace grnn::storage

#endif  // GRNN_STORAGE_PARTITIONER_H_
