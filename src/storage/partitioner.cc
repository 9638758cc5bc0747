#include "storage/partitioner.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <span>

#include "common/rng.h"

namespace grnn::storage {
namespace {

// Regions of at most this many nodes are not split further. The size
// barely matters: on bench_ablation_packing's 60k-node road world, leaves
// of 16, 32 and 96 nodes fault within 2% of each other per query.
constexpr size_t kLeafSize = 32;

// Recursive BFS bisection over a weightless copy of the graph whose nodes
// are relabeled in BFS order ("local" ids), so every sweep reads 4-byte
// neighbor ids of nearby nodes rather than 16-byte entries scattered
// over the node-id space. One queue and one stamp array serve every
// sweep: stamps only grow, so a sweep over the nodes stamped in
// [base, seen) marks what it reaches with `seen`, and no sweep needs an
// O(n) clear.
class Bisector {
 public:
  Bisector(const graph::Graph& g, std::vector<NodeId> bfs_order)
      : global_(std::move(bfs_order)),
        offsets_(global_.size() + 1, 0),
        stamp_(global_.size(), 0),
        queue_(global_.size() + 1) {  // + 1: Sweep's speculative write
    std::vector<NodeId> local(global_.size());
    for (NodeId i = 0; i < global_.size(); ++i) {
      local[global_[i]] = i;
    }
    targets_.reserve(2 * g.num_edges());
    for (NodeId i = 0; i < global_.size(); ++i) {
      for (const AdjEntry& a : g.Neighbors(global_[i])) {
        targets_.push_back(local[a.node]);
      }
      offsets_[i + 1] = targets_.size();
    }
  }

  // The bisection order, in node ids.
  std::vector<NodeId> Order() {
    std::vector<NodeId> region(global_.size());
    std::iota(region.begin(), region.end(), NodeId{0});
    Bisect(region);
    for (NodeId& v : region) {
      v = global_[v];
    }
    return region;
  }

 private:
  // Appends to queue_[tail..] the BFS from `start` over the nodes stamped
  // in [base, seen), stamping each `seen`; returns the new tail. After
  // it, queue_[last_level_, tail) is the farthest BFS level.
  size_t Sweep(NodeId start, uint32_t base, uint32_t seen, size_t tail) {
    stamp_[start] = seen;
    queue_[tail] = start;
    last_level_ = tail;
    size_t level_end = ++tail;
    for (size_t head = last_level_; head < tail; ++head) {
      if (head == level_end) {
        last_level_ = head;
        level_end = tail;
      }
      const NodeId u = queue_[head];
      for (size_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
        // Branch-free: whether a neighbor is new is a coin flip to the
        // branch predictor, so always write it and advance on a hit.
        const NodeId v = targets_[i];
        uint32_t& s = stamp_[v];
        const bool fresh = s - base < seen - base;  // s in [base, seen)
        s = fresh ? seen : s;
        queue_[tail] = v;
        tail += fresh;
      }
    }
    return tail;
  }

  // Orders `region` (local ids) in place. Every region takes three fresh
  // stamps (member, reached by sweep 1, reached by sweep 2); all nodes
  // outside it carry older, smaller stamps.
  void Bisect(std::span<NodeId> region) {
    const uint32_t base = next_stamp_;
    next_stamp_ += 3;
    for (NodeId v : region) {
      stamp_[v] = base;
    }
    // Double sweep: the smallest node id on the farthest level from the
    // region's first node is a pseudo-peripheral root.
    const size_t reached = Sweep(region[0], base, base + 1, 0);
    const NodeId root = *std::min_element(
        queue_.begin() + last_level_, queue_.begin() + reached,
        [this](NodeId a, NodeId b) { return global_[a] < global_[b]; });
    // The region is ordered by a BFS from the root; what that BFS cannot
    // reach (a region need not be connected) follows, restarted from the
    // first unreached node in the old order.
    size_t tail = Sweep(root, base, base + 2, 0);
    for (size_t i = 0; tail < region.size(); ++i) {
      if (stamp_[region[i]] != base + 2) {
        tail = Sweep(region[i], base, base + 2, tail);
      }
    }
    std::copy_n(queue_.begin(), tail, region.begin());
    if (region.size() > kLeafSize) {
      const size_t half = region.size() / 2;
      Bisect(region.first(half));
      Bisect(region.subspan(half));
    }
  }

  std::vector<NodeId> global_;  // local id -> node id
  std::vector<size_t> offsets_;
  std::vector<NodeId> targets_;
  std::vector<uint32_t> stamp_;
  std::vector<NodeId> queue_;
  size_t last_level_ = 0;
  uint32_t next_stamp_ = 1;
};

}  // namespace

std::vector<NodeId> ComputeNodeOrder(const graph::Graph& g, NodeOrder order,
                                     uint64_t seed) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> out(n);
  std::iota(out.begin(), out.end(), NodeId{0});

  switch (order) {
    case NodeOrder::kNatural:
      return out;
    case NodeOrder::kRandom: {
      Rng rng(seed);
      rng.Shuffle(out);
      return out;
    }
    case NodeOrder::kBfs: {
      std::vector<bool> visited(n, false);
      std::deque<NodeId> queue;
      size_t emitted = 0;
      for (NodeId start = 0; start < n; ++start) {
        if (visited[start]) {
          continue;
        }
        visited[start] = true;
        queue.push_back(start);
        while (!queue.empty()) {
          NodeId u = queue.front();
          queue.pop_front();
          out[emitted++] = u;
          for (const AdjEntry& a : g.Neighbors(u)) {
            if (!visited[a.node]) {
              visited[a.node] = true;
              queue.push_back(a.node);
            }
          }
        }
      }
      GRNN_CHECK(emitted == n);
      return out;
    }
    case NodeOrder::kBisection:
      if (n == 0) {
        return out;
      }
      return Bisector(g, ComputeNodeOrder(g, NodeOrder::kBfs)).Order();
  }
  return out;
}

}  // namespace grnn::storage
