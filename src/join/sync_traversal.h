// R-tree synchronous traversal (Brinkhoff, Kriegel & Seeger [13]):
// simultaneous traversal of two R-trees, pruning via directory MBRs.
//
//  * SyncTraversalDfs implements Algorithms 1-2 of the paper (depth-first).
//  * SyncTraversalBfs implements the breadth-first variant [33] that the
//    SwiftSpatial scheduler executes on chip (§3.4.1): the join proceeds
//    level by level, with all qualifying node pairs of a level materialised
//    as the next level's task list.
//
// Both operate on the flat PackedRTree layout shared with the simulated
// accelerator. Each node pair is joined as a block join, the CPU form of
// the join unit's comparator banks: one node is transposed into a
// structure-of-arrays block, and each probe box is compared against the
// whole block with the vector short-block compare (FilterSoAShort).
#ifndef SWIFTSPATIAL_JOIN_SYNC_TRAVERSAL_H_
#define SWIFTSPATIAL_JOIN_SYNC_TRAVERSAL_H_

#include <cstdint>
#include <vector>

#include "join/result.h"
#include "rtree/packed_rtree.h"

namespace swiftspatial {

/// A node-pair join task.
struct NodePairTask {
  NodeIndex r = 0;
  NodeIndex s = 0;

  friend bool operator==(const NodePairTask&, const NodePairTask&) = default;
};

/// Caller-owned scratch of JoinNodePair: one node's entries in
/// structure-of-arrays form and one probe's hit-mask words. Sized once for
/// the larger fan-out of the two trees, so JoinNodePair never allocates.
struct NodeBlock {
  NodeBlock(const PackedRTree& r, const PackedRTree& s);

  std::vector<Coord> min_x, min_y, max_x, max_y;
  std::vector<int32_t> id;
  std::vector<uint64_t> mask;
};

/// Joins one node pair: emits qualifying (object, object) pairs to `out`
/// when both nodes are leaves, qualifying next-level tasks to `next`
/// otherwise. The same work one SwiftSpatial join unit performs per task
/// (Fig. 4); the simulator's join unit (hw/join_unit.cc) has loops of its
/// own that also model cycles, and agrees with this one on pairs, tasks and
/// predicate counts.
///
/// A block join: the S node (or, when R is a directory and S a leaf, the R
/// node) is transposed into `block`, and each probe is compared against all
/// of it at once. The probes are the R entries when both nodes are of one
/// kind; with trees of differing heights only the directory side descends,
/// and the leaf node's MBR is the single probe. Pairs and tasks are emitted
/// in ascending (R entry, S entry) order, the order of a pairwise double
/// loop. `predicate_evaluations` counts the comparisons performed: rc * sc
/// for nodes of one kind, the directory's entry count otherwise.
void JoinNodePair(const PackedRTree& r, const PackedRTree& s,
                  NodeIndex r_node, NodeIndex s_node, NodeBlock* block,
                  std::vector<NodePairTask>* next, JoinResult* out,
                  JoinStats* stats);

/// Depth-first synchronous traversal (Algorithms 1-2).
JoinResult SyncTraversalDfs(const PackedRTree& r, const PackedRTree& s,
                            JoinStats* stats = nullptr);

/// Breadth-first synchronous traversal [33]; `level_sizes`, when non-null,
/// receives the number of tasks at each level (the accelerator's task-queue
/// occupancy trace).
JoinResult SyncTraversalBfs(const PackedRTree& r, const PackedRTree& s,
                            JoinStats* stats = nullptr,
                            std::vector<std::size_t>* level_sizes = nullptr);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_SYNC_TRAVERSAL_H_
