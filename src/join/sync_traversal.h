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
// the join unit's comparator banks: each probe box is compared against one
// node's whole coordinate arrays at once, read in place from the packed
// image, with the vector short-block compare (FilterSoAShort).
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

/// Joins one node pair: emits qualifying (object, object) pairs to `out`
/// when both nodes are leaves, qualifying next-level tasks to `next`
/// otherwise. The same work one SwiftSpatial join unit performs per task
/// (Fig. 4); the simulator's join unit (hw/join_unit.cc) has loops of its
/// own that also model cycles, and agrees with this one on pairs, tasks and
/// predicate counts.
///
/// A block join: each probe is compared against all of the S node (or,
/// when R is a directory and S a leaf, the R node) at once, reading the
/// node's arrays in place. The probes are the R entries when both nodes are
/// of one kind; with trees of differing heights only the directory side
/// descends, and the leaf node's MBR is the single probe. Pairs and tasks
/// are emitted in ascending (R entry, S entry) order, the order of a
/// pairwise double loop. `predicate_evaluations` counts the comparisons
/// performed: rc * sc for nodes of one kind, the directory's entry count
/// otherwise.
void JoinNodePair(const PackedRTree& r, const PackedRTree& s,
                  NodeIndex r_node, NodeIndex s_node,
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
