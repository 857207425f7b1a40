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
// accelerator. Each node pair of one kind is restricted to the other node's
// MBR before it is joined (the search-space restriction of [13]): each
// side's entries are filtered against the other node's MBR, S's survivors
// are copied into a compact stack block, and only R's survivors are
// compared against it, each with the vector short-block compare
// (FilterSoAShort), the CPU form of the join unit's comparator banks.
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
/// intermediate pairs, but not on predicate counts: it tests every pair.
///
/// Nodes of one kind (leaf-leaf or directory-directory) are restricted
/// first: an entry that misses the other node's MBR hits none of its
/// entries. One FilterSoAShort call filters R's entries against S's node
/// MBR, one S's against R's; S's survivors are copied, in order, into a
/// 64-slot structure-of-arrays block on the stack (one mask word), and each
/// R survivor is compared against that block. When more than 64 S entries
/// survive (never at fan-out 16) the survivors probe the S node's arrays in
/// place instead. With trees of differing heights only the directory side
/// descends: the leaf node's MBR is the single probe, compared against the
/// directory node's arrays in place. Nothing is allocated for the compare.
///
/// Pairs and tasks are emitted in ascending (R entry, S entry) order, the
/// order of a pairwise double loop. `predicate_evaluations` counts the box
/// tests made: rc + sc for the two MBR filters plus R's survivors times the
/// block's size for nodes of one kind, the directory's entry count
/// otherwise. On swiftbench rtree_points that is 2.5M tests per request
/// where the pairwise rc * sc, which the device counts, is 14.3M, and the
/// median request latency fell 16-24% (README).
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
