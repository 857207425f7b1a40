// Multi-threaded synchronous traversal: the paper's optimized CPU baseline
// (§5.1). Two strategies are implemented:
//
//  * kBfs      -- pure level-by-level BFS; the node pairs of each level are
//                 the parallel tasks, results merged per level.
//  * kBfsDfs   -- hybrid: BFS until the frontier holds at least
//                 `dfs_switch_factor` x threads tasks, then each task is
//                 finished with a sequential DFS on its own thread.
//
// Both support static and dynamic OpenMP-style scheduling (Schedule).
// The paper reports BFS + dynamic scheduling as the best configuration in
// most experiments.
#ifndef SWIFTSPATIAL_JOIN_PARALLEL_SYNC_TRAVERSAL_H_
#define SWIFTSPATIAL_JOIN_PARALLEL_SYNC_TRAVERSAL_H_

#include <cstddef>

#include "common/thread_pool.h"
#include "join/result.h"
#include "rtree/packed_rtree.h"

namespace swiftspatial {

/// Traversal strategy for the parallel CPU baseline.
enum class TraversalStrategy {
  kBfs,
  kBfsDfs,
};

const char* TraversalStrategyToString(TraversalStrategy s);

struct ParallelSyncTraversalOptions {
  std::size_t num_threads = 1;
  TraversalStrategy strategy = TraversalStrategy::kBfs;
  Schedule schedule = Schedule::kDynamic;
  /// Switch to per-task DFS once the frontier has at least this many tasks
  /// per thread (the paper switches at 10x).
  std::size_t dfs_switch_factor = 10;
};

/// Multi-threaded synchronous traversal join: one wave of width
/// `num_threads` under `wave` per BFS level. Once `wave.cancel` reads
/// cancelled the traversal stops claiming node pairs and returns the pairs
/// found so far (with `stats` covering the node pairs joined).
JoinResult ParallelSyncTraversal(const PackedRTree& r, const PackedRTree& s,
                                 const ParallelSyncTraversalOptions& options,
                                 JoinStats* stats = nullptr,
                                 const WaveContext& wave = {});

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_PARALLEL_SYNC_TRAVERSAL_H_
