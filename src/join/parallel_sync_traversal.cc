#include "join/parallel_sync_traversal.h"

#include <vector>

#include "common/logging.h"
#include "join/sync_traversal.h"

namespace swiftspatial {

const char* TraversalStrategyToString(TraversalStrategy s) {
  switch (s) {
    case TraversalStrategy::kBfs:
      return "BFS";
    case TraversalStrategy::kBfsDfs:
      return "BFS-DFS";
  }
  return "unknown";
}

namespace {

// Per-worker state, kept for the whole join: results and stats accumulate
// across levels and are merged by a single thread at the end (mirroring the
// paper's "a single thread subsequently merging the results"); the DFS
// stacks are scratch kept across tasks, so tasks rarely allocate.
struct WorkerState {
  JoinResult result;
  std::vector<NodePairTask> next;
  JoinStats stats;
  std::vector<NodePairTask> dfs_stack;
  std::vector<NodePairTask> dfs_children;
};

// Sequential DFS completing one subtree of tasks.
void DfsFrom(const PackedRTree& r, const PackedRTree& s, NodePairTask root,
             WorkerState* state) {
  std::vector<NodePairTask>& stack = state->dfs_stack;
  std::vector<NodePairTask>& children = state->dfs_children;
  stack.assign(1, root);
  while (!stack.empty()) {
    const NodePairTask task = stack.back();
    stack.pop_back();
    children.clear();
    JoinNodePair(r, s, task.r, task.s, &children, &state->result,
                 &state->stats);
    stack.insert(stack.end(), children.begin(), children.end());
  }
}

}  // namespace

JoinResult ParallelSyncTraversal(const PackedRTree& r, const PackedRTree& s,
                                 const ParallelSyncTraversalOptions& options,
                                 JoinStats* stats, const WaveContext& wave) {
  const std::size_t threads = std::max<std::size_t>(1, options.num_threads);
  std::vector<NodePairTask> frontier = {{r.root(), s.root()}};

  const std::size_t dfs_threshold =
      options.strategy == TraversalStrategy::kBfsDfs
          ? options.dfs_switch_factor * threads
          : static_cast<std::size_t>(-1);

  std::vector<WorkerState> workers(threads);
  while (!frontier.empty() && !wave.cancel.cancelled()) {
    const bool dfs_phase = frontier.size() >= dfs_threshold;

    ParallelForWorker(
        frontier.size(), threads, options.schedule,
        [&](std::size_t i, std::size_t w) {
          WorkerState& state = workers[w];
          if (dfs_phase) {
            DfsFrom(r, s, frontier[i], &state);
          } else {
            JoinNodePair(r, s, frontier[i].r, frontier[i].s, &state.next,
                         &state.result, &state.stats);
          }
        },
        /*chunk=*/1, wave);

    if (dfs_phase) break;  // DFS drains every subtree; nothing remains.
    frontier.clear();
    for (auto& w : workers) {
      frontier.insert(frontier.end(), w.next.begin(), w.next.end());
      w.next.clear();
    }
  }

  JoinResult out;
  for (auto& w : workers) {
    out.Merge(std::move(w.result));
    if (stats != nullptr) *stats += w.stats;
  }
  return out;
}

}  // namespace swiftspatial
