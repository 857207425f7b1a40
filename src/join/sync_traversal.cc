#include "join/sync_traversal.h"

#include <bit>

#include "join/simd_filter.h"

namespace swiftspatial {

void JoinNodePair(const PackedRTree& r, const PackedRTree& s,
                  NodeIndex r_node, NodeIndex s_node,
                  std::vector<NodePairTask>* next, JoinResult* out,
                  JoinStats* stats) {
  const NodeView rn = r.node(r_node);
  const NodeView sn = s.node(s_node);
  const bool same_kind = rn.is_leaf() == sn.is_leaf();
  // The block holds the entries a probe pairs with: S's, unless R is the
  // directory descending alone past a leaf of S (trees of differing
  // heights). Its arrays are compared where they lie in the image.
  const bool s_is_block = same_kind || rn.is_leaf();
  const NodeView bn = s_is_block ? sn : rn;
  const std::size_t n = bn.count();
  const int32_t* block_ids = bn.ids();

  const bool emit_results = rn.is_leaf() && sn.is_leaf();
  const int probes = same_kind ? rn.count() : 1;
  const std::size_t words = FilterMaskWords(n);
  uint64_t mask[FilterMaskWords(PackedRTree::kMaxEntries)];  // one probe's hits
  const std::size_t next_before = next->size();
  for (int i = 0; i < probes; ++i) {
    // A probe is an R entry, or the leaf side's MBR paired with its node.
    const PackedEntry probe =
        same_kind ? rn.entry(i)
                  : PackedEntry{(s_is_block ? rn : sn).Mbr(),
                                s_is_block ? r_node : s_node};
    FilterSoAShort(probe.box, bn.min_x(), bn.min_y(), bn.max_x(), bn.max_y(),
                   n, mask);
    for (std::size_t w = 0; w < words; ++w) {
      for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
        const int32_t hit = block_ids[(w << 6) + std::countr_zero(bits)];
        const int32_t r_id = s_is_block ? probe.id : hit;
        const int32_t s_id = s_is_block ? hit : probe.id;
        if (emit_results) {
          out->Add(r_id, s_id);
        } else {
          next->push_back({r_id, s_id});
        }
      }
    }
  }
  if (stats != nullptr) {
    stats->tasks += 1;
    stats->predicate_evaluations += static_cast<uint64_t>(probes) * n;
    stats->intermediate_pairs += next->size() - next_before;
  }
}

JoinResult SyncTraversalDfs(const PackedRTree& r, const PackedRTree& s,
                            JoinStats* stats) {
  JoinResult out;
  std::vector<NodePairTask> stack = {{r.root(), s.root()}};
  std::vector<NodePairTask> next;
  while (!stack.empty()) {
    const NodePairTask task = stack.back();
    stack.pop_back();
    next.clear();
    JoinNodePair(r, s, task.r, task.s, &next, &out, stats);
    stack.insert(stack.end(), next.begin(), next.end());
  }
  return out;
}

JoinResult SyncTraversalBfs(const PackedRTree& r, const PackedRTree& s,
                            JoinStats* stats,
                            std::vector<std::size_t>* level_sizes) {
  JoinResult out;
  std::vector<NodePairTask> frontier = {{r.root(), s.root()}};
  std::vector<NodePairTask> next;
  while (!frontier.empty()) {
    if (level_sizes != nullptr) level_sizes->push_back(frontier.size());
    next.clear();
    for (const NodePairTask& task : frontier) {
      JoinNodePair(r, s, task.r, task.s, &next, &out, stats);
    }
    frontier.swap(next);
  }
  return out;
}

}  // namespace swiftspatial
