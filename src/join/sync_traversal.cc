#include "join/sync_traversal.h"

#include <bit>

#include "join/simd_filter.h"

namespace swiftspatial {
namespace {

constexpr std::size_t kMaxMaskWords =
    FilterMaskWords(PackedRTree::kMaxEntries);

// The entries a probe is compared against: coordinate and id arrays of n
// slots each, a node's arrays in the image or the compact survivor block.
struct ProbeBlock {
  const Coord* min_x;
  const Coord* min_y;
  const Coord* max_x;
  const Coord* max_y;
  const int32_t* ids;
  std::size_t n;
};

ProbeBlock InPlace(const NodeView& v) {
  return {v.min_x(), v.min_y(), v.max_x(), v.max_y(), v.ids(), v.count()};
}

// Compares `probe` against every slot of `block` with one FilterSoAShort
// call and calls emit(id) for each hit, in slot order.
template <typename Emit>
void Probe(const Box& probe, const ProbeBlock& block, Emit emit) {
  uint64_t mask[kMaxMaskWords];
  FilterSoAShort(probe, block.min_x, block.min_y, block.max_x, block.max_y,
                 block.n, mask);
  for (std::size_t w = 0; w < FilterMaskWords(block.n); ++w) {
    for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      emit(block.ids[(w << 6) + std::countr_zero(bits)]);
    }
  }
}

// Sets bit i of `live` iff entry i of `v` intersects `window`; returns the
// number of bits set.
std::size_t Survivors(const NodeView& v, const Box& window, uint64_t* live) {
  FilterSoAShort(window, v.min_x(), v.min_y(), v.max_x(), v.max_y(),
                 v.count(), live);
  std::size_t n = 0;
  for (std::size_t w = 0; w < FilterMaskWords(v.count()); ++w) {
    n += static_cast<std::size_t>(std::popcount(live[w]));
  }
  return n;
}

}  // namespace

void JoinNodePair(const PackedRTree& r, const PackedRTree& s,
                  NodeIndex r_node, NodeIndex s_node,
                  std::vector<NodePairTask>* next, JoinResult* out,
                  JoinStats* stats) {
  const NodeView rn = r.node(r_node);
  const NodeView sn = s.node(s_node);
  const std::size_t next_before = next->size();
  uint64_t predicates = 0;
  if (rn.is_leaf() != sn.is_leaf()) {
    // Trees of differing heights: only the directory side descends, and
    // the leaf node's MBR is the single probe against its entries.
    if (rn.is_leaf()) {
      Probe(rn.Mbr(), InPlace(sn),
            [&](int32_t s_id) { next->push_back({r_node, s_id}); });
    } else {
      Probe(sn.Mbr(), InPlace(rn),
            [&](int32_t r_id) { next->push_back({r_id, s_node}); });
    }
    predicates = rn.is_leaf() ? sn.count() : rn.count();
  } else {
    // An entry that misses the other node's MBR hits none of its entries:
    // filter each side against the other's MBR, then join the survivors.
    uint64_t r_live[kMaxMaskWords];
    uint64_t s_live[kMaxMaskWords];
    const std::size_t live_r = Survivors(rn, sn.Mbr(), r_live);
    const std::size_t live_s = Survivors(sn, rn.Mbr(), s_live);
    // S's survivors, in order, in one mask word's worth of stack slots;
    // past that the probes read the S node in place.
    constexpr std::size_t kSlots = 64;
    alignas(32) Coord min_x[kSlots], min_y[kSlots], max_x[kSlots],
        max_y[kSlots];
    int32_t ids[kSlots];
    ProbeBlock block = InPlace(sn);
    if (live_s <= kSlots) {
      std::size_t k = 0;
      for (std::size_t w = 0; w < FilterMaskWords(sn.count()); ++w) {
        for (uint64_t bits = s_live[w]; bits != 0; bits &= bits - 1, ++k) {
          const std::size_t j = (w << 6) + std::countr_zero(bits);
          min_x[k] = block.min_x[j];
          min_y[k] = block.min_y[j];
          max_x[k] = block.max_x[j];
          max_y[k] = block.max_y[j];
          ids[k] = block.ids[j];
        }
      }
      block = {min_x, min_y, max_x, max_y, ids, live_s};
    }
    const bool leaves = rn.is_leaf();
    for (std::size_t w = 0; w < FilterMaskWords(rn.count()); ++w) {
      for (uint64_t bits = r_live[w]; bits != 0; bits &= bits - 1) {
        const std::size_t i = (w << 6) + std::countr_zero(bits);
        const int32_t r_id = rn.ids()[i];
        const Box probe(rn.min_x()[i], rn.min_y()[i], rn.max_x()[i],
                        rn.max_y()[i]);
        Probe(probe, block, [&](int32_t s_id) {
          if (leaves) {
            out->Add(r_id, s_id);
          } else {
            next->push_back({r_id, s_id});
          }
        });
      }
    }
    predicates = rn.count() + sn.count() + live_r * block.n;
  }
  if (stats != nullptr) {
    stats->tasks += 1;
    stats->predicate_evaluations += predicates;
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
