#include "rtree/packed_rtree.h"

#include <bit>
#include <cstring>
#include <string>

#include "join/simd_filter.h"

namespace swiftspatial {

PackedRTree PackedRTree::FromLevels(
    std::vector<std::vector<BuildNode>> levels, int max_entries) {
  SWIFT_CHECK(!levels.empty());
  SWIFT_CHECK_GE(max_entries, 2);
  SWIFT_CHECK_EQ(levels.back().size(), 1u);  // single root

  PackedRTree tree;
  tree.max_entries_ = max_entries;
  tree.height_ = static_cast<int>(levels.size());
  tree.node_stride_ = StrideFor(max_entries);
  tree.num_leaves_ = levels.front().size();

  std::size_t total = 0;
  for (const auto& level : levels) total += level.size();
  tree.num_nodes_ = total;
  tree.bytes_.assign(total * tree.node_stride_, 0);

  // Assign global indices level by level, leaves first.
  std::vector<NodeIndex> level_base(levels.size());
  NodeIndex next = 0;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    level_base[l] = next;
    next += static_cast<NodeIndex>(levels[l].size());
  }
  tree.root_ = level_base.back();

  std::size_t objects = 0;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    for (std::size_t n = 0; n < levels[l].size(); ++n) {
      BuildNode& src = levels[l][n];
      if (src.is_leaf) {
        objects += src.entries.size();
      } else {
        // Child references are level-local during construction; rewrite to
        // global node indices.
        SWIFT_CHECK_GT(l, 0u);
        for (PackedEntry& entry : src.entries) {
          SWIFT_CHECK(entry.id >= 0 && static_cast<std::size_t>(entry.id) <
                                           levels[l - 1].size());
          entry.id += level_base[l - 1];
        }
      }
      WriteNode(tree.bytes_.data() +
                    tree.NodeOffset(level_base[l] + static_cast<NodeIndex>(n)),
                max_entries, src.is_leaf, src.entries);
    }
  }
  tree.num_objects_ = objects;
  return tree;
}

void PackedRTree::WriteNode(uint8_t* base, int capacity, bool is_leaf,
                            std::span<const PackedEntry> entries) {
  SWIFT_CHECK_LE(capacity, kMaxEntries);
  SWIFT_CHECK_LE(entries.size(), static_cast<std::size_t>(capacity));
  const auto count = static_cast<uint16_t>(entries.size());
  const auto cap16 = static_cast<uint16_t>(capacity);
  std::memcpy(base, &count, sizeof(count));
  base[2] = is_leaf ? 1 : 0;
  std::memcpy(base + 4, &cap16, sizeof(cap16));
  const auto cap = static_cast<std::size_t>(capacity);
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const Box& b = entries[e].box;
    const Coord coords[4] = {b.min_x, b.min_y, b.max_x, b.max_y};
    for (int k = 0; k < 4; ++k) {
      std::memcpy(base + NodeView::ArrayOffset(k, cap) + 4 * e, &coords[k], 4);
    }
    std::memcpy(base + NodeView::ArrayOffset(4, cap) + 4 * e, &entries[e].id,
                4);
  }
}

std::vector<ObjectId> PackedRTree::WindowQuery(
    const Box& window, std::size_t* nodes_visited) const {
  std::vector<ObjectId> out;
  std::size_t visited = 0;
  if (num_nodes_ > 0) {
    // Each visited node's arrays go to the short-block kernel in place;
    // hits are taken in ascending entry order, like a scalar scan.
    uint64_t mask[FilterMaskWords(kMaxEntries)];
    std::vector<NodeIndex> stack = {root_};
    while (!stack.empty()) {
      const NodeView nv = node(stack.back());
      stack.pop_back();
      ++visited;
      const std::size_t n = nv.count();
      FilterSoAShort(window, nv.min_x(), nv.min_y(), nv.max_x(), nv.max_y(),
                     n, mask);
      std::vector<int32_t>& dst = nv.is_leaf() ? out : stack;
      for (std::size_t w = 0; w < FilterMaskWords(n); ++w) {
        for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
          dst.push_back(nv.ids()[(w << 6) + std::countr_zero(bits)]);
        }
      }
    }
  }
  if (nodes_visited != nullptr) *nodes_visited = visited;
  return out;
}

std::size_t PackedRTree::CountObjects() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    const NodeView nv = node(static_cast<NodeIndex>(i));
    if (nv.is_leaf()) total += nv.count();
  }
  return total;
}

Status PackedRTree::Validate() const {
  if (num_nodes_ == 0) return Status::OK();
  std::vector<int> visited(num_nodes_, 0);
  // (node, depth) DFS from the root.
  struct Item {
    NodeIndex idx;
    int depth;
  };
  std::vector<Item> stack = {{root_, 0}};
  int leaf_depth = -1;
  std::size_t reached = 0;
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    if (item.idx < 0 || static_cast<std::size_t>(item.idx) >= num_nodes_) {
      return Status::Corruption("child index out of range: " +
                                std::to_string(item.idx));
    }
    if (visited[item.idx]++) {
      return Status::Corruption("node visited twice: " +
                                std::to_string(item.idx));
    }
    ++reached;
    const NodeView nv = node(item.idx);
    const int n = nv.count();
    if (n == 0 && num_objects_ > 0) {
      return Status::Corruption("empty node: " + std::to_string(item.idx));
    }
    if (n > max_entries_) {
      return Status::Corruption("node overflow: " + std::to_string(item.idx));
    }
    if (nv.is_leaf()) {
      if (leaf_depth == -1) leaf_depth = item.depth;
      if (leaf_depth != item.depth) {
        return Status::Corruption("leaves at different depths");
      }
    } else {
      for (int i = 0; i < n; ++i) {
        const PackedEntry e = nv.entry(i);
        const NodeView child = node(e.id);
        if (!Contains(e.box, child.Mbr())) {
          return Status::Corruption("directory MBR does not cover child " +
                                    std::to_string(e.id));
        }
        stack.push_back({e.id, item.depth + 1});
      }
    }
  }
  if (reached != num_nodes_) {
    return Status::Corruption("unreachable nodes: " +
                              std::to_string(num_nodes_ - reached) +
                              " of " + std::to_string(num_nodes_));
  }
  if (CountObjects() != num_objects_) {
    return Status::Corruption("object count mismatch");
  }
  return Status::OK();
}

}  // namespace swiftspatial
