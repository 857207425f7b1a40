#include "rtree/stats.h"

#include <vector>

namespace swiftspatial {

TreeQualityStats ComputeTreeQuality(const PackedRTree& tree) {
  TreeQualityStats out;
  out.num_nodes = tree.num_nodes();
  out.num_leaves = tree.num_leaves();
  out.height = tree.height();

  std::vector<Box> leaf_mbrs;
  leaf_mbrs.reserve(tree.num_leaves());
  double fill = 0;
  for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
    const NodeView nv = tree.node(static_cast<NodeIndex>(n));
    if (!nv.is_leaf()) continue;
    const Box mbr = nv.Mbr();
    leaf_mbrs.push_back(mbr);
    fill += static_cast<double>(nv.count()) / tree.max_entries();
    out.total_leaf_area += mbr.Area();
    out.total_leaf_perimeter += mbr.Perimeter();
  }
  if (!leaf_mbrs.empty()) {
    out.avg_leaf_fill = fill / static_cast<double>(leaf_mbrs.size());
  }
  for (std::size_t i = 0; i < leaf_mbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < leaf_mbrs.size(); ++j) {
      if (Intersects(leaf_mbrs[i], leaf_mbrs[j])) {
        out.leaf_overlap_area += Intersection(leaf_mbrs[i], leaf_mbrs[j]).Area();
      }
    }
  }
  return out;
}

double AvgNodeAccesses(const PackedRTree& tree,
                       const std::vector<Box>& windows) {
  if (windows.empty()) return 0;
  std::size_t total = 0;
  for (const Box& w : windows) {
    std::size_t visited = 0;
    tree.WindowQuery(w, &visited);
    total += visited;
  }
  return static_cast<double>(total) / static_cast<double>(windows.size());
}

}  // namespace swiftspatial
