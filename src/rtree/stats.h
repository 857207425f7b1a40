// R-tree topology quality metrics (§2.2: "Bulk-loading produces superior
// R-tree topologies compared to dynamically constructed R-trees, improving
// query performance"). Quality is quantified the classic way: leaf fill
// factor, total leaf area/perimeter, pairwise leaf overlap, and measured
// node accesses per window query.
#ifndef SWIFTSPATIAL_RTREE_STATS_H_
#define SWIFTSPATIAL_RTREE_STATS_H_

#include <cstddef>
#include <vector>

#include "datagen/dataset.h"
#include "rtree/packed_rtree.h"

namespace swiftspatial {

struct TreeQualityStats {
  std::size_t num_nodes = 0;
  std::size_t num_leaves = 0;
  int height = 0;
  /// Mean leaf entries / max_entries.
  double avg_leaf_fill = 0;
  /// Sum of leaf MBR areas (dead space indicator).
  double total_leaf_area = 0;
  /// Sum of leaf MBR perimeters (the R* split objective).
  double total_leaf_perimeter = 0;
  /// Sum of pairwise intersection areas between leaf MBRs; the main driver
  /// of wasted traversal work.
  double leaf_overlap_area = 0;
};

/// Computes topology metrics for a packed tree. Leaf overlap is O(L^2) in
/// the number of leaves; intended for analysis, not hot paths.
TreeQualityStats ComputeTreeQuality(const PackedRTree& tree);

/// Mean nodes visited (PackedRTree::WindowQuery's count) over a batch of
/// windows.
double AvgNodeAccesses(const PackedRTree& tree,
                       const std::vector<Box>& windows);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_RTREE_STATS_H_
