// Hierarchical partitioning for the accelerator's PBSM path (§3.4.2): the
// join units run nested-loop joins, whose cost grows with the product of the
// tile populations, so tiles whose workload exceeds a cap are recursively
// quartered. The cap follows the paper's geometric-mean rule: with a cap of
// 16, at most 16 x 16 = 256 comparisons are performed per emitted tile pair.
#ifndef SWIFTSPATIAL_GRID_HIERARCHICAL_PARTITION_H_
#define SWIFTSPATIAL_GRID_HIERARCHICAL_PARTITION_H_

#include <cstdint>
#include <vector>

#include "datagen/dataset.h"
#include "geometry/box.h"

namespace swiftspatial {

/// One join task: a tile plus the ids of both datasets' objects in it.
struct TileTask {
  Box tile;
  std::vector<ObjectId> r_objects;
  std::vector<ObjectId> s_objects;
};

struct HierarchicalPartitionOptions {
  /// Geometric-mean tile population cap (paper: 16 or 32). A tile is split
  /// while |R_tile| * |S_tile| > cap^2.
  int tile_cap = 16;
  /// Initial uniform grid resolution per axis.
  int initial_grid = 32;
  /// Recursion limit (guards degenerate data that splitting barely helps).
  int max_depth = 12;
};

/// Result of hierarchical partitioning: only tiles where both inputs are
/// non-empty are emitted (others cannot produce results).
struct HierarchicalPartition {
  std::vector<TileTask> tasks;
  /// Tiles emitted while still over the cap (0 in healthy runs): at
  /// max_depth, or where every object of both sides contains the tile, so
  /// no split could reduce the work.
  std::size_t over_cap_tiles = 0;
  /// The cap the partition was built with (consumers size blocks by it).
  int tile_cap = 0;
};

HierarchicalPartition PartitionHierarchical(
    const Dataset& r, const Dataset& s,
    const HierarchicalPartitionOptions& options = {});

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_GRID_HIERARCHICAL_PARTITION_H_
