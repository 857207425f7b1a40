// Tile-level join dispatch: the join one tile of a partition-based plan runs
// -- a grid cell, or a stripe of the 1-D PBSM baseline (§5.1, Patel &
// DeWitt [57], Algorithm 3) -- by plane sweep by default, nested loop as an
// ablation, or the batched SIMD filter kernel, with duplicate results
// suppressed by the reference-point rule.
#ifndef SWIFTSPATIAL_JOIN_TILE_JOIN_H_
#define SWIFTSPATIAL_JOIN_TILE_JOIN_H_

#include <vector>

#include "datagen/dataset.h"
#include "join/result.h"

namespace swiftspatial {

/// Tile-level join algorithm within each tile.
enum class TileJoin {
  kPlaneSweep,
  kNestedLoop,
  /// Batched SIMD MBR filter kernel (join/simd_filter.h).
  kSimd,
};

const char* TileJoinToString(TileJoin t);

/// Runs one tile-level join of (r_ids x s_ids) with algorithm `tile_join`,
/// appending qualifying pairs to `out` (duplicates suppressed against
/// `dedup_tile` when non-null). The single dispatch point shared by every
/// partition-based driver: the grid-sharded partitioned driver (which also
/// runs pbsm's stripes) and the distributed engines' shards.
void RunTileJoin(TileJoin tile_join, const Dataset& r, const Dataset& s,
                 const std::vector<ObjectId>& r_ids,
                 const std::vector<ObjectId>& s_ids, const Box* dedup_tile,
                 JoinResult* out, JoinStats* stats);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_TILE_JOIN_H_
