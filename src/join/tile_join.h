// Tile-level join dispatch: the join one tile of a partition-based plan runs
// -- a grid cell, or a stripe of the 1-D PBSM baseline (§5.1, Patel &
// DeWitt [57], Algorithm 3) -- by plane sweep by default, nested loop as an
// ablation, or the batched SIMD filter kernel, with duplicate results
// suppressed by the reference-point rule.
#ifndef SWIFTSPATIAL_JOIN_TILE_JOIN_H_
#define SWIFTSPATIAL_JOIN_TILE_JOIN_H_

#include <span>
#include <vector>

#include "datagen/dataset.h"
#include "join/plane_sweep.h"
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

/// Runs one grid cell's join of (r_cell x s_cell) with algorithm
/// `tile_join`, appending the pairs whose reference point lies in
/// `dedup_tile` to `out`. The single dispatch point shared by every
/// partition-based driver: the grid-sharded partitioned driver (which also
/// runs pbsm's stripes) and the distributed engines' shards. The plane
/// sweep joins the cell entries themselves (PlaneSweepCellJoin); the nested
/// loop and the SIMD kernel take the entries' ids, in the same order.
void RunTileJoin(TileJoin tile_join, const Dataset& r, const Dataset& s,
                 std::span<const CellEntry> r_cell,
                 std::span<const CellEntry> s_cell, const Box& dedup_tile,
                 JoinResult* out, JoinStats* stats);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_TILE_JOIN_H_
