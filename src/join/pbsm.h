// Partition-Based Spatial-Merge join (Patel & DeWitt [57], Algorithm 3):
// the CPU baseline of §5.1. Data is partitioned into 1-D stripes; each
// stripe is joined independently (plane sweep by default, nested loop as an
// ablation), with duplicate results suppressed by the reference-point rule.
//
// Partitioning and joining are deliberately separate entry points: the
// paper's end-to-end numbers assume pre-partitioned data, while Table 2
// reports the partitioning cost on its own.
#ifndef SWIFTSPATIAL_JOIN_PBSM_H_
#define SWIFTSPATIAL_JOIN_PBSM_H_

#include <cstddef>

#include "common/thread_pool.h"
#include "datagen/dataset.h"
#include "grid/pbsm_partition.h"
#include "join/result.h"

namespace swiftspatial {

/// Tile-level join algorithm within each stripe.
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
/// partition-based driver: PBSM stripes, the grid-sharded partitioned driver,
/// and the async streaming executor in exec/.
void RunTileJoin(TileJoin tile_join, const Dataset& r, const Dataset& s,
                 const std::vector<ObjectId>& r_ids,
                 const std::vector<ObjectId>& s_ids, const Box* dedup_tile,
                 JoinResult* out, JoinStats* stats);

struct PbsmOptions {
  /// Number of 1-D stripes. The paper sweeps 1e2..1e5 and reports the best.
  int num_partitions = 1024;
  /// Partition along x and sweep along y, or vice versa.
  Axis axis = Axis::kX;
  std::size_t num_threads = 1;
  Schedule schedule = Schedule::kDynamic;
  TileJoin tile_join = TileJoin::kPlaneSweep;
};

/// Phase 1: partition both datasets into stripes. For the plane-sweep tile
/// join each stripe's id lists are also put in sweep order
/// (join/plane_sweep.h), on `options.num_threads` threads.
StripePartition PbsmPartition(const Dataset& r, const Dataset& s,
                              const PbsmOptions& options);

/// Phase 2: tile-wise join of a pre-built partition.
JoinResult PbsmJoin(const Dataset& r, const Dataset& s,
                    const StripePartition& partition,
                    const PbsmOptions& options, JoinStats* stats = nullptr);

/// Convenience: both phases.
JoinResult PbsmSpatialJoin(const Dataset& r, const Dataset& s,
                           const PbsmOptions& options,
                           JoinStats* stats = nullptr);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_PBSM_H_
