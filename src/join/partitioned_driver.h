// PartitionedDriver: the library's partition-parallel batched join driver.
//
// Both inputs are sharded onto a uniform grid (src/grid/uniform_grid.h,
// multi-assignment: an object lands in every cell its MBR overlaps); each
// cell with objects from both sides becomes one batched tile-join task
// (plane sweep or nested loop); tasks run as one exec::TaskGraph wave on a
// ThreadPool, with the final merge expressed as a downstream task depending
// on every cell (largest cells are added first, so they start earliest and
// the small ones backfill). Cross-cell duplicates -- a pair whose boxes
// co-occupy several cells -- are eliminated with the PBSM reference-point
// rule (Box::ReferencePointInTile): the pair is emitted only by the single
// cell containing the bottom-left corner of the pair's intersection.
//
// The merge is lock-free on the hot path: every worker appends into its own
// JoinResult/JoinStats accumulator (no shared state while joining), and the
// per-worker buffers are concatenated once, after the pool drains. The
// resulting multiset is therefore independent of the thread count and
// schedule; only the pair order varies (canonicalise with JoinResult::Sort).
#ifndef SWIFTSPATIAL_JOIN_PARTITIONED_DRIVER_H_
#define SWIFTSPATIAL_JOIN_PARTITIONED_DRIVER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/dataset.h"
#include "geometry/box.h"
#include "grid/uniform_grid.h"
#include "join/pbsm.h"
#include "join/result.h"

namespace swiftspatial {

/// Default auto-sizing target: objects per grid cell (both sides combined).
/// Shared by PartitionedDriverOptions and the streaming executor so the
/// `partitioned` and `async` engines plan identical grids.
inline constexpr std::size_t kDefaultCellPopulation = 128;

/// Cell-task batching factor: cell joins are strided into at most
/// `workers * kCellTaskGroupsPerWorker` tasks per wave -- enough groups for
/// dynamic load balancing while amortising per-task dispatch over many
/// (often tiny) cells. Shared with the streaming executor so the sync and
/// async paths keep the same dispatch granularity.
inline constexpr std::size_t kCellTaskGroupsPerWorker = 8;

/// Side length of the auto-sized square grid: ~`target_cell_population`
/// objects per cell on average, clamped to [1, 1024]. Shared by the
/// synchronous driver and the banded streaming executor in exec/streaming
/// so both paths shard identically.
int AutoGridSide(std::size_t total_objects,
                 std::size_t target_cell_population);

/// Fail-fast validation of grid dimensions (0 = auto on both, bounded so
/// cols * rows cannot overflow int). One definition shared by the
/// synchronous driver and the streaming executor, so the `partitioned` and
/// `async` engines can never drift apart on which configurations they
/// accept.
Status ValidateGridConfig(int grid_cols, int grid_rows);

/// One grid decision for a join: the joint extent plus the derived (or
/// explicit) resolution.
struct JoinGridSpec {
  /// False when either input is empty or the joint extent is degenerate --
  /// there is nothing to grid (and no pairs to produce).
  bool has_grid = false;
  Box extent;
  int cols = 0;
  int rows = 0;
};

/// The single authority for sizing a join's uniform grid, shared by every
/// grid-sharding planner -- the synchronous PartitionedDriver, the banded
/// streaming executor (exec/streaming), and the distributed ShardPlanner
/// (dist/shard_planner). Cross-engine shard-id stability depends on all
/// three deriving the *same* grid for the same inputs; routing them through
/// one helper makes silent drift impossible. Explicit `grid_cols > 0` wins;
/// otherwise the grid is auto-sized via AutoGridSide over the combined
/// cardinality. Callers validate dimensions first (ValidateGridConfig).
JoinGridSpec DeriveJoinGrid(
    const Dataset& r, const Dataset& s, int grid_cols, int grid_rows,
    std::size_t target_cell_population = kDefaultCellPopulation);

struct PartitionedDriverOptions {
  /// Grid resolution. 0 = auto-size so the average cell holds roughly
  /// `target_cell_population` objects.
  int grid_cols = 0;
  int grid_rows = 0;
  /// Target objects per cell for auto-sizing (both sides combined).
  std::size_t target_cell_population = kDefaultCellPopulation;
  std::size_t num_threads = 1;
  /// Tile-level join within each cell.
  TileJoin tile_join = TileJoin::kPlaneSweep;
  // Note: the driver has no Schedule knob. Execution is a TaskGraph wave --
  // idle workers pull the next ready group, i.e. inherently dynamic;
  // OpenMP-style static/dynamic selection remains on the ParallelFor-based
  // algorithms (pbsm, parallel_sync_traversal).
};

/// One populated grid cell of a partitioned plan: the per-side id lists to
/// join plus the reference-point dedup tile (cell box, closed at the extent
/// max per the half-open rule). For the plane-sweep tile join the id lists
/// are in sweep order (join/plane_sweep.h), so Execute never sorts them.
struct PartitionedCell {
  Box dedup_tile;
  std::vector<ObjectId> r_ids;
  std::vector<ObjectId> s_ids;
};

/// The immutable output of partitioned planning: the derived grid and the
/// populated cells, largest first. Once built it is never mutated --
/// Execute reads it const -- so one plan may be shared (shared_ptr) across
/// threads and across repeated executions, which is what the warm-serving
/// plan cache (exec/dataset_registry) relies on.
struct PartitionedPlanState {
  int cols = 0;
  int rows = 0;
  std::vector<PartitionedCell> cells;

  /// Rough resident footprint, for cache accounting.
  std::size_t MemoryBytes() const;
};

/// Plans the grid join of (r, s): validates options, derives the grid
/// (DeriveJoinGrid), and builds the per-cell id lists, sorting them into
/// sweep order on `options.num_threads` threads when the tile join is the
/// plane sweep. Empty/disjoint inputs yield a plan with no cells.
Result<std::shared_ptr<const PartitionedPlanState>> PlanPartitionedCells(
    const Dataset& r, const Dataset& s,
    const PartitionedDriverOptions& options);

/// Joins every cell of a previously built plan. Thread-safe for concurrent
/// callers sharing one plan: all plan state is read const, each call owns
/// its accumulators. `r` and `s` must be the datasets the plan was built
/// from; `stats` may be null.
JoinResult ExecutePartitionedPlan(const PartitionedPlanState& plan,
                                  const Dataset& r, const Dataset& s,
                                  TileJoin tile_join, std::size_t num_threads,
                                  JoinStats* stats);

/// Two-stage partition-parallel join driver. Plan shards the inputs onto the
/// grid; Execute joins the populated cells on `num_threads` workers and
/// merges the per-worker results. Execute may be called repeatedly after one
/// Plan; the datasets given to Plan must outlive the last Execute.
class PartitionedDriver {
 public:
  explicit PartitionedDriver(PartitionedDriverOptions options = {});

  /// Validates options, derives the grid, and builds per-cell id lists.
  Status Plan(const Dataset& r, const Dataset& s);

  /// Joins all populated cells in parallel. `stats` may be null.
  JoinResult Execute(JoinStats* stats = nullptr);

  // Introspection (valid after Plan).
  int grid_cols() const { return plan_ ? plan_->cols : 0; }
  int grid_rows() const { return plan_ ? plan_->rows : 0; }
  /// Cells where both inputs are populated (the parallel task count).
  std::size_t num_tasks() const { return plan_ ? plan_->cells.size() : 0; }
  /// The immutable plan (valid after Plan); shareable beyond the driver.
  std::shared_ptr<const PartitionedPlanState> plan_state() const {
    return plan_;
  }

 private:
  PartitionedDriverOptions options_;
  const Dataset* r_ = nullptr;
  const Dataset* s_ = nullptr;
  std::shared_ptr<const PartitionedPlanState> plan_;
  bool planned_ = false;
};

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_PARTITIONED_DRIVER_H_
