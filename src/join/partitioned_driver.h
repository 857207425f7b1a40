// The library's partition-parallel batched join driver, in two stages:
// PlanPartitionedCells builds an immutable cell plan, ExecutePartitionedPlan
// joins it (the `partitioned`, `simd` and `pbsm` engines' Prepare and their
// streamed and collecting executions; pbsm's 1-D stripes are a grid with one
// partitioned axis). The cell plan is the one partitioner: the sharding
// paths consume it too -- dist::PlanShards places its cells on cluster nodes
// (dist-pbsm, dist-accel) and hw::PartitionedJoin runs them as device
// partitions (accel-pbsm-4x) -- so no other code assigns objects to a grid.
//
// Both inputs are sharded onto a uniform grid (src/grid/uniform_grid.h,
// multi-assignment: an object lands in every cell its MBR overlaps). Each
// input's assignment is a GridSide -- one dataset's half of the plan: per
// tile, 12-byte entries (the box rounded outward onto the tile's 16-bit
// lattice, plus the id) in sweep order -- that depends only on that dataset
// and the grid, so the warm-serving registry caches it per dataset version
// and a re-registered R is re-planned without touching S. A plan pairs two
// halves: every cell with objects from both sides is one batched tile join
// (plane sweep, nested loop or the SIMD kernel). The plane sweep joins the
// entries in place and reads two exact boxes by id only for a pair whose
// rounded boxes overlap; its predicate count is the y-tests on the rounded
// boxes, and the other tile joins take the entries' ids in the same order.
// Cells are strided into groups that run as one dynamic wave
// (common/thread_pool.h; largest cells first, so they start earliest and
// the small ones backfill).
// Cross-cell duplicates -- a pair whose boxes co-occupy several cells -- are
// eliminated with the PBSM reference-point rule (Box::ReferencePointInTile):
// the pair is emitted only by the single cell containing the bottom-left
// corner of the pair's intersection.
//
// Results leave through a sink: every group stages its pairs in its own
// buffer (no shared state while joining) and hands the buffer over whenever
// it reaches the chunk size and at the end of the group, so a streamed
// execution ships results while later cells still join. A pool slot whose
// hand-over finds the stream's queue full yields (YieldWaveSlot): it stops
// its group there, and the wave's caller joins the rest of that group and
// every unclaimed one -- only the caller ever blocks on the consumer. The
// multiset is
// independent of the thread count and schedule; only the pair order varies,
// also within a cell between tile joins (canonicalise with
// JoinResult::Sort).
#ifndef SWIFTSPATIAL_JOIN_PARTITIONED_DRIVER_H_
#define SWIFTSPATIAL_JOIN_PARTITIONED_DRIVER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/dataset.h"
#include "geometry/box.h"
#include "grid/uniform_grid.h"
#include "join/engine.h"
#include "join/plane_sweep.h"
#include "join/result.h"
#include "join/tile_join.h"

namespace swiftspatial {

/// Default auto-sizing target: objects per grid cell (both sides combined).
inline constexpr std::size_t kDefaultCellPopulation = 128;

/// Fail-fast validation of grid dimensions (0 = auto on both, bounded so
/// cols * rows cannot overflow int). One definition shared by the
/// partitioned engines' Prepare, the streaming layer's fail-fast check and
/// the distributed engines, so they never drift apart on which
/// configurations they accept.
Status ValidateGridConfig(int grid_cols, int grid_rows);

/// The same check for pbsm's stripe count (EngineConfig::num_partitions):
/// at least one stripe, at most the grid cap on one side.
Status ValidateStripeConfig(int num_partitions);

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

/// The single authority for sizing a join's uniform grid: PlanPartitionedCells
/// derives every plan's grid through it, and the sharding planners take that
/// plan, so shard ids agree across engines. Reads only the inputs' scanned
/// facts (Dataset::Scan): the joint extent and the combined count. Explicit
/// `grid_cols > 0` wins; otherwise the grid is a square of side
/// ~sqrt(combined cardinality / target_cell_population), clamped to
/// [1, 1024]. Callers validate dimensions first (ValidateGridConfig).
JoinGridSpec DeriveJoinGrid(
    const DatasetStats& r, const DatasetStats& s, int grid_cols,
    int grid_rows,
    std::size_t target_cell_population = kDefaultCellPopulation);

struct PartitionedDriverOptions {
  /// Grid resolution. 0 = auto-size so the average cell holds roughly
  /// `target_cell_population` objects.
  int grid_cols = 0;
  int grid_rows = 0;
  /// Target objects per cell for auto-sizing (both sides combined).
  std::size_t target_cell_population = kDefaultCellPopulation;
  std::size_t num_threads = 1;
  // Note: the driver has no Schedule knob. Execution is a dynamic wave --
  // free slots claim the next group; OpenMP-style static/dynamic selection
  // remains on parallel_sync_traversal.
};

/// A std::allocator that default-initialises what a vector value-
/// initialises, so resizing a vector of a trivial type writes nothing: its
/// pages are first touched by whoever fills them.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// One dataset's half of a grid plan: for every tile of one grid (one
/// JoinGridSpec), the dataset's objects overlapping it as CellEntry
/// (join/plane_sweep.h): the box rounded outward onto the tile's lattice,
/// plus the id, in sweep order, so no execution sorts or gathers boxes.
/// Tile t's entries are entries[offsets[t], offsets[t + 1]). Immutable once
/// built; every plan that pairs it shares it and never copies its entries.
struct GridSide {
  std::vector<std::size_t> offsets;
  /// Left uninitialised by the resize that sizes it, so the wave that
  /// scatters the entries, not one thread zeroing them, first touches
  /// every page.
  std::vector<CellEntry, DefaultInitAllocator<CellEntry>> entries;

  std::size_t num_tiles() const { return offsets.size() - 1; }
  std::span<const CellEntry> Tile(std::size_t t) const {
    return {entries.data() + offsets[t], offsets[t + 1] - offsets[t]};
  }

  /// Resident footprint (the struct, its entries and offsets), for cache
  /// accounting.
  std::size_t MemoryBytes() const;
};

/// Builds `dataset`'s half on `grid`: UniformGrid::AssignFlat scatters
/// every object straight into the entries, rounded on its tile's lattice
/// (CellLattice), then one wave puts every tile in sweep order
/// (SortCellForSweep), all of width `num_threads` under `wave`. The half is
/// the same for every thread count.
std::shared_ptr<const GridSide> BuildGridSide(const Dataset& dataset,
                                              const UniformGrid& grid,
                                              std::size_t num_threads,
                                              const WaveContext& wave = {});

/// Where the planner gets one dataset version's halves (JoinInput::
/// grid_sides). The warm-serving registry implements it; a half depends only
/// on the dataset and the spec, so any plan over that dataset version and
/// spec may reuse it.
class GridSideStore {
 public:
  virtual ~GridSideStore() = default;
  /// The stored half for `spec`, or `build()`'s, now stored.
  virtual std::shared_ptr<const GridSide> GetOrBuild(
      const JoinGridSpec& spec,
      const std::function<std::shared_ptr<const GridSide>()>& build) = 0;
};

/// One populated grid cell of a partitioned plan: its row-major tile index,
/// the per-side entries to join (views into the plan's halves) and the
/// reference-point dedup tile (cell box, closed at the extent max per the
/// half-open rule).
struct PartitionedCell {
  Box dedup_tile;
  int tile = 0;
  std::span<const CellEntry> r;
  std::span<const CellEntry> s;
};

/// The immutable output of partitioned planning: the derived grid, the two
/// halves it pairs, and the cells populated on both sides, largest first.
/// Once built it is never mutated -- ExecutePartitionedPlan reads it const --
/// so one plan may be shared (shared_ptr) across threads and across repeated
/// executions, which is what the warm-serving plan cache
/// (exec/dataset_registry) relies on.
struct PartitionedPlanState {
  int cols = 0;
  int rows = 0;
  std::shared_ptr<const GridSide> r_side;
  std::shared_ptr<const GridSide> s_side;
  std::vector<PartitionedCell> cells;

  /// The cells in row-major tile order (they are stored largest first).
  std::vector<const PartitionedCell*> CellsInTileOrder() const;

  /// Footprint of the cells only: the halves are accounted where they are
  /// stored (the registry), so no byte is counted twice.
  std::size_t MemoryBytes() const;
};

/// Plans the grid join of (r, s): validates options, derives the grid from
/// the inputs' facts (DeriveJoinGrid; inputs without facts are scanned),
/// gets or builds each side's half (from the input's GridSideStore when it
/// has one, else BuildGridSide under `wave`; each build records a
/// `plan.grid_side` span under `wave.trace` with attribute side=r|s), and
/// pairs them: the tiles
/// populated on both sides, largest |r|*|s| first. The plan is the same for
/// every thread count and whether or not a half came from a store.
/// Empty/disjoint inputs yield a plan with no cells.
Result<std::shared_ptr<const PartitionedPlanState>> PlanPartitionedCells(
    const JoinInput& r, const JoinInput& s,
    const PartitionedDriverOptions& options, const WaveContext& wave = {});

/// The same planner over borrowed datasets.
Result<std::shared_ptr<const PartitionedPlanState>> PlanPartitionedCells(
    const Dataset& r, const Dataset& s,
    const PartitionedDriverOptions& options);

/// Joins every cell of a previously built plan, handing the pairs to
/// `target.sink` as described above: one wave of width `num_threads` under
/// `target.wave` (inline on the calling thread at width 1), whose
/// accounting counts every cell group as one task. Once the token is
/// cancelled every group stops at its next cell and the call returns
/// Aborted. Thread-safe for concurrent callers sharing one plan: all plan
/// state is read const, each call owns its buffers. `r` and `s` must be the
/// datasets the plan was built from; `stats` may be null.
Status ExecutePartitionedPlan(const PartitionedPlanState& plan,
                              const Dataset& r, const Dataset& s,
                              TileJoin tile_join, std::size_t num_threads,
                              const StreamTarget& target, JoinStats* stats);

/// The same executor, collecting every pair into one result.
JoinResult ExecutePartitionedPlan(const PartitionedPlanState& plan,
                                  const Dataset& r, const Dataset& s,
                                  TileJoin tile_join, std::size_t num_threads,
                                  JoinStats* stats,
                                  const WaveContext& wave = {});

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_PARTITIONED_DRIVER_H_
