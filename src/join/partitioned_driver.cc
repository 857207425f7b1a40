#include "join/partitioned_driver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/sync.h"
#include "join/plane_sweep.h"
#include "obs/resource.h"

namespace swiftspatial {

namespace {

// Cell batching factor: cell joins are strided into at most
// `num_threads * kCellGroupsPerThread` groups per wave -- enough groups for
// dynamic load balancing while amortising per-claim overhead over many
// (often tiny) cells.
constexpr std::size_t kCellGroupsPerThread = 8;

// Cap on each side of an explicit grid, so cols * rows cannot overflow int
// (and absurd cell counts fail fast instead of exhausting memory).
constexpr int kMaxGridSide = 1 << 14;

// Side length of the auto-sized square grid: ~`target_cell_population`
// objects per cell on average, clamped to [1, 1024].
int AutoGridSide(std::size_t total_objects,
                 std::size_t target_cell_population) {
  const double total = static_cast<double>(total_objects);
  const double cells =
      std::max(1.0, total / static_cast<double>(target_cell_population));
  const int side = static_cast<int>(std::ceil(std::sqrt(cells)));
  return std::clamp(side, 1, 1024);
}

}  // namespace

Status ValidateGridConfig(int grid_cols, int grid_rows) {
  if (grid_cols < 0 || grid_rows < 0) {
    return Status::InvalidArgument("grid dimensions must be >= 0 (0 = auto)");
  }
  if (grid_cols > kMaxGridSide || grid_rows > kMaxGridSide) {
    return Status::InvalidArgument("grid dimensions must be <= 16384");
  }
  if ((grid_cols == 0) != (grid_rows == 0)) {
    return Status::InvalidArgument(
        "grid_cols and grid_rows must both be set or both be auto (0)");
  }
  return Status::OK();
}

Status ValidateStripeConfig(int num_partitions) {
  if (num_partitions < 1 || num_partitions > kMaxGridSide) {
    return Status::InvalidArgument("num_partitions must be in [1, 16384]");
  }
  return Status::OK();
}

JoinGridSpec DeriveJoinGrid(const DatasetStats& r, const DatasetStats& s,
                            int grid_cols, int grid_rows,
                            std::size_t target_cell_population) {
  JoinGridSpec spec;
  // Disjoint or empty inputs produce no grid; callers short-circuit to the
  // empty result.
  if (r.count == 0 || s.count == 0) return spec;
  Box extent = r.extent;
  extent.Expand(s.extent);
  if (extent.IsEmpty()) return spec;
  spec.has_grid = true;
  spec.extent = extent;
  if (grid_cols > 0) {
    spec.cols = grid_cols;
    spec.rows = grid_rows;
  } else {
    spec.cols = spec.rows =
        AutoGridSide(r.count + s.count, target_cell_population);
  }
  return spec;
}

std::size_t GridSide::MemoryBytes() const {
  return sizeof(*this) + offsets.capacity() * sizeof(offsets[0]) +
         entries.capacity() * sizeof(CellEntry);
}

std::shared_ptr<const GridSide> BuildGridSide(const Dataset& dataset,
                                              const UniformGrid& grid,
                                              std::size_t num_threads,
                                              const WaveContext& wave) {
  std::vector<CellLattice> lattices;
  lattices.reserve(static_cast<std::size_t>(grid.num_tiles()));
  for (int t = 0; t < grid.num_tiles(); ++t) {
    lattices.emplace_back(grid.TileBoxByIndex(t));
  }
  auto side = std::make_shared<GridSide>();
  // Each box is rounded onto its tile's lattice as it is scattered, while
  // the scatter reads boxes in id order.
  grid.AssignFlat(dataset, num_threads, wave, &side->offsets, &side->entries,
                  [&lattices](const Box& b, ObjectId id, int t) {
                    return lattices[static_cast<std::size_t>(t)].Round(b, id);
                  });
  // Sweep order once, here, so no execution of a plan pairing this half
  // sorts or reads a box to sweep (the order contract of
  // join/plane_sweep.h).
  ParallelFor(
      side->num_tiles(), num_threads, Schedule::kDynamic,
      [&](std::size_t t) {
        SortCellForSweep(dataset, {side->entries.data() + side->offsets[t],
                                   side->offsets[t + 1] - side->offsets[t]});
      },
      1, wave);
  return side;
}

std::vector<const PartitionedCell*> PartitionedPlanState::CellsInTileOrder()
    const {
  std::vector<const PartitionedCell*> ordered;
  for (const PartitionedCell& cell : cells) ordered.push_back(&cell);
  std::ranges::sort(ordered, {}, &PartitionedCell::tile);
  return ordered;
}

std::size_t PartitionedPlanState::MemoryBytes() const {
  return sizeof(*this) + cells.capacity() * sizeof(cells[0]);
}

Result<std::shared_ptr<const PartitionedPlanState>> PlanPartitionedCells(
    const JoinInput& r, const JoinInput& s,
    const PartitionedDriverOptions& options, const WaveContext& wave) {
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  SWIFT_RETURN_IF_ERROR(
      ValidateGridConfig(options.grid_cols, options.grid_rows));
  if (options.grid_cols == 0 && options.target_cell_population == 0) {
    return Status::InvalidArgument(
        "target_cell_population must be >= 1 for auto grid sizing");
  }

  auto plan = std::make_shared<PartitionedPlanState>();
  const JoinGridSpec spec = DeriveJoinGrid(
      r.stats ? *r.stats : r.data->Scan(), s.stats ? *s.stats : s.data->Scan(),
      options.grid_cols, options.grid_rows, options.target_cell_population);
  if (!spec.has_grid) {
    return std::shared_ptr<const PartitionedPlanState>(std::move(plan));
  }
  plan->cols = spec.cols;
  plan->rows = spec.rows;

  const UniformGrid grid(spec.extent, plan->cols, plan->rows);
  const auto half = [&](const JoinInput& input, const char* side) {
    const auto build = [&] {
      obs::ScopedSpan span(wave.trace, "plan.grid_side");
      span.AddAttr("side", side);
      return BuildGridSide(*input.data, grid, options.num_threads, wave);
    };
    return input.grid_sides != nullptr
               ? input.grid_sides->GetOrBuild(spec, build)
               : build();
  };
  plan->r_side = half(r, "r");
  plan->s_side = half(s, "s");

  for (int t = 0; t < grid.num_tiles(); ++t) {
    const auto r_cell = plan->r_side->Tile(static_cast<std::size_t>(t));
    const auto s_cell = plan->s_side->Tile(static_cast<std::size_t>(t));
    if (r_cell.empty() || s_cell.empty()) continue;
    // Closing the last row/column of cells keeps reference points that land
    // exactly on the global boundary claimable (no cell beyond exists).
    plan->cells.push_back({grid.DedupTileByIndex(t), t, r_cell, s_cell});
  }
  plan->cells.shrink_to_fit();  // MemoryBytes counts the capacity
  // Largest batches first: under dynamic scheduling the expensive cells
  // start early and the small ones backfill, tightening the makespan.
  std::sort(plan->cells.begin(), plan->cells.end(),
            [](const PartitionedCell& a, const PartitionedCell& b) {
              return a.r.size() * a.s.size() > b.r.size() * b.s.size();
            });
  return std::shared_ptr<const PartitionedPlanState>(std::move(plan));
}

Result<std::shared_ptr<const PartitionedPlanState>> PlanPartitionedCells(
    const Dataset& r, const Dataset& s,
    const PartitionedDriverOptions& options) {
  return PlanPartitionedCells(BorrowDataset(r), BorrowDataset(s), options);
}

Status ExecutePartitionedPlan(const PartitionedPlanState& plan,
                              const Dataset& r, const Dataset& s,
                              TileJoin tile_join, std::size_t num_threads,
                              const StreamTarget& target, JoinStats* stats) {
  if (plan.cells.empty()) return Status::OK();
  const std::size_t chunk_pairs = std::max<std::size_t>(1, target.chunk_pairs);
  const WaveContext& wave = target.wave;
  // Group g joins cells g, g+G, g+2G, ... -- strided groups keep the
  // largest-first order balanced across groups and amortise per-claim
  // overhead over many (often tiny) cells.
  const std::size_t groups =
      std::min(plan.cells.size(), num_threads * kCellGroupsPerThread);
  // Joins the group of cell `i` from that cell on, shipping every full
  // buffer. Returns the cell it stopped before: past the end, or -- when a
  // pool slot yielded on a full stream queue -- the group's next cell,
  // which the caller then joins.
  const auto join_group = [&](std::size_t i, JoinStats* group_stats) {
    JoinResult buffer;
    for (; i < plan.cells.size(); i += groups) {
      if (wave.cancel.cancelled()) break;
      const PartitionedCell& cell = plan.cells[i];
      RunTileJoin(tile_join, r, s, cell.r, cell.s, cell.dedup_tile, &buffer,
                  group_stats);
      if (buffer.size() >= chunk_pairs) {
        target.sink(std::move(buffer.mutable_pairs()));
        buffer = JoinResult();
        if (WaveSlotYielded()) return i + groups;
      }
    }
    if (!buffer.empty()) target.sink(std::move(buffer.mutable_pairs()));
    return plan.cells.size();
  };

  std::vector<JoinStats> slot_stats(std::max<std::size_t>(1, num_threads));
  Mutex mu;
  std::vector<std::size_t> handed_back;  // guarded by mu
  ParallelForWorker(
      groups, num_threads, Schedule::kDynamic,
      [&](std::size_t g, std::size_t slot) {
        if (wave.usage != nullptr) wave.usage->AddTasks(1);
        const std::size_t next = join_group(g, &slot_stats[slot]);
        if (next < plan.cells.size()) {
          MutexLock lock(&mu);
          handed_back.push_back(next);
        }
      },
      1, wave);
  // Only pool slots yield, so the caller finishes what they handed back.
  for (const std::size_t next : handed_back) join_group(next, &slot_stats[0]);

  if (stats != nullptr) {
    for (const JoinStats& ss : slot_stats) *stats += ss;
  }
  if (wave.cancel.cancelled()) {
    return Status::Aborted("join cancelled mid-stream");
  }
  return Status::OK();
}

JoinResult ExecutePartitionedPlan(const PartitionedPlanState& plan,
                                  const Dataset& r, const Dataset& s,
                                  TileJoin tile_join, std::size_t num_threads,
                                  JoinStats* stats, const WaveContext& wave) {
  Mutex mu;
  JoinResult merged;
  StreamTarget target;
  target.sink = [&mu, &merged](std::vector<ResultPair> batch) {
    MutexLock lock(&mu);
    auto& pairs = merged.mutable_pairs();
    if (pairs.empty()) {
      pairs = std::move(batch);
    } else {
      pairs.insert(pairs.end(), batch.begin(), batch.end());
    }
  };
  // One batch per cell group: the buffers never reach this chunk size.
  target.chunk_pairs = std::numeric_limits<std::size_t>::max();
  target.wave = wave;
  const Status st =
      ExecutePartitionedPlan(plan, r, s, tile_join, num_threads, target, stats);
  SWIFT_CHECK(st.ok() || wave.cancel.cancelled()) << st.ToString();
  return merged;
}

}  // namespace swiftspatial
