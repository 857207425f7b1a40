#include "join/partitioned_driver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/task_graph.h"
#include "join/plane_sweep.h"

namespace swiftspatial {

int AutoGridSide(std::size_t total_objects,
                 std::size_t target_cell_population) {
  const double total = static_cast<double>(total_objects);
  const double cells =
      std::max(1.0, total / static_cast<double>(target_cell_population));
  const int side = static_cast<int>(std::ceil(std::sqrt(cells)));
  return std::clamp(side, 1, 1024);
}

PartitionedDriver::PartitionedDriver(PartitionedDriverOptions options)
    : options_(std::move(options)) {}

Status ValidateGridConfig(int grid_cols, int grid_rows) {
  if (grid_cols < 0 || grid_rows < 0) {
    return Status::InvalidArgument("grid dimensions must be >= 0 (0 = auto)");
  }
  // Cap explicit grids so cols * rows cannot overflow int (and absurd cell
  // counts fail fast instead of exhausting memory).
  constexpr int kMaxGridSide = 1 << 14;
  if (grid_cols > kMaxGridSide || grid_rows > kMaxGridSide) {
    return Status::InvalidArgument("grid dimensions must be <= 16384");
  }
  if ((grid_cols == 0) != (grid_rows == 0)) {
    return Status::InvalidArgument(
        "grid_cols and grid_rows must both be set or both be auto (0)");
  }
  return Status::OK();
}

JoinGridSpec DeriveJoinGrid(const Dataset& r, const Dataset& s, int grid_cols,
                            int grid_rows,
                            std::size_t target_cell_population) {
  JoinGridSpec spec;
  // Disjoint or empty inputs produce no grid; callers short-circuit to the
  // empty result.
  if (r.empty() || s.empty()) return spec;
  Box extent = r.Extent();
  extent.Expand(s.Extent());
  if (extent.IsEmpty()) return spec;
  spec.has_grid = true;
  spec.extent = extent;
  if (grid_cols > 0) {
    spec.cols = grid_cols;
    spec.rows = grid_rows;
  } else {
    spec.cols = spec.rows =
        AutoGridSide(r.size() + s.size(), target_cell_population);
  }
  return spec;
}

std::size_t PartitionedPlanState::MemoryBytes() const {
  std::size_t bytes = sizeof(*this) + cells.capacity() * sizeof(cells[0]);
  for (const PartitionedCell& cell : cells) {
    bytes += (cell.r_ids.capacity() + cell.s_ids.capacity()) *
             sizeof(ObjectId);
  }
  return bytes;
}

Result<std::shared_ptr<const PartitionedPlanState>> PlanPartitionedCells(
    const Dataset& r, const Dataset& s,
    const PartitionedDriverOptions& options) {
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
  const JoinGridSpec spec =
      DeriveJoinGrid(r, s, options.grid_cols, options.grid_rows,
                     options.target_cell_population);
  if (!spec.has_grid) {
    return std::shared_ptr<const PartitionedPlanState>(std::move(plan));
  }
  plan->cols = spec.cols;
  plan->rows = spec.rows;

  const UniformGrid grid(spec.extent, plan->cols, plan->rows);
  std::vector<std::vector<ObjectId>> r_cells = grid.Assign(r);
  std::vector<std::vector<ObjectId>> s_cells = grid.Assign(s);

  plan->cells.reserve(grid.num_tiles());
  for (int t = 0; t < grid.num_tiles(); ++t) {
    if (r_cells[t].empty() || s_cells[t].empty()) continue;
    PartitionedCell cell;
    // Closing the last row/column of cells keeps reference points that land
    // exactly on the global boundary claimable (no cell beyond exists).
    cell.dedup_tile = grid.DedupTileByIndex(t);
    cell.r_ids = std::move(r_cells[t]);
    cell.s_ids = std::move(s_cells[t]);
    plan->cells.push_back(std::move(cell));
  }
  // Largest batches first: under dynamic scheduling the expensive cells
  // start early and the small ones backfill, tightening the makespan.
  std::sort(plan->cells.begin(), plan->cells.end(),
            [](const PartitionedCell& a, const PartitionedCell& b) {
              return a.r_ids.size() * a.s_ids.size() >
                     b.r_ids.size() * b.s_ids.size();
            });
  // Put every cell in sweep order once, here, so no Execute of this plan
  // sorts (the order contract of join/plane_sweep.h). Largest cells come
  // first, so dynamic scheduling balances the sorts as it does the joins.
  if (options.tile_join == TileJoin::kPlaneSweep) {
    ParallelFor(plan->cells.size(), options.num_threads, Schedule::kDynamic,
                [&plan, &r, &s](std::size_t i) {
                  PartitionedCell& cell = plan->cells[i];
                  SortForSweep(r, &cell.r_ids);
                  SortForSweep(s, &cell.s_ids);
                });
  }
  return std::shared_ptr<const PartitionedPlanState>(std::move(plan));
}

JoinResult ExecutePartitionedPlan(const PartitionedPlanState& plan,
                                  const Dataset& r, const Dataset& s,
                                  TileJoin tile_join, std::size_t num_threads,
                                  JoinStats* stats) {
  JoinResult merged;
  if (plan.cells.empty()) return merged;

  const std::size_t workers = std::max<std::size_t>(1, num_threads);
  std::vector<JoinStats> local_stats(workers);

  if (workers == 1) {
    // Inline on the calling thread; no pool, no graph.
    for (const PartitionedCell& cell : plan.cells) {
      RunTileJoin(tile_join, r, s, cell.r_ids, cell.s_ids, &cell.dedup_tile,
                  &merged, &local_stats[0]);
    }
  } else {
    // Cells run as one TaskGraph wave with the merge as a downstream task.
    // Cell joins can be tiny (sparse grids), so cells are batched into
    // strided groups -- group g joins cells g, g+G, g+2G, ... which keeps
    // the largest-first ordering balanced across groups -- to amortise the
    // per-task dispatch cost. Each worker appends into its own accumulator
    // (no shared state, no locks while joining); the merge concatenates the
    // per-worker buffers once. The resulting multiset is independent of
    // thread count and interleaving; only pair order varies (canonicalise
    // with JoinResult::Sort).
    std::vector<JoinResult> local_results(workers);
    ThreadPool pool(workers);
    exec::TaskGraph graph(&pool);
    const std::size_t groups =
        std::min(plan.cells.size(), workers * kCellTaskGroupsPerWorker);
    std::vector<exec::TaskId> cells;
    cells.reserve(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      cells.push_back(graph.Add([&plan, &r, &s, tile_join, g, groups, &pool,
                                 &local_results, &local_stats] {
        const std::size_t w = pool.CurrentWorkerIndex();
        for (std::size_t i = g; i < plan.cells.size(); i += groups) {
          const PartitionedCell& cell = plan.cells[i];
          RunTileJoin(tile_join, r, s, cell.r_ids, cell.s_ids,
                      &cell.dedup_tile, &local_results[w], &local_stats[w]);
        }
      }));
    }
    graph.Add(
        [&merged, &local_results] {
          std::size_t total = 0;
          for (const JoinResult& lr : local_results) total += lr.size();
          merged.Reserve(total);
          for (JoinResult& lr : local_results) merged.Merge(std::move(lr));
        },
        cells);
    graph.Wait();
  }

  if (stats != nullptr) {
    for (const JoinStats& ls : local_stats) *stats += ls;
  }
  return merged;
}

Status PartitionedDriver::Plan(const Dataset& r, const Dataset& s) {
  auto plan = PlanPartitionedCells(r, s, options_);
  if (!plan.ok()) return plan.status();
  plan_ = std::move(*plan);
  r_ = &r;
  s_ = &s;
  planned_ = true;
  return Status::OK();
}

JoinResult PartitionedDriver::Execute(JoinStats* stats) {
  if (!planned_ || plan_ == nullptr) return JoinResult();
  return ExecutePartitionedPlan(*plan_, *r_, *s_, options_.tile_join,
                                options_.num_threads, stats);
}

}  // namespace swiftspatial
