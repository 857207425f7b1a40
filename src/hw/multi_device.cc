#include "hw/multi_device.h"

#include <algorithm>
#include <span>
#include <string>

#include "common/logging.h"
#include "geometry/box.h"
#include "grid/hierarchical_partition.h"

namespace swiftspatial::hw {

const char* OutOfMemoryStrategyToString(OutOfMemoryStrategy s) {
  switch (s) {
    case OutOfMemoryStrategy::kMultipleDevices:
      return "multiple-devices";
    case OutOfMemoryStrategy::kSingleDeviceIterative:
      return "single-device-iterative";
  }
  return "unknown";
}

namespace {

// Conservative device-footprint estimate for planning: tile stores (entry
// plus packing slack per side), task table, and result slack.
uint64_t EstimatePartitionBytes(std::size_t nr, std::size_t ns) {
  return 64ULL * (nr + ns) + (1ULL << 16);
}

}  // namespace

AcceleratorReport RunCellOnDevice(const AcceleratorConfig& device,
                                  int tile_cap, const Dataset& r,
                                  const Dataset& s,
                                  const PartitionedCell& cell,
                                  std::vector<ResultPair>* pairs) {
  const auto gather = [](const Dataset& d, std::span<const CellEntry> cell) {
    std::vector<Box> boxes;
    boxes.reserve(cell.size());
    for (const CellEntry& e : cell) {
      boxes.push_back(d.box(static_cast<std::size_t>(e.id)));
    }
    return boxes;
  };
  const Dataset sub_r("cell_r", gather(r, cell.r));
  const Dataset sub_s("cell_s", gather(s, cell.s));

  HierarchicalPartitionOptions hp;
  hp.tile_cap = tile_cap;
  // Scale the inner grid to the cell population to keep hierarchical
  // splitting shallow.
  hp.initial_grid = std::clamp(
      static_cast<int>(std::max(sub_r.size(), sub_s.size()) / 64), 4, 64);
  const auto partition = PartitionHierarchical(sub_r, sub_s, hp);

  JoinResult local;
  AcceleratorReport report =
      Accelerator(device).RunPbsm(sub_r, sub_s, partition, &local);

  // Cross-cell dedup: multi-assigned pairs are claimed only by the grid
  // cell holding their reference point.
  pairs->reserve(pairs->size() + local.size());
  for (const ResultPair& p : local.pairs()) {
    const ObjectId gr = cell.r[static_cast<std::size_t>(p.r)].id;
    const ObjectId gs = cell.s[static_cast<std::size_t>(p.s)].id;
    if (!ReferencePointInTile(r.box(static_cast<std::size_t>(gr)),
                              s.box(static_cast<std::size_t>(gs)),
                              cell.dedup_tile)) {
      continue;
    }
    pairs->push_back(ResultPair{gr, gs});
  }
  return report;
}

Result<MultiDeviceReport> PartitionedJoin(const Dataset& r, const Dataset& s,
                                          const MultiDeviceConfig& config,
                                          JoinResult* result) {
  SWIFT_CHECK_GE(config.max_grid, 1);
  SWIFT_CHECK_GE(config.min_grid, 1);
  SWIFT_CHECK_LE(config.min_grid, config.max_grid);
  MultiDeviceReport report;
  if (result != nullptr) result->mutable_pairs().clear();
  JoinInput r_input = BorrowDataset(r);
  JoinInput s_input = BorrowDataset(s);
  r_input.stats = r.Scan();
  s_input.stats = s.Scan();

  // The smallest power-of-two grid (>= min_grid per axis) whose partitions
  // fit the device: first by the footprint estimate of every tile of its
  // cell plan, one-sided tiles too; then by the footprint the cells' runs
  // actually need (block stores grow with multi-assignment and over-cap
  // splitting). Refining a grid only shrinks tiles, so a grid whose
  // estimate fits keeps fitting. Each resolution is planned once.
  for (int grid_res = config.min_grid;; grid_res *= 2) {
    PartitionedDriverOptions grid;
    grid.grid_cols = grid.grid_rows = grid_res;
    SWIFT_ASSIGN_OR_RETURN(auto plan,
                           PlanPartitionedCells(r_input, s_input, grid));
    if (plan->r_side == nullptr) return report;  // nothing to grid
    uint64_t worst = 0;
    for (std::size_t t = 0; t < plan->r_side->num_tiles(); ++t) {
      worst = std::max(worst,
                       EstimatePartitionBytes(plan->r_side->Tile(t).size(),
                                              plan->s_side->Tile(t).size()));
    }
    if (worst > config.device_memory_bytes) {
      if (grid_res < config.max_grid) continue;
      return Status::InvalidArgument(
          "cannot fit partitions into device memory even at grid " +
          std::to_string(grid_res) + " (worst partition needs ~" +
          std::to_string(worst) + " bytes, capacity " +
          std::to_string(config.device_memory_bytes) + ")");
    }

    // Execute the plan's cells in tile order.
    report = MultiDeviceReport{};
    if (result != nullptr) result->mutable_pairs().clear();
    report.grid_resolution = grid_res;
    const std::vector<const PartitionedCell*> cells = plan->CellsInTileOrder();
    report.partitions = cells.size();
    report.devices = config.strategy == OutOfMemoryStrategy::kMultipleDevices
                         ? cells.size()
                         : (cells.empty() ? 0 : 1);
    for (const PartitionedCell* cell : cells) {
      std::vector<ResultPair> kept;
      AcceleratorReport sub_report = RunCellOnDevice(
          config.device, config.tile_cap, r, s, *cell, &kept);
      report.max_partition_bytes =
          std::max(report.max_partition_bytes, sub_report.device_bytes_used);
      report.num_results += kept.size();
      if (result != nullptr) {
        auto& pairs = result->mutable_pairs();
        pairs.insert(pairs.end(), kept.begin(), kept.end());
      }
      // Deduped pairs are final members of the global join result, so they
      // may stream out before later partitions run: the delivered sequence
      // stays a genuine prefix even if a later partition fails.
      if (config.partition_sink && !kept.empty()) {
        config.partition_sink(cell->tile, std::move(kept));
      }

      if (config.strategy == OutOfMemoryStrategy::kMultipleDevices) {
        report.total_seconds =
            std::max(report.total_seconds, sub_report.total_seconds);
      } else {
        report.total_seconds += sub_report.total_seconds;
      }
      report.sub_reports.push_back(std::move(sub_report));
    }

    if (report.max_partition_bytes <= config.device_memory_bytes) {
      return report;
    }
    if (config.partition_sink) {
      // A retry would re-run every partition and re-stream already-delivered
      // pairs as duplicates; fail instead (see MultiDeviceConfig).
      return Status::InvalidArgument(
          "streaming multi-device join needs a grid refinement (partition "
          "footprint " + std::to_string(report.max_partition_bytes) +
          " bytes exceeds device memory " +
          std::to_string(config.device_memory_bytes) +
          "); raise device_memory_bytes or min_grid");
    }
    if (grid_res >= config.max_grid) {
      return Status::InvalidArgument(
          "a partition footprint of " +
          std::to_string(report.max_partition_bytes) +
          " bytes exceeds device memory (" +
          std::to_string(config.device_memory_bytes) + ") even at grid " +
          std::to_string(grid_res));
    }
  }
}

}  // namespace swiftspatial::hw
