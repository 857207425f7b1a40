// Larger-than-device-memory joins (§6 "Handling datasets larger than FPGA
// memory"). The paper sketches three solutions; this module implements the
// first two:
//
//  * kMultipleDevices -- partition the data spatially and give each
//    partition's sub-join to its own FPGA; sub-joins run concurrently and
//    results are aggregated (the paper's "handled by multiple FPGAs before
//    the results are aggregated").
//  * kSingleDeviceIterative -- one FPGA processes all partitions in
//    sequence ("a single FPGA can process all data partitions
//    iteratively"), paying the per-partition transfer each time.
//
// The partitions are the cells of the join's partitioned plan
// (PlanPartitionedCells, join/partitioned_driver.h): a uniform grid with
// multi-assignment plus the reference-point rule, so the union of sub-join
// results is exactly the global join (no duplicates, nothing lost). Each
// cell runs through RunCellOnDevice -- the device's PBSM flow over a
// hierarchical sub-partition -- which is also how a dist-accel node runs a
// shard.
//
// A device memory capacity (bytes) models the constraint: the planner
// raises the grid resolution until every partition's working set fits,
// planning each resolution once and executing the cells of the plan that
// fits, in tile order.
#ifndef SWIFTSPATIAL_HW_MULTI_DEVICE_H_
#define SWIFTSPATIAL_HW_MULTI_DEVICE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "datagen/dataset.h"
#include "hw/accelerator.h"
#include "join/partitioned_driver.h"

namespace swiftspatial::hw {

/// Execution strategy for out-of-memory joins (§6).
enum class OutOfMemoryStrategy {
  kMultipleDevices,
  kSingleDeviceIterative,
};

const char* OutOfMemoryStrategyToString(OutOfMemoryStrategy s);

struct MultiDeviceConfig {
  AcceleratorConfig device;
  /// Per-device DRAM capacity in bytes. The real U250 has 64 GB; tests and
  /// benches use small values to force partitioning.
  uint64_t device_memory_bytes = 64ULL << 30;
  OutOfMemoryStrategy strategy = OutOfMemoryStrategy::kMultipleDevices;
  /// Hierarchical-partition tile cap used inside each partition.
  int tile_cap = 16;
  /// Upper bound on the partition search (grid cells per axis).
  int max_grid = 64;
  /// Lower bound on the partition search: forces at least min_grid^2 grid
  /// cells even when one device could hold everything. This is how the
  /// sharded path is exercised deliberately (e.g. the "accel-pbsm-4x"
  /// engine pins a 2x2 grid = up to 4 concurrent devices).
  int min_grid = 1;
  /// Streaming hook: when set, each partition's *deduplicated, global-id*
  /// results are handed over as that partition's sub-join retires, instead
  /// of only accumulating into the final JoinResult. `shard_id` is the
  /// partition's outer grid tile index -- a pure function of the grid
  /// geometry, NOT the enumeration order of populated partitions -- so a
  /// shard re-executed later (e.g. by the dist/ fault-recovery path after
  /// a node failure) reports the same id and downstream dedup can match
  /// retried output to the original deterministically. Because streamed
  /// pairs cannot be recalled, a run that would need a grid-refinement
  /// retry (actual footprint overrunning device memory) fails with
  /// InvalidArgument rather than re-streaming duplicates; size
  /// device_memory_bytes generously when streaming.
  std::function<void(int shard_id, std::vector<ResultPair>)> partition_sink;
};

/// Outcome of a partitioned join.
struct MultiDeviceReport {
  /// Partitions actually used (grid cells with work).
  std::size_t partitions = 0;
  int grid_resolution = 0;
  /// Devices employed (= partitions for kMultipleDevices, 1 otherwise).
  std::size_t devices = 0;
  /// Modelled end-to-end seconds. Multiple devices: max over concurrent
  /// sub-joins; iterative: sum over sequential ones.
  double total_seconds = 0;
  /// Largest per-partition device footprint (must fit device memory).
  uint64_t max_partition_bytes = 0;
  uint64_t num_results = 0;
  /// Per-partition device reports, in grid order.
  std::vector<AcceleratorReport> sub_reports;
};

/// One cell's sub-join on a simulated device: gathers the cell's boxes
/// (device-local id = position in the cell's lists), partitions them
/// hierarchically under `tile_cap` with the inner grid scaled to the cell's
/// population, runs RunPbsm, maps the local ids back to r's and s's ids and
/// appends to `pairs` those whose reference point lies in the cell's dedup
/// tile. The per-partition recipe of PartitionedJoin and of every dist-accel
/// shard.
AcceleratorReport RunCellOnDevice(const AcceleratorConfig& device,
                                  int tile_cap, const Dataset& r,
                                  const Dataset& s,
                                  const PartitionedCell& cell,
                                  std::vector<ResultPair>* pairs);

/// Joins r and s under a device-memory constraint (see file comment).
/// Fails with InvalidArgument when even the finest grid cannot fit a
/// partition into device memory.
Result<MultiDeviceReport> PartitionedJoin(const Dataset& r, const Dataset& s,
                                          const MultiDeviceConfig& config,
                                          JoinResult* result = nullptr);

}  // namespace swiftspatial::hw

#endif  // SWIFTSPATIAL_HW_MULTI_DEVICE_H_
