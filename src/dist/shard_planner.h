// ShardPlanner: turns one spatial join into node-placed shards.
//
// The shards are the cells of the join's cell plan (PlanPartitionedCells,
// join/partitioned_driver.h): the grid, the per-dataset GridSide halves --
// registry-cached per dataset version, built in waves -- and the
// reference-point dedup tiles of the partitioned engines and hw/multi_device,
// here made the unit of *distribution*. Each populated cell is one Shard
// with a stable id (its row-major grid tile index: a pure function of the
// grid geometry, so a shard re-executed after a node failure reports the
// same id) that points at its cell instead of copying its entries. The
// planner then maps shards onto nodes under one of the PlacementPolicy
// strategies and accounts the boundary-object replicas that placement
// implies: an object whose MBR spans cells owned by k distinct nodes must be
// shipped to all k.
#ifndef SWIFTSPATIAL_DIST_SHARD_PLANNER_H_
#define SWIFTSPATIAL_DIST_SHARD_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "datagen/dataset.h"
#include "dist/placement.h"
#include "geometry/box.h"
#include "join/partitioned_driver.h"

namespace swiftspatial::dist {

/// One distributable unit of join work: a populated grid cell.
struct Shard {
  /// Stable identity: the owning grid tile index (row-major). Deterministic
  /// under re-planning and re-execution -- the fault-recovery dedup key.
  int id = 0;
  /// The cell this shard joins, owned by ShardPlan::cells: its
  /// reference-point dedup tile (the partitioned engines', so cross-node
  /// dedup agrees with every other engine) and entries in sweep order.
  const PartitionedCell* cell = nullptr;

  /// Estimated tile-pair work, the cost-balancing unit.
  uint64_t EstimatedCost() const {
    return static_cast<uint64_t>(cell->r.size()) *
           static_cast<uint64_t>(cell->s.size());
  }
};

/// A placed shard plan: which node owns which shard, plus the replication
/// bill the placement implies.
struct ShardPlan {
  int grid_cols = 0;
  int grid_rows = 0;
  PlacementPolicy placement = PlacementPolicy::kCostBalanced;
  /// The cell plan the shards point into (and the halves it pairs).
  std::shared_ptr<const PartitionedPlanState> cells;
  /// One shard per populated cell, in row-major tile order.
  std::vector<Shard> shards;
  /// owner[i] = node index executing shards[i] (initial assignment; fault
  /// recovery may move a shard to a survivor at run time).
  std::vector<int> owner;
  /// Estimated per-node load (sum of EstimatedCost over owned shards).
  std::vector<uint64_t> node_cost;
  /// Boundary-object replicas: sum over objects of (distinct owner nodes
  /// the object's cells map to) - 1. Zero when every object's cells land on
  /// one node.
  std::size_t replicated_objects = 0;
  /// Modelled bytes to ship shard inputs to their nodes: every (object,
  /// node) placement pairs costs one box + id; replicas are what placement
  /// policy can reduce.
  uint64_t input_bytes = 0;
};

/// Plans `num_nodes`-way placement of the (r, s) join over the cell plan
/// PlanPartitionedCells builds for the same grid (0 x 0 auto-sizes): the
/// inputs' stats and GridSideStores are used when present, and the halves
/// are built in waves of width `num_threads` under `wave`. Fails with
/// InvalidArgument on bad grid dimensions or num_nodes < 1. Empty inputs
/// yield a plan without shards.
Result<ShardPlan> PlanShards(const JoinInput& r, const JoinInput& s,
                             int grid_cols, int grid_rows, int num_nodes,
                             PlacementPolicy placement,
                             std::size_t num_threads = 1,
                             const WaveContext& wave = {});

}  // namespace swiftspatial::dist

#endif  // SWIFTSPATIAL_DIST_SHARD_PLANNER_H_
