// ShardPlanner: turns one spatial join into node-placed shards.
//
// Both inputs are sharded onto a uniform grid exactly as the single-machine
// PlanPartitionedCells does (multi-assignment, reference-point dedup tiles via
// UniformGrid::DedupTileByIndex), so a shard is the same unit the
// partitioned engines and hw/multi_device already use -- here it becomes the
// unit of *distribution*. Each populated grid cell is one Shard carrying a
// stable id (its grid tile index: a pure function of the grid geometry, so a
// shard re-executed after a node failure reports the same id), its dedup
// tile, and the per-side object id lists. The planner then maps shards onto
// nodes under one of the PlacementPolicy strategies and accounts the
// boundary-object replicas that placement implies: an object whose MBR spans
// cells owned by k distinct nodes must be shipped to all k.
#ifndef SWIFTSPATIAL_DIST_SHARD_PLANNER_H_
#define SWIFTSPATIAL_DIST_SHARD_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "datagen/dataset.h"
#include "dist/placement.h"
#include "geometry/box.h"

namespace swiftspatial::dist {

/// One distributable unit of join work: a populated grid cell.
struct Shard {
  /// Stable identity: the owning grid tile index (row-major). Deterministic
  /// under re-planning and re-execution -- the fault-recovery dedup key.
  int id = 0;
  /// Reference-point dedup tile (grid cell closed at the global extent max
  /// per the CloseLastTile convention), identical to the single-machine
  /// drivers' so cross-node dedup agrees with every other engine.
  Box dedup_tile;
  std::vector<ObjectId> r_ids;
  std::vector<ObjectId> s_ids;

  /// Estimated tile-pair work, the cost-balancing unit.
  uint64_t EstimatedCost() const {
    return static_cast<uint64_t>(r_ids.size()) *
           static_cast<uint64_t>(s_ids.size());
  }
};

/// A placed shard plan: which node owns which shard, plus the replication
/// bill the placement implies.
struct ShardPlan {
  int grid_cols = 0;
  int grid_rows = 0;
  PlacementPolicy placement = PlacementPolicy::kCostBalanced;
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

/// Plans `num_nodes`-way placement of the (r, s) join. Grid dimensions of 0
/// auto-size exactly like PlanPartitionedCells (DeriveJoinGrid, over
/// `r_stats`/`s_stats` when the caller already scanned the inputs, else
/// over a fresh Dataset::Scan). Fails with InvalidArgument on bad grid
/// dimensions or num_nodes < 1. Empty inputs yield an empty plan.
Result<ShardPlan> PlanShards(const Dataset& r, const Dataset& s,
                             int grid_cols, int grid_rows, int num_nodes,
                             PlacementPolicy placement,
                             const DatasetStats* r_stats = nullptr,
                             const DatasetStats* s_stats = nullptr);

}  // namespace swiftspatial::dist

#endif  // SWIFTSPATIAL_DIST_SHARD_PLANNER_H_
