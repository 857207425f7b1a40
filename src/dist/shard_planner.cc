#include "dist/shard_planner.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "geometry/hilbert.h"

namespace swiftspatial::dist {

const char* PlacementPolicyToString(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
    case PlacementPolicy::kCostBalanced:
      return "cost-balanced";
    case PlacementPolicy::kLocality:
      return "locality";
  }
  return "unknown";
}

namespace {

/// Bytes to ship one placed object: its box plus its id.
constexpr uint64_t kObjectBytes = sizeof(Box) + sizeof(ObjectId);

// Assigns shards[i] -> owner[i] per the policy. Shards arrive in grid
// (row-major) order.
void Place(const std::vector<Shard>& shards, int num_nodes,
           PlacementPolicy placement, int grid_cols, int grid_rows,
           std::vector<int>* owner, std::vector<uint64_t>* node_cost) {
  owner->assign(shards.size(), 0);
  node_cost->assign(static_cast<std::size_t>(num_nodes), 0);
  if (shards.empty()) return;

  switch (placement) {
    case PlacementPolicy::kRoundRobin: {
      for (std::size_t i = 0; i < shards.size(); ++i) {
        (*owner)[i] = static_cast<int>(i % num_nodes);
        (*node_cost)[i % num_nodes] += shards[i].EstimatedCost();
      }
      break;
    }
    case PlacementPolicy::kCostBalanced: {
      // LPT greedy: heaviest shard first onto the least-loaded node. Ties
      // break on shard id / node index for determinism.
      std::vector<std::size_t> order(shards.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  const uint64_t ca = shards[a].EstimatedCost();
                  const uint64_t cb = shards[b].EstimatedCost();
                  if (ca != cb) return ca > cb;
                  return shards[a].id < shards[b].id;
                });
      for (std::size_t i : order) {
        std::size_t best = 0;
        for (std::size_t n = 1; n < node_cost->size(); ++n) {
          if ((*node_cost)[n] < (*node_cost)[best]) best = n;
        }
        (*owner)[i] = static_cast<int>(best);
        (*node_cost)[best] += shards[i].EstimatedCost();
      }
      break;
    }
    case PlacementPolicy::kLocality: {
      // Order shards along the Hilbert curve of their grid cells, then cut
      // the sequence into num_nodes contiguous runs of ~equal cumulative
      // cost: compact per-node regions, cost-aware boundaries.
      uint32_t order_bits = 1;
      while ((1 << order_bits) < std::max(grid_cols, grid_rows)) ++order_bits;
      std::vector<std::size_t> order(shards.size());
      std::iota(order.begin(), order.end(), 0);
      std::vector<uint64_t> hilbert(shards.size());
      for (std::size_t i = 0; i < shards.size(); ++i) {
        const int tx = shards[i].id % grid_cols;
        const int ty = shards[i].id / grid_cols;
        hilbert[i] = HilbertD2XYInverse(order_bits,
                                        static_cast<uint32_t>(tx),
                                        static_cast<uint32_t>(ty));
      }
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  if (hilbert[a] != hilbert[b]) return hilbert[a] < hilbert[b];
                  return shards[a].id < shards[b].id;
                });
      uint64_t total = 0;
      for (const Shard& s : shards) total += s.EstimatedCost();
      // Cut after a run's cumulative cost reaches its fair share; every
      // node keeps at least the chance of one shard.
      uint64_t cum = 0;
      int node = 0;
      for (std::size_t k = 0; k < order.size(); ++k) {
        const std::size_t i = order[k];
        (*owner)[i] = node;
        (*node_cost)[static_cast<std::size_t>(node)] +=
            shards[i].EstimatedCost();
        cum += shards[i].EstimatedCost();
        const uint64_t fair =
            total * static_cast<uint64_t>(node + 1) /
            static_cast<uint64_t>(num_nodes);
        if (cum >= fair && node + 1 < num_nodes) ++node;
      }
      break;
    }
  }
}

// Counts boundary-object replicas and the input-shipping bill for one side:
// each object is shipped once per distinct node its populated cells map to.
// An object keeps the first node it is placed on; a placement on any other
// node is listed as an extra (object, node) pair, and the distinct extras
// are the replicas. No per-object allocation: most objects lie in the
// cells of one node, so the list stays short.
void AccountReplicas(const std::vector<Shard>& shards,
                     const std::vector<int>& owner, std::size_t num_objects,
                     bool r_side, ShardPlan* plan) {
  std::vector<int> first_node(num_objects, -1);
  std::vector<std::pair<ObjectId, int>> extras;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const int node = owner[i];
    const PartitionedCell& cell = *shards[i].cell;
    for (const CellEntry& e : r_side ? cell.r : cell.s) {
      const ObjectId id = e.id;
      int& first = first_node[static_cast<std::size_t>(id)];
      if (first < 0) {
        first = node;
      } else if (first != node) {
        extras.emplace_back(id, node);
      }
    }
  }
  std::sort(extras.begin(), extras.end());
  const auto replicas = static_cast<std::size_t>(
      std::unique(extras.begin(), extras.end()) - extras.begin());
  const auto placed = static_cast<std::size_t>(std::count_if(
      first_node.begin(), first_node.end(), [](int n) { return n >= 0; }));
  plan->replicated_objects += replicas;
  plan->input_bytes += static_cast<uint64_t>(placed + replicas) * kObjectBytes;
}

}  // namespace

Result<ShardPlan> PlanShards(const JoinInput& r, const JoinInput& s,
                             int grid_cols, int grid_rows, int num_nodes,
                             PlacementPolicy placement,
                             std::size_t num_threads,
                             const WaveContext& wave) {
  if (num_nodes < 1) {
    return Status::InvalidArgument("num_nodes must be >= 1");
  }
  PartitionedDriverOptions grid;
  grid.grid_cols = grid_cols;
  grid.grid_rows = grid_rows;
  grid.num_threads = num_threads;

  ShardPlan plan;
  SWIFT_ASSIGN_OR_RETURN(plan.cells, PlanPartitionedCells(r, s, grid, wave));
  plan.placement = placement;
  plan.grid_cols = plan.cells->cols;
  plan.grid_rows = plan.cells->rows;
  for (const PartitionedCell* cell : plan.cells->CellsInTileOrder()) {
    plan.shards.push_back(Shard{cell->tile, cell});
  }

  Place(plan.shards, num_nodes, placement, plan.grid_cols, plan.grid_rows,
        &plan.owner, &plan.node_cost);
  AccountReplicas(plan.shards, plan.owner, r.data->size(), /*r_side=*/true,
                  &plan);
  AccountReplicas(plan.shards, plan.owner, s.data->size(), /*r_side=*/false,
                  &plan);
  return plan;
}

}  // namespace swiftspatial::dist
