// ShardPlanner properties: shard identity is stable and grid-derived, every
// placement policy covers all populated tiles exactly once, cost balancing
// measurably beats round-robin on skewed work, and Hilbert-clustered
// locality placement measurably cuts boundary-object replication.
#include "dist/shard_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "join/partitioned_driver.h"
#include "tests/test_util.h"

namespace swiftspatial::dist {
namespace {

uint64_t MaxNodeCost(const ShardPlan& plan) {
  uint64_t worst = 0;
  for (uint64_t c : plan.node_cost) worst = std::max(worst, c);
  return worst;
}

TEST(ShardPlanner, DeterministicAndCoversEachPopulatedTileOnce) {
  const Dataset r = testutil::Uniform(500, 21);
  const Dataset s = testutil::Skewed(500, 22);
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kCostBalanced,
        PlacementPolicy::kLocality}) {
    auto a = PlanShards(r, s, 8, 8, 4, policy);
    auto b = PlanShards(r, s, 8, 8, 4, policy);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok());

    // Stable identity: same shards, same ids, same owners on every run.
    ASSERT_EQ(a->shards.size(), b->shards.size());
    ASSERT_EQ(a->owner, b->owner);
    std::set<int> ids;
    for (std::size_t i = 0; i < a->shards.size(); ++i) {
      const Shard& shard = a->shards[i];
      EXPECT_EQ(shard.id, b->shards[i].id);
      EXPECT_GE(shard.id, 0);
      EXPECT_LT(shard.id, 64);
      EXPECT_TRUE(ids.insert(shard.id).second) << "duplicate tile claim";
      EXPECT_FALSE(shard.r_ids.empty());
      EXPECT_FALSE(shard.s_ids.empty());
      ASSERT_LT(static_cast<std::size_t>(a->owner[i]), 4u);
    }

    // node_cost is exactly the per-owner sum of shard costs.
    std::vector<uint64_t> recomputed(4, 0);
    for (std::size_t i = 0; i < a->shards.size(); ++i) {
      recomputed[static_cast<std::size_t>(a->owner[i])] +=
          a->shards[i].EstimatedCost();
    }
    EXPECT_EQ(recomputed, a->node_cost)
        << PlacementPolicyToString(policy);
  }
}

TEST(ShardPlanner, RoundRobinDealsShardsCyclically) {
  const Dataset r = testutil::Uniform(800, 23);
  const Dataset s = testutil::Uniform(800, 24);
  auto plan = PlanShards(r, s, 6, 6, 3, PlacementPolicy::kRoundRobin);
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan->shards.size(), 3u);
  for (std::size_t i = 0; i < plan->shards.size(); ++i) {
    EXPECT_EQ(plan->owner[i], static_cast<int>(i % 3));
  }
}

TEST(ShardPlanner, CostBalancedNarrowsMaxLoadOnSkewedWork) {
  // Heavy-tailed cluster sizes make per-shard costs wildly uneven; cyclic
  // dealing lands whole hot cells on unlucky nodes while LPT spreads them.
  const Dataset r = testutil::Skewed(1500, 25);
  const Dataset s = testutil::Skewed(1500, 26);
  auto rr = PlanShards(r, s, 8, 8, 4, PlacementPolicy::kRoundRobin);
  auto lpt = PlanShards(r, s, 8, 8, 4, PlacementPolicy::kCostBalanced);
  ASSERT_TRUE(rr.ok());
  ASSERT_TRUE(lpt.ok());
  EXPECT_LT(MaxNodeCost(*lpt), MaxNodeCost(*rr));
}

TEST(ShardPlanner, LocalityPlacementCutsBoundaryReplication) {
  // Objects large relative to the cell span straddle grid lines often, so
  // placement adjacency dominates the replica bill: round-robin separates
  // every pair of neighbouring cells, Hilbert-clustered runs keep compact
  // regions per node.
  const Dataset r = testutil::Uniform(2000, 27, /*map=*/1000.0,
                                      /*max_edge=*/40.0);
  const Dataset s = testutil::Uniform(2000, 28, /*map=*/1000.0,
                                      /*max_edge=*/40.0);
  auto rr = PlanShards(r, s, 8, 8, 8, PlacementPolicy::kRoundRobin);
  auto local = PlanShards(r, s, 8, 8, 8, PlacementPolicy::kLocality);
  ASSERT_TRUE(rr.ok());
  ASSERT_TRUE(local.ok());
  EXPECT_GT(rr->replicated_objects, 0u);
  EXPECT_LT(local->replicated_objects, rr->replicated_objects);
  EXPECT_LT(local->input_bytes, rr->input_bytes);
  // Locality stays cost-aware: its balance must not collapse (within 3x of
  // the LPT optimum on this uniform workload).
  auto lpt = PlanShards(r, s, 8, 8, 8, PlacementPolicy::kCostBalanced);
  ASSERT_TRUE(lpt.ok());
  EXPECT_LE(MaxNodeCost(*local), 3 * MaxNodeCost(*lpt));
}

TEST(ShardPlanner, AutoGridAndEmptyAndInvalidInputs) {
  const Dataset r = testutil::Uniform(300, 29);
  const Dataset s = testutil::Uniform(300, 30);
  auto plan = PlanShards(r, s, 0, 0, 4, PlacementPolicy::kCostBalanced);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->grid_cols, 0);
  EXPECT_EQ(plan->grid_cols, plan->grid_rows);
  EXPECT_FALSE(plan->shards.empty());

  const Dataset empty;
  auto none = PlanShards(empty, s, 0, 0, 4, PlacementPolicy::kRoundRobin);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->shards.empty());

  EXPECT_FALSE(PlanShards(r, s, 0, 0, 0,
                          PlacementPolicy::kRoundRobin).ok());
  EXPECT_FALSE(PlanShards(r, s, -2, 4, 2,
                          PlacementPolicy::kRoundRobin).ok());
}

// All grid-sharding planners must derive the *identical* grid for the same
// inputs -- shard-id stability across the synchronous PlanPartitionedCells,
// the banded streaming executor, and the distributed ShardPlanner depends
// on it. This pins the consolidation of the three formerly-duplicated
// auto-sizing call sites behind DeriveJoinGrid: the helper's decision and
// both planners' decisions must agree, for auto-sized and explicit grids,
// across input scales.
TEST(ShardPlanner, GridDecisionIdenticalAcrossAllPlanners) {
  struct Case {
    uint64_t scale;
    int cols;
    int rows;
  };
  for (const Case& c : {Case{60, 0, 0}, Case{500, 0, 0}, Case{3000, 0, 0},
                        Case{500, 9, 5}}) {
    const Dataset r = testutil::Uniform(c.scale, 100 + c.scale);
    const Dataset s = testutil::Skewed(c.scale, 200 + c.scale);

    const JoinGridSpec spec = DeriveJoinGrid(r, s, c.cols, c.rows);
    ASSERT_TRUE(spec.has_grid);

    PartitionedDriverOptions options;
    options.grid_cols = c.cols;
    options.grid_rows = c.rows;
    auto cells = PlanPartitionedCells(r, s, options);
    ASSERT_TRUE(cells.ok());

    auto shard_plan =
        PlanShards(r, s, c.cols, c.rows, 4, PlacementPolicy::kRoundRobin);
    ASSERT_TRUE(shard_plan.ok());

    EXPECT_EQ((*cells)->cols, spec.cols)
        << "scale=" << c.scale << " cols=" << c.cols;
    EXPECT_EQ((*cells)->rows, spec.rows);
    EXPECT_EQ(shard_plan->grid_cols, spec.cols)
        << "scale=" << c.scale << " cols=" << c.cols;
    EXPECT_EQ(shard_plan->grid_rows, spec.rows);
  }

  // Empty inputs: one shared "no grid" decision.
  const Dataset empty;
  const Dataset some = testutil::Uniform(50, 7);
  EXPECT_FALSE(DeriveJoinGrid(empty, some, 0, 0).has_grid);
  EXPECT_FALSE(DeriveJoinGrid(some, empty, 4, 4).has_grid);
}

}  // namespace
}  // namespace swiftspatial::dist
