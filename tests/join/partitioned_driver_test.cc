// Per-dataset grid halves: a plan paired from a stored S half and a fresh R
// half must be the plan PlanPartitionedCells builds from scratch -- the same
// cells in the same order with the same ids and dedup tiles -- and join to
// the same multiset on both grid engines.
#include "join/partitioned_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "join/engine.h"
#include "join/nested_loop.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

constexpr double kMap = 500.0;

// A GridSideStore over a plain list, counting what it served and built.
class CountingStore final : public GridSideStore {
 public:
  std::shared_ptr<const GridSide> GetOrBuild(
      const JoinGridSpec& spec,
      const std::function<std::shared_ptr<const GridSide>()>& build)
      override {
    for (const Stored& stored : stored_) {
      if (stored.extent == spec.extent && stored.cols == spec.cols &&
          stored.rows == spec.rows) {
        ++hits;
        return stored.side;
      }
    }
    ++builds;
    stored_.push_back({spec.extent, spec.cols, spec.rows, build()});
    return stored_.back().side;
  }

  int hits = 0;
  int builds = 0;

 private:
  struct Stored {
    Box extent;
    int cols;
    int rows;
    std::shared_ptr<const GridSide> side;
  };
  std::vector<Stored> stored_;
};

// Pins the extent to [0, kMap]^2 so every version of R spans the same joint
// extent with S, and the S half stays valid across R versions.
Dataset Anchored(Dataset d) {
  d.mutable_boxes().push_back(Box(0, 0, 0, 0));
  d.mutable_boxes().push_back(Box(kMap, kMap, kMap, kMap));
  return d;
}

Dataset WithBox(Dataset d, const Box& box) {
  d.mutable_boxes().push_back(box);
  return d;
}

struct Case {
  std::string name;
  Dataset r1;  // the version the S half was first paired with
  Dataset r2;  // the new version of R
  Dataset s;
  int cols = 0;
  int rows = 0;
};

std::vector<Case> Cases() {
  using testutil::Skewed;
  using testutil::Uniform;
  const Box world(0, 0, kMap, kMap);
  std::vector<Case> cases;
  cases.push_back({"uniform", Anchored(Uniform(3000, 1, kMap)),
                   Anchored(Uniform(3000, 2, kMap)),
                   Anchored(Uniform(3000, 3, kMap))});
  cases.push_back({"osm_like", Anchored(Skewed(3000, 4, kMap)),
                   Anchored(Skewed(3000, 5, kMap)),
                   Anchored(Skewed(3000, 6, kMap))});
  cases.push_back({"world_spanning", Anchored(Uniform(2000, 7, kMap)),
                   WithBox(Anchored(Uniform(2000, 8, kMap)), world),
                   WithBox(Anchored(Skewed(2000, 9, kMap)), world)});
  cases.push_back({"explicit_grid", Anchored(Uniform(2000, 10, kMap)),
                   Anchored(Skewed(2000, 11, kMap)),
                   Anchored(Uniform(2000, 12, kMap)), 9, 5});
  cases.push_back({"one_cell", Anchored(Uniform(500, 13, kMap)),
                   Anchored(Uniform(500, 14, kMap)),
                   Anchored(Uniform(500, 15, kMap)), 1, 1});
  return cases;
}

TEST(PartitionedDriver, PlanFromStoredHalfEqualsFreshPlan) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    PartitionedDriverOptions options;
    options.grid_cols = c.cols;
    options.grid_rows = c.rows;
    options.num_threads = 2;

    CountingStore s_store;
    JoinInput s_input(BorrowDataset(c.s));
    s_input.grid_sides = &s_store;
    auto first = PlanPartitionedCells(BorrowDataset(c.r1), s_input, options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto paired = PlanPartitionedCells(BorrowDataset(c.r2), s_input, options);
    ASSERT_TRUE(paired.ok()) << paired.status().ToString();
    EXPECT_EQ(s_store.builds, 1);
    EXPECT_EQ(s_store.hits, 1);
    // The plan references the stored half; it does not copy it.
    EXPECT_EQ((*paired)->s_side.get(), (*first)->s_side.get());

    auto fresh = PlanPartitionedCells(c.r2, c.s, options);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    const std::vector<PartitionedCell>& got = (*paired)->cells;
    const std::vector<PartitionedCell>& want = (*fresh)->cells;
    EXPECT_EQ((*paired)->cols, (*fresh)->cols);
    EXPECT_EQ((*paired)->rows, (*fresh)->rows);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_FALSE(want.empty());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].dedup_tile, want[i].dedup_tile) << "cell " << i;
      ASSERT_EQ(got[i].tile, want[i].tile) << "cell " << i;
      ASSERT_TRUE(std::ranges::equal(got[i].r, want[i].r)) << "cell " << i;
      ASSERT_TRUE(std::ranges::equal(got[i].s, want[i].s)) << "cell " << i;
    }

    // Both grid engines' tile joins over the paired plan give the exact
    // answer.
    JoinResult expected = BruteForceJoin(c.r2, c.s);
    ASSERT_GT(expected.size(), 0u);
    for (const TileJoin tile_join : {TileJoin::kPlaneSweep, TileJoin::kSimd}) {
      JoinResult result = ExecutePartitionedPlan(**paired, c.r2, c.s,
                                                 tile_join, 2, nullptr);
      EXPECT_TRUE(JoinResult::SameMultiset(expected, result))
          << TileJoinToString(tile_join);
    }

    // The engines hand the store through Prepare and reuse the half too.
    EngineConfig config;
    config.num_threads = 2;
    config.grid_cols = c.cols;
    config.grid_rows = c.rows;
    for (const char* engine : {kPartitionedEngine, kSimdEngine}) {
      const int hits = s_store.hits;
      auto plan = PrepareJoin(engine, BorrowDataset(c.r2), s_input, config);
      ASSERT_TRUE(plan.ok()) << engine << ": " << plan.status().ToString();
      EXPECT_EQ(s_store.hits, hits + 1) << engine;
      EXPECT_EQ(s_store.builds, 1) << engine;
      auto run = RunPreparedJoin(**plan, config);
      ASSERT_TRUE(run.ok()) << engine << ": " << run.status().ToString();
      EXPECT_TRUE(JoinResult::SameMultiset(expected, run->result)) << engine;
    }
  }
}

// The plan accounts only its cells; the halves are accounted by their store.
TEST(PartitionedDriver, PlanBytesExcludeTheHalves) {
  const Dataset r = testutil::Uniform(2000, 21, kMap);
  const Dataset s = testutil::Skewed(2000, 22, kMap);
  auto plan = PlanPartitionedCells(r, s, {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const PartitionedPlanState& state = **plan;
  ASSERT_FALSE(state.cells.empty());
  EXPECT_EQ(state.MemoryBytes(),
            sizeof(state) + state.cells.capacity() * sizeof(PartitionedCell));
  EXPECT_GT(state.r_side->MemoryBytes(), r.size() * sizeof(ObjectId));
}

}  // namespace
}  // namespace swiftspatial
