#include "join/plane_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "join/nested_loop.h"
#include "join/partitioned_driver.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

std::vector<ObjectId> AllIds(const Dataset& d) {
  std::vector<ObjectId> ids(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) ids[i] = static_cast<ObjectId>(i);
  return ids;
}

TEST(PlaneSweep, MatchesNestedLoopUniform) {
  const Dataset r = testutil::Uniform(500, 40, 500.0, /*max_edge=*/15.0);
  const Dataset s = testutil::Uniform(500, 41, 500.0, /*max_edge=*/15.0);
  JoinResult nl, ps;
  NestedLoopTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &nl);
  PlaneSweepTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &ps);
  EXPECT_TRUE(JoinResult::SameMultiset(nl, ps));
}

TEST(PlaneSweep, MatchesNestedLoopSkewed) {
  const Dataset r = testutil::Skewed(600, 42);
  const Dataset s = testutil::Skewed(600, 43);
  JoinResult nl, ps;
  NestedLoopTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &nl);
  PlaneSweepTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &ps);
  EXPECT_TRUE(JoinResult::SameMultiset(nl, ps));
}

TEST(PlaneSweep, FewerChecksThanNestedLoopWhenSparse) {
  // Sparse unit squares: each forward scan stays short, so the sweep performs
  // far fewer comparisons than |R| x |S| -- the software rationale of §3.2.
  const Dataset r = testutil::Uniform(1000, 44, 5000.0, /*max_edge=*/1.0);
  const Dataset s = testutil::Uniform(1000, 45, 5000.0, /*max_edge=*/1.0);
  JoinStats nl_stats, ps_stats;
  JoinResult nl, ps;
  NestedLoopTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &nl, &nl_stats);
  PlaneSweepTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &ps, &ps_stats);
  EXPECT_TRUE(JoinResult::SameMultiset(nl, ps));
  EXPECT_LT(ps_stats.predicate_evaluations,
            nl_stats.predicate_evaluations / 10);
}

TEST(PlaneSweep, EmptySides) {
  const Dataset r = testutil::Uniform(100, 46);
  const Dataset empty("e", {});
  JoinResult out;
  PlaneSweepTileJoin(r, empty, AllIds(r), {}, nullptr, &out);
  EXPECT_TRUE(out.empty());
  PlaneSweepTileJoin(empty, r, {}, AllIds(r), nullptr, &out);
  EXPECT_TRUE(out.empty());
}

TEST(PlaneSweep, IdenticalMinXTies) {
  // Many objects sharing min_x stress the tie-break path.
  std::vector<Box> boxes;
  for (int i = 0; i < 20; ++i) {
    boxes.push_back(Box(10, static_cast<Coord>(i), 12,
                        static_cast<Coord>(i + 2)));
  }
  const Dataset r("ties_r", boxes);
  const Dataset s("ties_s", boxes);
  JoinResult nl, ps;
  NestedLoopTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &nl);
  PlaneSweepTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &ps);
  EXPECT_TRUE(JoinResult::SameMultiset(nl, ps));
}

TEST(PlaneSweep, DedupTileRuleApplied) {
  const Dataset r = testutil::Uniform(300, 47, 200.0, /*max_edge=*/30.0);
  const Dataset s = testutil::Uniform(300, 48, 200.0, /*max_edge=*/30.0);
  const Box left_tile(0, 0, 100, 200);
  const Box right_tile(100, 0, 200, 200);
  JoinResult left, right, whole;
  PlaneSweepTileJoin(r, s, AllIds(r), AllIds(s), &left_tile, &left);
  PlaneSweepTileJoin(r, s, AllIds(r), AllIds(s), &right_tile, &right);
  PlaneSweepTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &whole);
  // The two halves partition the results (every reference point lies in
  // exactly one tile).
  left.Merge(std::move(right));
  EXPECT_TRUE(JoinResult::SameMultiset(whole, left));
}

TEST(PlaneSweep, PointDatasets) {
  const Dataset r = testutil::UniformPoints(400, 49, 100.0);
  const Dataset s = testutil::Uniform(400, 50, 100.0, /*max_edge=*/5.0);
  JoinResult nl, ps;
  NestedLoopTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &nl);
  PlaneSweepTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &ps);
  EXPECT_TRUE(JoinResult::SameMultiset(nl, ps));
}

// The sweep order, restated independently of the library: min_x never
// decreases, and equal min_x values come in ascending id order.
::testing::AssertionResult InSweepOrder(const Dataset& d,
                                        const std::vector<ObjectId>& ids) {
  for (std::size_t i = 1; i < ids.size(); ++i) {
    const Coord prev = d.box(static_cast<std::size_t>(ids[i - 1])).min_x;
    const Coord cur = d.box(static_cast<std::size_t>(ids[i])).min_x;
    if (cur < prev || (cur == prev && ids[i] < ids[i - 1])) {
      return ::testing::AssertionFailure()
             << "ids " << ids[i - 1] << ", " << ids[i] << " at position " << i
             << " are out of (min_x, id) order";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult InSweepOrder(const Dataset& d,
                                        std::span<const CellEntry> cell) {
  std::vector<ObjectId> ids;
  for (const CellEntry& e : cell) ids.push_back(e.id);
  return InSweepOrder(d, ids);
}

TEST(PlaneSweep, SortForSweepOrdersByMinXThenId) {
  const Dataset d("d", {Box(3, 0, 4, 1), Box(1, 0, 2, 1), Box(3, 5, 9, 9),
                        Box(1, 7, 1, 7), Box(0, 0, 8, 8)});
  std::vector<ObjectId> ids = {2, 0, 3, 4, 1};
  EXPECT_FALSE(InSweepOrder(d, ids));
  SortForSweep(d, &ids);
  EXPECT_EQ(ids, (std::vector<ObjectId>{4, 1, 3, 0, 2}));
  EXPECT_TRUE(InSweepOrder(d, ids));
  // A subset of ids (a cell's list) sorts the same way.
  std::vector<ObjectId> subset = {2, 1, 0};
  SortForSweep(d, &subset);
  EXPECT_EQ(subset, (std::vector<ObjectId>{1, 0, 2}));
}

// Presorted (plan-time) and shuffled (per-request) id lists must give the
// same answer and the same predicate count: the order only decides whether
// the join sorts its own copy.
TEST(PlaneSweep, ShuffledAndSweepOrderedIdsAgree) {
  const Dataset r = testutil::Uniform(800, 51, 300.0, /*max_edge=*/12.0);
  const Dataset s = testutil::Skewed(800, 52, 300.0);
  std::vector<ObjectId> r_shuffled = AllIds(r);
  std::vector<ObjectId> s_shuffled = AllIds(s);
  std::mt19937 rng(7);
  std::shuffle(r_shuffled.begin(), r_shuffled.end(), rng);
  std::shuffle(s_shuffled.begin(), s_shuffled.end(), rng);
  std::vector<ObjectId> r_sorted = r_shuffled;
  std::vector<ObjectId> s_sorted = s_shuffled;
  SortForSweep(r, &r_sorted);
  SortForSweep(s, &s_sorted);
  ASSERT_TRUE(InSweepOrder(r, r_sorted));
  ASSERT_TRUE(InSweepOrder(s, s_sorted));
  ASSERT_FALSE(InSweepOrder(r, r_shuffled));

  const Box tile(0, 0, 150, 300);
  for (const Box* dedup : {static_cast<const Box*>(nullptr), &tile}) {
    JoinResult shuffled, sorted, nl;
    JoinStats shuffled_stats, sorted_stats;
    PlaneSweepTileJoin(r, s, r_shuffled, s_shuffled, dedup, &shuffled,
                       &shuffled_stats);
    PlaneSweepTileJoin(r, s, r_sorted, s_sorted, dedup, &sorted,
                       &sorted_stats);
    NestedLoopTileJoin(r, s, AllIds(r), AllIds(s), dedup, &nl);
    EXPECT_GT(nl.size(), 0u);
    EXPECT_TRUE(JoinResult::SameMultiset(shuffled, sorted));
    EXPECT_TRUE(JoinResult::SameMultiset(nl, sorted));
    EXPECT_EQ(shuffled_stats.predicate_evaluations,
              sorted_stats.predicate_evaluations);
    EXPECT_EQ(shuffled_stats.tasks, 1u);
    EXPECT_EQ(sorted_stats.tasks, 1u);
  }
}

// The predicate count is an exact, order-free quantity: one y-test per
// cross pair whose closed x-extents overlap. Fixture, by hand:
//   R: r0 x[0,2] y[0,2]   r1 x[1,3] y[0,1]   r2 x[4,5] y[0,5]
//   S: s0 x[0,1] y[1,3]   s1 x[2,4] y[3,4]   s2 x[4,6] y[4,6]
// x-overlapping pairs (6): r0-s0 (min_x tie across sides), r0-s1 (touch at
// 2), r1-s0 (touch at 1), r1-s1, r2-s1 (touch at 4), r2-s2 (min_x tie).
// Of these, y also overlaps for r0-s0, r1-s0 (touch at 1), r2-s1, r2-s2.
// Their reference points are (0,1), (1,1), (4,3) and (4,4): the last two
// sit exactly on the x = 4 edge between the two dedup tiles below, and the
// half-open rule gives them to the right tile.
TEST(PlaneSweep, ExactPredicateCountWithTiesAndDedupEdge) {
  const Dataset r("r", {Box(0, 0, 2, 2), Box(1, 0, 3, 1), Box(4, 0, 5, 5)});
  const Dataset s("s", {Box(0, 1, 1, 3), Box(2, 3, 4, 4), Box(4, 4, 6, 6)});
  const Box left_tile(0, 0, 4, 10);
  const Box right_tile(4, 0, 8, 10);
  const struct {
    const Box* tile;
    std::vector<ResultPair> pairs;
  } cases[] = {
      {nullptr, {{0, 0}, {1, 0}, {2, 1}, {2, 2}}},
      {&left_tile, {{0, 0}, {1, 0}}},
      {&right_tile, {{2, 1}, {2, 2}}},
  };
  for (const auto& c : cases) {
    for (const bool presorted : {true, false}) {
      // Reversed lists take the per-call sort; the count must not move.
      std::vector<ObjectId> r_ids = AllIds(r);
      std::vector<ObjectId> s_ids = AllIds(s);
      if (!presorted) {
        std::reverse(r_ids.begin(), r_ids.end());
        std::reverse(s_ids.begin(), s_ids.end());
      }
      JoinResult out;
      JoinStats stats;
      PlaneSweepTileJoin(r, s, r_ids, s_ids, c.tile, &out, &stats);
      EXPECT_EQ(stats.predicate_evaluations, 6u);
      EXPECT_EQ(stats.tasks, 1u);
      out.Sort();
      EXPECT_EQ(out.pairs(), c.pairs);
    }
  }
}

// Cached plans are built in sweep order, so warm executions never sort:
// every grid cell of PlanPartitionedCells and every stripe of pbsm's
// one-axis grid, planned on several threads.
TEST(PlaneSweep, CachedPlansAreInSweepOrder) {
  const Dataset r = testutil::Uniform(3000, 53, 500.0, /*max_edge=*/10.0);
  const Dataset s = testutil::Skewed(3000, 54, 500.0);

  PartitionedDriverOptions grid;
  grid.num_threads = 3;
  auto plan = PlanPartitionedCells(r, s, grid);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_GT((*plan)->cells.size(), 1u);
  for (const PartitionedCell& cell : (*plan)->cells) {
    ASSERT_TRUE(InSweepOrder(r, cell.r));
    ASSERT_TRUE(InSweepOrder(s, cell.s));
  }

  PartitionedDriverOptions stripes;
  stripes.grid_cols = 16;
  stripes.grid_rows = 1;
  stripes.num_threads = 3;
  auto striped = PlanPartitionedCells(r, s, stripes);
  ASSERT_TRUE(striped.ok()) << striped.status().ToString();
  const GridSide& r_side = *(*striped)->r_side;
  const GridSide& s_side = *(*striped)->s_side;
  ASSERT_EQ(r_side.num_tiles(), 16u);
  for (std::size_t i = 0; i < r_side.num_tiles(); ++i) {
    ASSERT_TRUE(InSweepOrder(r, r_side.Tile(i))) << "stripe " << i;
    ASSERT_TRUE(InSweepOrder(s, s_side.Tile(i))) << "stripe " << i;
  }
}

// SortForSweep sorts packed integer keys; it must order exactly as a
// stable sort by SweepBefore does, across the whole float line.
TEST(PlaneSweep, SortForSweepMatchesSweepBeforeOrder) {
  constexpr Coord kDenorm = std::numeric_limits<Coord>::denorm_min();
  constexpr Coord kMax = std::numeric_limits<Coord>::max();
  const std::vector<Coord> xs = {
      -0.0f,  0.0f,      -0.0f,  3.5f,     -3.5f,     3.5f,    -1e30f,
      1e30f,  -kMax,     kMax,   kDenorm,  -kDenorm,  1e-40f,  -1e-40f,
      0.0f,   -0.0f,     -2.0f,  -2.0f,    1e-38f,    -1e-38f, 7.25f,
      -kMax,  kMax,      2.0f,   -1.0f,    1.0f,      kDenorm, -0.0f};
  std::vector<Box> boxes;
  for (const Coord x : xs) boxes.push_back(Box(x, 0, x, 1));
  const Dataset d("d", boxes);

  std::mt19937 rng(11);
  for (int round = 0; round < 20; ++round) {
    std::vector<ObjectId> ids = AllIds(d);
    std::shuffle(ids.begin(), ids.end(), rng);
    // A cell's list is a subset of the ids.
    if (round % 2 == 1) ids.resize(ids.size() / 2);
    std::vector<ObjectId> expected = ids;
    std::stable_sort(expected.begin(), expected.end(),
                     [&d](ObjectId a, ObjectId b) {
                       return SweepBefore(d.box(a).min_x, a, d.box(b).min_x,
                                          b);
                     });
    SortForSweep(d, &ids);
    EXPECT_EQ(ids, expected) << "round " << round;
  }

  // -0.0f and +0.0f compare equal, so they tie and break by id.
  const Dataset zeros("z", {Box(0.0f, 0, 1, 1), Box(-0.0f, 0, 1, 1),
                            Box(0.0f, 0, 1, 1), Box(-0.0f, 0, 1, 1)});
  std::vector<ObjectId> ids = {3, 1, 2, 0};
  SortForSweep(zeros, &ids);
  EXPECT_EQ(ids, (std::vector<ObjectId>{0, 1, 2, 3}));
}

// Planning runs assignment and sorting on the request's threads; the plan
// must not depend on how many.
TEST(PlaneSweep, PartitionedPlanIsIdenticalAtEveryThreadCount) {
  const Dataset r = testutil::Skewed(4000, 55, 500.0);
  const Dataset s = testutil::Uniform(4000, 56, 500.0, /*max_edge=*/10.0);
  PartitionedDriverOptions options;
  options.num_threads = 1;
  auto serial = PlanPartitionedCells(r, s, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::vector<PartitionedCell>& expected = (*serial)->cells;
  ASSERT_GT(expected.size(), 1u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.num_threads = threads;
    auto plan = PlanPartitionedCells(r, s, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    // The halves themselves: every tile's offsets and entries, rounded
    // coordinates and ids, one-sided tiles included.
    for (const auto side : {&PartitionedPlanState::r_side,
                            &PartitionedPlanState::s_side}) {
      const GridSide& got = *((**plan).*side);
      const GridSide& want = *((**serial).*side);
      ASSERT_EQ(got.offsets, want.offsets) << threads << " threads";
      ASSERT_TRUE(got.entries == want.entries) << threads << " threads";
    }
    const std::vector<PartitionedCell>& cells = (*plan)->cells;
    ASSERT_EQ(cells.size(), expected.size()) << threads << " threads";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_EQ(cells[i].dedup_tile, expected[i].dedup_tile) << "cell " << i;
      ASSERT_EQ(cells[i].tile, expected[i].tile) << "cell " << i;
      ASSERT_TRUE(std::ranges::equal(cells[i].r, expected[i].r)) << i;
      ASSERT_TRUE(std::ranges::equal(cells[i].s, expected[i].s)) << i;
      ASSERT_TRUE(InSweepOrder(r, cells[i].r)) << "cell " << i;
      ASSERT_TRUE(InSweepOrder(s, cells[i].s)) << "cell " << i;
    }
  }
}

}  // namespace
}  // namespace swiftspatial
