// The quantised grid cell join misses no pair: every cell of a plan, joined
// over its 12-byte rounded entries (PlaneSweepCellJoin via RunTileJoin),
// yields exactly the pairs the exact sweep yields over the same objects and
// dedup tile, every entry's rounded box contains the lattice image of its
// exact box inside the tile, and every tile is in exact sweep order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "join/nested_loop.h"
#include "join/partitioned_driver.h"
#include "join/plane_sweep.h"
#include "join/tile_join.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

// Lattice image of x on [lo, hi] in long double, clamped to the lattice:
// the value a rounded min may not exceed and a rounded max may not undercut.
long double Image(Coord x, Coord lo, Coord hi) {
  const long double width = static_cast<long double>(hi) - lo;
  if (!(width > 0)) return 0;
  const long double clipped = std::clamp<long double>(x, lo, hi);
  return std::clamp<long double>((clipped - lo) * 65535.0L / width, 0,
                                 65535);
}

// Every entry of `side` contains its exact box's image on its tile.
::testing::AssertionResult EntriesContainTheirBoxes(const GridSide& side,
                                                    const Dataset& d,
                                                    const UniformGrid& grid) {
  // Slack for the float arithmetic of the quantiser (a few float steps at
  // 65535), far below a lattice step.
  constexpr long double kSlack = 1.0L / 64;
  for (std::size_t t = 0; t < side.num_tiles(); ++t) {
    const Box tile = grid.TileBoxByIndex(static_cast<int>(t));
    for (const CellEntry& e : side.Tile(t)) {
      const Box& b = d.box(static_cast<std::size_t>(e.id));
      const long double lo_x = Image(b.min_x, tile.min_x, tile.max_x);
      const long double hi_x = Image(b.max_x, tile.min_x, tile.max_x);
      const long double lo_y = Image(b.min_y, tile.min_y, tile.max_y);
      const long double hi_y = Image(b.max_y, tile.min_y, tile.max_y);
      if (e.min_x > lo_x + kSlack || e.max_x < hi_x - kSlack ||
          e.min_y > lo_y + kSlack || e.max_y < hi_y - kSlack) {
        return ::testing::AssertionFailure()
               << "tile " << t << " object " << e.id << " " << b.ToString()
               << " in " << tile.ToString() << " rounds to [" << e.min_x
               << "," << e.min_y << " - " << e.max_x << "," << e.max_y
               << "]";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<ObjectId> Ids(std::span<const CellEntry> cell) {
  std::vector<ObjectId> ids;
  for (const CellEntry& e : cell) ids.push_back(e.id);
  return ids;
}

// Every tile of `side` holds its objects in the exact sweep order, the
// order SortForSweep gives their ids.
::testing::AssertionResult TilesInSweepOrder(const GridSide& side,
                                             const Dataset& d) {
  for (std::size_t t = 0; t < side.num_tiles(); ++t) {
    const std::vector<ObjectId> ids = Ids(side.Tile(t));
    std::vector<ObjectId> sorted = ids;
    SortForSweep(d, &sorted);
    if (ids != sorted) {
      return ::testing::AssertionFailure()
             << "tile " << t << " is not in sweep order";
    }
  }
  return ::testing::AssertionSuccess();
}

// Plans (r, s) on a cols x rows grid (0 x 0: auto), then checks every
// cell's quantised join against the exact sweep, the entries' containment
// and order, and the whole plan against the brute-force join.
void ExpectNoMiss(const Dataset& r, const Dataset& s, int cols, int rows) {
  PartitionedDriverOptions options;
  options.grid_cols = cols;
  options.grid_rows = rows;
  auto planned = PlanPartitionedCells(r, s, options);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const PartitionedPlanState& plan = **planned;
  JoinResult expected = BruteForceJoin(r, s);
  if (plan.cells.empty()) {
    EXPECT_TRUE(expected.empty());
    return;
  }
  const JoinGridSpec spec =
      DeriveJoinGrid(r.Scan(), s.Scan(), cols, rows);
  const UniformGrid grid(spec.extent, spec.cols, spec.rows);
  EXPECT_TRUE(EntriesContainTheirBoxes(*plan.r_side, r, grid));
  EXPECT_TRUE(EntriesContainTheirBoxes(*plan.s_side, s, grid));
  EXPECT_TRUE(TilesInSweepOrder(*plan.r_side, r));
  EXPECT_TRUE(TilesInSweepOrder(*plan.s_side, s));

  JoinResult all;
  uint64_t rechecks = 0;
  for (const PartitionedCell& cell : plan.cells) {
    JoinResult quantised, exact;
    JoinStats stats;
    RunTileJoin(TileJoin::kPlaneSweep, r, s, cell.r, cell.s,
                cell.dedup_tile, &quantised, &stats);
    PlaneSweepTileJoin(r, s, Ids(cell.r), Ids(cell.s), &cell.dedup_tile,
                       &exact);
    EXPECT_GE(stats.exact_rechecks, quantised.size());
    EXPECT_GE(stats.predicate_evaluations, stats.exact_rechecks);
    rechecks += stats.exact_rechecks;
    ASSERT_TRUE(JoinResult::SameMultiset(quantised, exact))
        << "tile " << cell.tile << ": " << quantised.size() << " vs "
        << exact.size() << " pairs";
    all.mutable_pairs().insert(all.mutable_pairs().end(),
                               quantised.pairs().begin(),
                               quantised.pairs().end());
  }
  EXPECT_TRUE(JoinResult::SameMultiset(all, expected))
      << all.size() << " vs " << expected.size() << " pairs";

  JoinStats stats;
  JoinResult executed = ExecutePartitionedPlan(plan, r, s,
                                               TileJoin::kPlaneSweep, 2,
                                               &stats);
  EXPECT_TRUE(JoinResult::SameMultiset(executed, expected));
  EXPECT_EQ(stats.exact_rechecks, rechecks);
}

TEST(CellJoin, RandomCells) {
  const Dataset uniform_r = testutil::Uniform(2000, 71, 1000.0, 25.0);
  const Dataset uniform_s = testutil::Uniform(2000, 72, 1000.0, 25.0);
  const Dataset skewed_r = testutil::Skewed(2000, 73);
  const Dataset skewed_s = testutil::Skewed(2000, 74);
  for (const auto& [cols, rows] : {std::pair{0, 0}, std::pair{7, 5},
                                   std::pair{1, 1}, std::pair{64, 64},
                                   std::pair{16, 1}}) {
    SCOPED_TRACE(std::to_string(cols) + "x" + std::to_string(rows));
    ExpectNoMiss(uniform_r, uniform_s, cols, rows);
    ExpectNoMiss(skewed_r, skewed_s, cols, rows);
    ExpectNoMiss(uniform_r, skewed_s, cols, rows);
  }
}

// Edges on the 4 x 4 grid lines of [0, 100]^2 (multiples of 25): boxes
// that end, start or touch exactly on a tile edge, on either side.
TEST(CellJoin, BoxesOnTileEdges) {
  std::vector<Box> r_boxes, s_boxes;
  for (int i = 0; i <= 4; ++i) {
    for (int j = 0; j <= 4; ++j) {
      const Coord x = 25.0f * i;
      const Coord y = 25.0f * j;
      r_boxes.push_back(Box(std::max(0.0f, x - 10), std::max(0.0f, y - 10),
                            x, y));
      s_boxes.push_back(Box(x, y, std::min(100.0f, x + 7),
                            std::min(100.0f, y + 7)));
      s_boxes.push_back(Box(x, std::max(0.0f, y - 3), x, y));
    }
  }
  r_boxes.push_back(Box(0, 0, 100, 100));
  const Dataset r("r", r_boxes);
  const Dataset s("s", s_boxes);
  ExpectNoMiss(r, s, 4, 4);
  ExpectNoMiss(r, s, 3, 7);
}

TEST(CellJoin, WorldSpanningBoxes) {
  Dataset r = testutil::Uniform(500, 75, 1000.0, 10.0);
  Dataset s = testutil::Uniform(500, 76, 1000.0, 10.0);
  r.mutable_boxes().push_back(Box(-50, -50, 1050, 1050));
  s.mutable_boxes().push_back(Box(-50, -50, 1050, 1050));
  s.mutable_boxes().push_back(Box(-50, 500, 1050, 500));
  ExpectNoMiss(r, s, 0, 0);
  ExpectNoMiss(r, s, 16, 16);
}

TEST(CellJoin, Points) {
  const Dataset r = testutil::UniformPoints(2000, 77, 100.0);
  Dataset s = testutil::UniformPoints(2000, 78, 100.0);
  // Coincident points and rectangles around some of R's points.
  for (std::size_t i = 0; i < 200; ++i) s.mutable_boxes().push_back(r.box(i));
  for (std::size_t i = 200; i < 400; ++i) {
    const Box& p = r.box(i);
    s.mutable_boxes().push_back(
        Box(p.min_x - 0.5f, p.min_y - 0.5f, p.max_x, p.max_y));
  }
  ExpectNoMiss(r, s, 0, 0);
  ExpectNoMiss(r, s, 13, 9);
}

// Every object on the vertical line x = 5: the extent and every tile have
// zero width, so the x lattice has scale 0.
TEST(CellJoin, ZeroWidthTiles) {
  std::vector<Box> r_boxes, s_boxes;
  for (int i = 0; i < 300; ++i) {
    const Coord y = static_cast<Coord>(i % 97) * 1.5f;
    r_boxes.push_back(Box(5, y, 5, y + 2));
    s_boxes.push_back(Box(5, y + 0.75f, 5, y + 0.75f));
  }
  const Dataset r("r", r_boxes);
  const Dataset s("s", s_boxes);
  ExpectNoMiss(r, s, 0, 0);
  ExpectNoMiss(r, s, 8, 8);
}

// Coordinates near 1e7 on an extent a few float steps wide: runs of grid
// lines collapse onto one float, so many tiles have zero width.
TEST(CellJoin, UlpCollapsedTiles) {
  const Coord base = 1.0e7f;
  std::vector<Box> r_boxes, s_boxes;
  for (int i = 0; i < 200; ++i) {
    Coord x = base, y = base;
    for (int k = 0; k < i % 5; ++k) x = std::nextafter(x, 2 * base);
    for (int k = 0; k < i % 3; ++k) y = std::nextafter(y, 2 * base);
    r_boxes.push_back(Box(x, y, std::nextafter(x, 2 * base), y));
    s_boxes.push_back(Box(x, y, x, std::nextafter(y, 2 * base)));
  }
  const Dataset r("r", r_boxes);
  const Dataset s("s", s_boxes);
  ExpectNoMiss(r, s, 64, 64);
  ExpectNoMiss(r, s, 0, 0);
}

TEST(CellJoin, NegativeCoordinates) {
  Dataset r = testutil::Uniform(2000, 79, 990.0, 20.0);
  Dataset s = testutil::Skewed(2000, 80, 990.0);
  for (Dataset* d : {&r, &s}) {
    for (Box& b : d->mutable_boxes()) {
      b = Box(b.min_x - 1000, -b.max_y - 10, b.max_x - 1000, -b.min_y - 10);
    }
  }
  ExpectNoMiss(r, s, 0, 0);
  ExpectNoMiss(r, s, 11, 6);
}

// Pairs whose reference point lies on the extent's max edges: only the
// last column's and row's dedup tiles (closed to +inf) can claim them, and
// the entries there are rounded against the finite tile box.
TEST(CellJoin, LastRowAndColumnWithTheInfiniteDedupEdge) {
  std::vector<Box> r_boxes = {Box(0, 0, 1, 1), Box(90, 90, 100, 100),
                              Box(100, 0, 100, 100), Box(0, 100, 100, 100),
                              Box(99.5f, 99.5f, 100, 100)};
  std::vector<Box> s_boxes = {Box(100, 100, 100, 100), Box(100, 50, 100, 60),
                              Box(40, 100, 60, 100), Box(95, 95, 100, 100),
                              Box(0, 0, 0, 0)};
  const Dataset r("r", r_boxes);
  const Dataset s("s", s_boxes);
  for (const int n : {1, 3, 10, 64}) {
    SCOPED_TRACE(n);
    ExpectNoMiss(r, s, n, n);
  }
}

}  // namespace
}  // namespace swiftspatial
