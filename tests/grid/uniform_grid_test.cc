#include "grid/uniform_grid.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace swiftspatial {
namespace {

TEST(UniformGrid, TileGeometryCoversExtent) {
  const UniformGrid grid(Box(0, 0, 100, 50), 4, 2);
  EXPECT_EQ(grid.num_tiles(), 8);
  EXPECT_EQ(grid.TileBox(0, 0), Box(0, 0, 25, 25));
  EXPECT_EQ(grid.TileBox(3, 1), Box(75, 25, 100, 50));
  // Tiles tile the extent exactly: union of all tile boxes = extent.
  Box u = Box::Empty();
  for (int t = 0; t < grid.num_tiles(); ++t) u.Expand(grid.TileBoxByIndex(t));
  EXPECT_EQ(u, Box(0, 0, 100, 50));
}

TEST(UniformGrid, TileRangeClamped) {
  const UniformGrid grid(Box(0, 0, 100, 100), 10, 10);
  int x0, y0, x1, y1;
  grid.TileRange(Box(-50, -50, 5, 5), &x0, &y0, &x1, &y1);
  EXPECT_EQ(x0, 0);
  EXPECT_EQ(y0, 0);
  grid.TileRange(Box(95, 95, 500, 500), &x0, &y0, &x1, &y1);
  EXPECT_EQ(x1, 9);
  EXPECT_EQ(y1, 9);
}

TEST(UniformGrid, AssignmentCoversEveryObject) {
  const Dataset d = testutil::Uniform(1000, 8);
  const UniformGrid grid(d.Extent(), 8, 8);
  const auto assign = grid.Assign(d);
  std::vector<int> seen(d.size(), 0);
  for (int t = 0; t < grid.num_tiles(); ++t) {
    const Box tile = grid.TileBoxByIndex(t);
    for (ObjectId id : assign[t]) {
      ++seen[id];
      EXPECT_TRUE(Intersects(d.box(static_cast<std::size_t>(id)), tile));
    }
  }
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_GE(seen[i], 1) << "object " << i << " unassigned";
  }
}

TEST(UniformGrid, MultiTileObjectsAssignedToAllOverlaps) {
  // One big box spanning the whole extent lands in every tile.
  Dataset d("big", {Box(0, 0, 100, 100), Box(10, 10, 11, 11)});
  const UniformGrid grid(Box(0, 0, 100, 100), 4, 4);
  const auto assign = grid.Assign(d);
  int big_count = 0;
  for (const auto& tile : assign) {
    for (ObjectId id : tile) {
      if (id == 0) ++big_count;
    }
  }
  EXPECT_EQ(big_count, 16);
}

TEST(UniformGrid, SingleTileGrid) {
  const Dataset d = testutil::Uniform(100, 9);
  const UniformGrid grid(d.Extent(), 1, 1);
  const auto assign = grid.Assign(d);
  EXPECT_EQ(assign[0].size(), d.size());
}

// The grid's edge formula, restated: interior line k of n sits at
// min + k * ((max - min) / n), computed in double and rounded to Coord once;
// lines 0 and n are the extent's own edges.
Coord ReferenceEdge(Coord min, Coord max, int n, int k) {
  if (k <= 0) return min;
  if (k >= n) return max;
  const double step = static_cast<double>(max - min) / n;
  return static_cast<Coord>(min + k * step);
}

::testing::AssertionResult BitIdentical(const Box& a, const Box& b) {
  if (std::memcmp(&a, &b, sizeof(Box)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "(" << a.min_x << ", " << a.min_y << ", " << a.max_x << ", "
         << a.max_y << ") vs (" << b.min_x << ", " << b.min_y << ", "
         << b.max_x << ", " << b.max_y << ")";
}

// Assignment, restated as the one-pass loop: every tile of the box's
// TileRange whose closed box the object overlaps, ids pushed in order.
std::vector<std::vector<ObjectId>> ReferenceAssign(const UniformGrid& grid,
                                                   const Dataset& d) {
  std::vector<std::vector<ObjectId>> assignment(grid.num_tiles());
  for (std::size_t i = 0; i < d.size(); ++i) {
    const Box& b = d.box(i);
    int tx0, ty0, tx1, ty1;
    grid.TileRange(b, &tx0, &ty0, &tx1, &ty1);
    for (int ty = ty0; ty <= ty1; ++ty) {
      for (int tx = tx0; tx <= tx1; ++tx) {
        if (Intersects(b, grid.TileBox(tx, ty))) {
          assignment[ty * grid.cols() + tx].push_back(static_cast<ObjectId>(i));
        }
      }
    }
  }
  return assignment;
}

struct AssignCase {
  std::string name;
  Dataset data;
  Box extent;
  int cols;
  int rows;
};

std::vector<AssignCase> AssignCases() {
  std::vector<AssignCase> cases;
  Dataset uniform = testutil::Uniform(500, 71, 300.0, /*max_edge=*/40.0);
  cases.push_back({"uniform", uniform, uniform.Extent(), 13, 11});
  Dataset skewed = testutil::Skewed(500, 72, 300.0);
  cases.push_back({"skewed", skewed, skewed.Extent(), 16, 16});
  cases.push_back({"single_tile", uniform, uniform.Extent(), 1, 1});

  // One object spans the whole extent; the others sit on tile edges.
  cases.push_back({"world_spanning",
                   Dataset("w", {Box(10, 10, 20, 20), Box(0, 0, 100, 100),
                                 Box(25, 25, 25, 25), Box(50, 0, 50, 100),
                                 Box(99, 99, 100, 100), Box(0, 0, 0, 0)}),
                   Box(0, 0, 100, 100), 4, 4});
  // Boxes wholly or partly outside the grid's extent: TileRange clamps
  // them to border tiles, and only true overlaps are assigned.
  cases.push_back({"outside_extent",
                   Dataset("o", {Box(-50, -50, -10, -10), Box(150, 20, 160, 30),
                                 Box(-5, 40, 5, 60), Box(90, 90, 200, 200),
                                 Box(30, 120, 40, 130), Box(40, 40, 60, 60)}),
                   Box(0, 0, 100, 100), 5, 5});
  // A zero-width x axis: every object lands in the last column.
  cases.push_back({"zero_width_axis",
                   Dataset("z", {Box(5, 0, 5, 10), Box(5, 30, 5, 70),
                                 Box(5, 99, 5, 100), Box(4, 50, 6, 51)}),
                   Box(5, 0, 5, 100), 4, 4});
  // Far from the origin the float ulp (1.0 at 1e7) exceeds the tile width,
  // so runs of interior edges collapse onto the same float.
  std::vector<Box> far;
  for (int i = 0; i < 200; ++i) {
    const float x = 1e7f + static_cast<float>(i % 17);
    const float y = 1e7f + static_cast<float>(i % 13);
    far.push_back(Box(x, y, x + static_cast<float>(i % 3), y + 1.0f));
  }
  cases.push_back({"far_from_origin", Dataset("f", far),
                   Box(1e7f, 1e7f, 1e7f + 20.0f, 1e7f + 16.0f), 64, 64});
  cases.push_back({"empty", Dataset("e", {}), Box(0, 0, 10, 10), 3, 3});
  return cases;
}

TEST(UniformGrid, AssignIsIdenticalAtEveryThreadCount) {
  for (const AssignCase& c : AssignCases()) {
    SCOPED_TRACE(c.name);
    const UniformGrid grid(c.extent, c.cols, c.rows);
    const auto expected = ReferenceAssign(grid, c.data);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{8}, c.data.size() + 5}) {
      EXPECT_EQ(grid.Assign(c.data, threads), expected)
          << threads << " threads";
    }
  }
}

TEST(UniformGrid, TileBoxesFollowTheEdgeFormula) {
  for (const AssignCase& c : AssignCases()) {
    SCOPED_TRACE(c.name);
    const UniformGrid grid(c.extent, c.cols, c.rows);
    const Box& e = c.extent;
    for (int t = 0; t < grid.num_tiles(); ++t) {
      const int tx = t % c.cols;
      const int ty = t / c.cols;
      const Box expected(ReferenceEdge(e.min_x, e.max_x, c.cols, tx),
                         ReferenceEdge(e.min_y, e.max_y, c.rows, ty),
                         ReferenceEdge(e.min_x, e.max_x, c.cols, tx + 1),
                         ReferenceEdge(e.min_y, e.max_y, c.rows, ty + 1));
      ASSERT_TRUE(BitIdentical(grid.TileBox(tx, ty), expected)) << "tile " << t;
      ASSERT_TRUE(BitIdentical(grid.TileBoxByIndex(t), expected))
          << "tile " << t;
      ASSERT_TRUE(BitIdentical(
          grid.DedupTileByIndex(t),
          CloseLastTile(expected, tx == c.cols - 1, ty == c.rows - 1)))
          << "tile " << t;
    }
  }
}

}  // namespace
}  // namespace swiftspatial
