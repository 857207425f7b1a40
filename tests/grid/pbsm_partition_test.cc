// pbsm's 1-D partitioning (§5.1) is a UniformGrid with one partitioned axis
// -- n x 1 stripes along x, 1 x n along y -- over the joint extent of both
// inputs; a stripe is the grid's dedup tile.
#include <gtest/gtest.h>

#include <vector>

#include "grid/uniform_grid.h"
#include "join/engine.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

Box JointExtent(const Dataset& r, const Dataset& s) {
  Box extent = r.Extent();
  extent.Expand(s.Extent());
  return extent;
}

UniformGrid Stripes(const Dataset& r, const Dataset& s, int n, Axis axis) {
  const Box extent = JointExtent(r, s);
  return axis == Axis::kX ? UniformGrid(extent, n, 1)
                          : UniformGrid(extent, 1, n);
}

TEST(PartitionStripes, StripesTileTheExtent) {
  const Dataset r = testutil::Uniform(500, 10);
  const Dataset s = testutil::Uniform(500, 11);
  const UniformGrid grid = Stripes(r, s, 16, Axis::kX);
  ASSERT_EQ(grid.num_tiles(), 16);
  std::vector<Box> stripes;
  for (int t = 0; t < grid.num_tiles(); ++t) {
    stripes.push_back(grid.DedupTileByIndex(t));
  }
  const Box extent = JointExtent(r, s);
  EXPECT_FLOAT_EQ(stripes.front().min_x, extent.min_x);
  // Edges touching the extent max are pushed open (closed-boundary dedup).
  EXPECT_GE(stripes.back().max_x, extent.max_x);
  for (std::size_t i = 1; i + 1 < stripes.size(); ++i) {
    EXPECT_FLOAT_EQ(stripes[i].min_x, stripes[i - 1].max_x);
  }
  EXPECT_FLOAT_EQ(stripes.back().min_x, stripes[stripes.size() - 2].max_x);
}

class StripeAxisTest : public ::testing::TestWithParam<Axis> {};

TEST_P(StripeAxisTest, EveryObjectInItsOverlappingStripes) {
  const Axis axis = GetParam();
  const Dataset r = testutil::Uniform(800, 12, 1000.0, /*max_edge=*/50.0);
  const Dataset s = testutil::Uniform(800, 13, 1000.0, /*max_edge=*/50.0);
  const UniformGrid grid = Stripes(r, s, 20, axis);

  auto check = [&grid](const Dataset& d) {
    const auto parts = grid.Assign(d);
    std::vector<int> count(d.size(), 0);
    for (int i = 0; i < grid.num_tiles(); ++i) {
      for (ObjectId id : parts[i]) {
        ++count[id];
        EXPECT_TRUE(Intersects(d.box(static_cast<std::size_t>(id)),
                               grid.DedupTileByIndex(i)));
      }
    }
    for (std::size_t i = 0; i < d.size(); ++i) EXPECT_GE(count[i], 1) << i;
  };
  check(r);
  check(s);
}

INSTANTIATE_TEST_SUITE_P(Axes, StripeAxisTest,
                         ::testing::Values(Axis::kX, Axis::kY));

TEST(PartitionStripes, WideObjectsSpanMultipleStripes) {
  Dataset r("wide", {Box(0, 0, 1000, 1)});
  Dataset s("narrow", {Box(500, 0, 501, 1)});
  const UniformGrid grid = Stripes(r, s, 10, Axis::kX);
  int stripes_with_r = 0;
  for (const auto& part : grid.Assign(r)) {
    if (!part.empty()) ++stripes_with_r;
  }
  EXPECT_EQ(stripes_with_r, 10);
}

TEST(PartitionStripes, SinglePartitionHoldsEverything) {
  const Dataset r = testutil::Uniform(200, 14);
  const Dataset s = testutil::Uniform(300, 15);
  const UniformGrid grid = Stripes(r, s, 1, Axis::kX);
  EXPECT_EQ(grid.Assign(r)[0].size(), 200u);
  EXPECT_EQ(grid.Assign(s)[0].size(), 300u);
}

}  // namespace
}  // namespace swiftspatial
