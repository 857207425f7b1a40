// Tests of the R* insertion policy (§2.2, [11]): correctness first
// (identical query results, valid trees under mixed workloads), then the
// topology-quality properties that motivate it.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "rtree/stats.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

RTree BuildRStar(const Dataset& d, int max_entries = 16) {
  RTreeOptions opt;
  opt.max_entries = max_entries;
  opt.policy = InsertionPolicy::kRStar;
  return RTree::BuildByInsertion(d, opt);
}

TEST(RStarTree, ValidAfterBulkInsertion) {
  const Dataset d = testutil::Uniform(3000, 400);
  RTree t = BuildRStar(d);
  EXPECT_EQ(t.size(), d.size());
  ASSERT_TRUE(t.Validate().ok());
}

class RStarQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RStarQueryTest, WindowQueryMatchesBruteForce) {
  const Dataset d = testutil::Skewed(1500, 401);
  RTreeOptions opt;
  opt.max_entries = GetParam();
  opt.policy = InsertionPolicy::kRStar;
  RTree t = RTree::BuildByInsertion(d, opt);
  ASSERT_TRUE(t.Validate().ok());

  Rng rng(402);
  for (int q = 0; q < 25; ++q) {
    const Coord x = static_cast<Coord>(rng.Uniform(0, 900));
    const Coord y = static_cast<Coord>(rng.Uniform(0, 900));
    const Box w(x, y, x + 90, y + 90);
    auto got = t.WindowQuery(w);
    std::sort(got.begin(), got.end());
    std::vector<ObjectId> expected;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (Intersects(d.box(i), w)) expected.push_back(static_cast<ObjectId>(i));
    }
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(NodeSizes, RStarQueryTest,
                         ::testing::Values(8, 16, 32));

TEST(RStarTree, DeleteStillWorks) {
  const Dataset d = testutil::Uniform(600, 403);
  RTree t = BuildRStar(d);
  for (std::size_t i = 0; i < d.size(); i += 2) {
    ASSERT_TRUE(t.Delete(static_cast<ObjectId>(i), d.box(i)).ok()) << i;
  }
  EXPECT_EQ(t.size(), d.size() / 2);
  ASSERT_TRUE(t.Validate().ok());
}

TEST(RStarTree, MixedWorkloadStaysValid) {
  const Dataset d = testutil::Skewed(800, 404);
  RTreeOptions opt;
  opt.max_entries = 8;
  opt.policy = InsertionPolicy::kRStar;
  RTree t(opt);
  Rng rng(405);
  std::vector<bool> present(d.size(), false);
  for (int step = 0; step < 3000; ++step) {
    const std::size_t i = rng.NextBelow(d.size());
    if (present[i]) {
      ASSERT_TRUE(t.Delete(static_cast<ObjectId>(i), d.box(i)).ok());
    } else {
      t.Insert(static_cast<ObjectId>(i), d.box(i));
    }
    present[i] = !present[i];
    if (step % 500 == 499) {
      ASSERT_TRUE(t.Validate().ok()) << step;
    }
  }
  ASSERT_TRUE(t.Validate().ok());
}

TEST(RStarTree, PackRoundTrip) {
  const Dataset d = testutil::Uniform(1000, 406);
  RTree t = BuildRStar(d);
  const PackedRTree packed = t.Pack();
  ASSERT_TRUE(packed.Validate().ok());
  EXPECT_EQ(packed.num_objects(), d.size());
}

// Topology quality (deterministic fixture, so the inequalities are stable):
// R* should produce leaves that overlap less than Guttman's quadratic
// split, and bulk loading should beat both (§2.2).
TEST(RStarTree, TopologyQualityOrdering) {
  const Dataset d = testutil::Uniform(4000, 407);
  RTreeOptions gopt;
  gopt.max_entries = 16;
  const PackedRTree guttman = RTree::BuildByInsertion(d, gopt).Pack();
  const PackedRTree rstar = BuildRStar(d, 16).Pack();
  BulkLoadOptions bl;
  bl.max_entries = 16;
  const PackedRTree str = StrBulkLoad(d, bl);

  const TreeQualityStats g = ComputeTreeQuality(guttman);
  const TreeQualityStats r = ComputeTreeQuality(rstar);
  const TreeQualityStats s = ComputeTreeQuality(str);

  // R* splits minimise overlap directly and beat Guttman's quadratic split.
  EXPECT_LT(r.leaf_overlap_area, g.leaf_overlap_area);
  // Bulk loading beats naive dynamic insertion on overlap and packs leaves
  // much fuller (its build-cost advantage is covered by the quality bench).
  EXPECT_LT(s.leaf_overlap_area, g.leaf_overlap_area);
  EXPECT_GT(s.avg_leaf_fill, g.avg_leaf_fill);
  EXPECT_GT(s.avg_leaf_fill, 0.9);  // STR packs nearly full leaves
}

TEST(RStarTree, FewerNodeAccessesThanGuttman) {
  const Dataset d = testutil::Uniform(4000, 408);
  const PackedRTree guttman =
      RTree::BuildByInsertion(d, RTreeOptions{}).Pack();
  const PackedRTree rstar = BuildRStar(d).Pack();

  Rng rng(409);
  std::vector<Box> windows;
  for (int q = 0; q < 200; ++q) {
    const Coord x = static_cast<Coord>(rng.Uniform(0, 900));
    const Coord y = static_cast<Coord>(rng.Uniform(0, 900));
    windows.push_back(Box(x, y, x + 50, y + 50));
  }
  EXPECT_LT(AvgNodeAccesses(rstar, windows), AvgNodeAccesses(guttman, windows));
}

TEST(TreeQualityStats, CountsBasics) {
  const Dataset d = testutil::Uniform(500, 410);
  BulkLoadOptions bl;
  bl.max_entries = 16;
  const PackedRTree t = StrBulkLoad(d, bl);
  const TreeQualityStats q = ComputeTreeQuality(t);
  EXPECT_EQ(q.num_nodes, t.num_nodes());
  EXPECT_EQ(q.num_leaves, t.num_leaves());
  EXPECT_EQ(q.height, t.height());
  EXPECT_GT(q.avg_leaf_fill, 0.5);
  EXPECT_LE(q.avg_leaf_fill, 1.0);
  EXPECT_GT(q.total_leaf_area, 0);
}

TEST(WindowQueryNodeCount, CountsTheNodesAScalarQueryReads) {
  const Dataset d = testutil::Uniform(800, 411);
  BulkLoadOptions bl;
  const PackedRTree t = StrBulkLoad(d, bl);
  const Box w(100, 100, 300, 300);
  // Scalar oracle: the root plus every child whose directory entry the
  // window intersects, and the objects of the reached leaves.
  std::size_t expected_visited = 0;
  std::vector<ObjectId> expected;
  std::vector<NodeIndex> stack = {t.root()};
  while (!stack.empty()) {
    const NodeView nv = t.node(stack.back());
    stack.pop_back();
    ++expected_visited;
    for (int i = 0; i < nv.count(); ++i) {
      const PackedEntry e = nv.entry(i);
      if (!Intersects(e.box, w)) continue;
      (nv.is_leaf() ? expected : stack).push_back(e.id);
    }
  }
  std::size_t visited = 0;
  auto counted = t.WindowQuery(w, &visited);
  EXPECT_EQ(counted, t.WindowQuery(w));
  std::sort(counted.begin(), counted.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(counted, expected);
  EXPECT_EQ(visited, expected_visited);
  EXPECT_GT(visited, 1u);
  EXPECT_LT(visited, t.num_nodes());
}

TEST(InsertionPolicyToString, Names) {
  EXPECT_STREQ(InsertionPolicyToString(InsertionPolicy::kGuttman), "guttman");
  EXPECT_STREQ(InsertionPolicyToString(InsertionPolicy::kRStar), "r-star");
}

}  // namespace
}  // namespace swiftspatial
