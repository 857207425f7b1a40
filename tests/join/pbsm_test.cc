// The pbsm engine: 1-D PBSM (§5.1), the partitioned driver on a one-axis
// stripe grid.
#include <gtest/gtest.h>

#include <tuple>

#include "join/engine.h"
#include "join/nested_loop.h"
#include "join/tile_join.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

// One pbsm run through the engine registry; `stats` (when non-null)
// accumulates.
JoinResult RunPbsm(const Dataset& r, const Dataset& s,
                   const EngineConfig& config, JoinStats* stats = nullptr) {
  auto run = RunJoin(kPbsmEngine, r, s, config);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return JoinResult();
  if (stats != nullptr) *stats += run->stats;
  return std::move(run->result);
}

class PbsmConfigTest
    : public ::testing::TestWithParam<
          std::tuple<int, Axis, TileJoin, std::size_t>> {};

TEST_P(PbsmConfigTest, MatchesBruteForce) {
  const auto [partitions, axis, tile_join, threads] = GetParam();
  const Dataset r = testutil::Uniform(700, 90, 1000.0, /*max_edge=*/20.0);
  const Dataset s = testutil::Uniform(700, 91, 1000.0, /*max_edge=*/20.0);

  EngineConfig opt;
  opt.num_partitions = partitions;
  opt.axis = axis;
  opt.tile_join = tile_join;
  opt.num_threads = threads;
  JoinResult got = RunPbsm(r, s, opt);
  JoinResult expected = BruteForceJoin(r, s);
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PbsmConfigTest,
    ::testing::Combine(::testing::Values(1, 4, 64, 512),
                       ::testing::Values(Axis::kX, Axis::kY),
                       ::testing::Values(TileJoin::kPlaneSweep,
                                         TileJoin::kNestedLoop,
                                         TileJoin::kSimd),
                       ::testing::Values<std::size_t>(1, 4)));

TEST(Pbsm, NoDuplicatesDespiteMultiAssignment) {
  // Large objects overlap many stripes; the reference-point rule must keep
  // each result pair unique.
  const Dataset r = testutil::Uniform(300, 92, 500.0, /*max_edge=*/80.0);
  const Dataset s = testutil::Uniform(300, 93, 500.0, /*max_edge=*/80.0);
  EngineConfig opt;
  opt.num_partitions = 32;
  JoinResult got = RunPbsm(r, s, opt);
  got.Sort();
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_FALSE(got.pairs()[i] == got.pairs()[i - 1])
        << "duplicate pair (" << got.pairs()[i].r << "," << got.pairs()[i].s
        << ")";
  }
  JoinResult expected = BruteForceJoin(r, s);
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
}

TEST(Pbsm, SkewedDataCorrect) {
  const Dataset r = testutil::Skewed(1500, 94);
  const Dataset s = testutil::Skewed(1500, 95);
  EngineConfig opt;
  opt.num_partitions = 100;
  opt.num_threads = 2;
  JoinResult got = RunPbsm(r, s, opt);
  JoinResult expected = BruteForceJoin(r, s);
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
}

TEST(Pbsm, SeparatePhasesEqualCombined) {
  const Dataset r = testutil::Uniform(400, 96);
  const Dataset s = testutil::Uniform(400, 97);
  EngineConfig opt;
  opt.num_partitions = 16;
  auto plan = PrepareJoin(kPbsmEngine, BorrowDataset(r), BorrowDataset(s),
                          opt);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto executed = RunPreparedJoin(**plan, opt);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  JoinResult two_phase = std::move(executed->result);
  JoinResult combined = RunPbsm(r, s, opt);
  EXPECT_TRUE(JoinResult::SameMultiset(two_phase, combined));
}

TEST(Pbsm, MorePartitionsFewerChecksPerStripe) {
  const Dataset r = testutil::Uniform(2000, 98, 2000.0, /*max_edge=*/2.0);
  const Dataset s = testutil::Uniform(2000, 99, 2000.0, /*max_edge=*/2.0);
  JoinStats few, many;
  EngineConfig opt;
  opt.tile_join = TileJoin::kNestedLoop;
  opt.num_partitions = 2;
  RunPbsm(r, s, opt, &few);
  opt.num_partitions = 256;
  RunPbsm(r, s, opt, &many);
  // Finer partitioning prunes far more of the cross product.
  EXPECT_LT(many.predicate_evaluations, few.predicate_evaluations / 4);
}

TEST(Pbsm, ObjectsOnTheGlobalMaxBoundary) {
  // Regression: clamped OSM-like points sit exactly on the map's max edge;
  // their reference points coincide with the extent max, which the
  // half-open tile rule would silently drop without the closed-boundary
  // fix (CloseLastTile).
  OsmLikeConfig pc;
  pc.map.map_size = 500.0;
  pc.count = 2000;
  pc.num_clusters = 4;
  pc.cluster_radius_frac = 0.3;  // wide clusters: many clamped outliers
  pc.seed = 200;
  const Dataset points = GenerateOsmLikePoints(pc);
  OsmLikeConfig bc = pc;
  bc.seed = 201;
  const Dataset polys = GenerateOsmLike(bc);

  // Confirm the scenario is actually present.
  const Box extent = [&] {
    Box e = points.Extent();
    e.Expand(polys.Extent());
    return e;
  }();
  bool boundary_point = false;
  for (const Box& b : points.boxes()) {
    if (b.min_x == extent.max_x || b.min_y == extent.max_y) {
      boundary_point = true;
      break;
    }
  }
  ASSERT_TRUE(boundary_point) << "fixture no longer exercises the boundary";

  EngineConfig opt;
  opt.num_partitions = 64;
  JoinResult got = RunPbsm(points, polys, opt);
  JoinResult expected = BruteForceJoin(points, polys);
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
}

TEST(Pbsm, ObjectsOnFloatRoundedStripeEdges) {
  // Regression: stripe boundaries over a [0,1] extent at partition counts
  // that are not powers of two are not float-representable; the rounded
  // stripe edge can sit one ULP off the double boundary the assignment
  // index arithmetic uses. Objects exactly on a rounded edge must still
  // land in every stripe the reference-point rule can claim their pairs
  // for, at any partition count and on both axes.
  for (const Axis axis : {Axis::kX, Axis::kY}) {
    for (const int partitions : {7, 10, 13}) {
      std::vector<Box> r_boxes = {Box(0, 0, 0, 0), Box(1, 1, 1, 1)};
      std::vector<Box> s_boxes = r_boxes;
      // Mirror UniformGrid's edge formula over the [0, 1] extent:
      // min + p * ((max - min) / n) in double, rounded to Coord once.
      const double step = 1.0 / partitions;
      for (int p = 1; p < partitions; ++p) {
        const Coord edge = static_cast<Coord>(0.0 + p * step);
        const Coord other = 0.5f;
        const Box pt = axis == Axis::kX ? Box(edge, other, edge, other)
                                        : Box(other, edge, other, edge);
        r_boxes.push_back(pt);
        s_boxes.push_back(pt);
      }
      const Dataset r("stripe_r", std::move(r_boxes));
      const Dataset s("stripe_s", std::move(s_boxes));
      JoinResult expected = BruteForceJoin(r, s);
      ASSERT_GE(expected.size(), static_cast<std::size_t>(partitions + 1));

      EngineConfig opt;
      opt.num_partitions = partitions;
      opt.axis = axis;
      JoinResult got = RunPbsm(r, s, opt);
      EXPECT_TRUE(JoinResult::SameMultiset(expected, got))
          << partitions << " stripes on axis "
          << (axis == Axis::kX ? "x" : "y") << ": expected " << expected.size()
          << " pairs, got " << got.size();
    }
  }
}

TEST(Pbsm, CollidedFloatStripeEdgesFarFromOrigin) {
  // Above 2^24 the float lattice steps by 2, so 512 stripes over an 8-wide
  // extent collapse runs of ~64 consecutive stripe edges onto the same
  // representable float. The stripe owning a collapsed-edge reference point
  // then sits far from the double-arithmetic index estimate -- a fixed ±1
  // assignment window drops those pairs; only snapping along the rounded
  // edges (as UniformGrid::TileRange does) finds it.
  const Coord base = 16777216.0f;  // 2^24
  for (const Axis axis : {Axis::kX, Axis::kY}) {
    std::vector<Box> pts;
    for (int i = 0; i <= 4; ++i) {
      const Coord big = base + static_cast<Coord>(2 * i);
      const Coord small = static_cast<Coord>(i);
      const Box pt = axis == Axis::kX ? Box(big, small, big, small)
                                      : Box(small, big, small, big);
      pts.push_back(pt);
    }
    const Dataset r("ulp_r", std::vector<Box>(pts));
    const Dataset s("ulp_s", std::move(pts));
    JoinResult expected = BruteForceJoin(r, s);
    ASSERT_EQ(expected.size(), 5u);

    EngineConfig opt;
    opt.num_partitions = 512;
    opt.axis = axis;
    JoinResult got = RunPbsm(r, s, opt);
    EXPECT_TRUE(JoinResult::SameMultiset(expected, got))
        << "axis " << (axis == Axis::kX ? "x" : "y") << ": expected "
        << expected.size() << " pairs, got " << got.size();
  }
}

TEST(Pbsm, ZeroWidthExtentAlongPartitionAxis) {
  // All data on one vertical line, partitioned along x: every stripe
  // collapses onto the line and assignment must agree with the (single)
  // claiming stripe.
  std::vector<Box> line;
  for (int i = 0; i < 6; ++i) {
    line.push_back(Box(3, static_cast<Coord>(i), 3, static_cast<Coord>(i)));
  }
  const Dataset r("line_r", std::vector<Box>(line));
  const Dataset s("line_s", std::move(line));
  JoinResult expected = BruteForceJoin(r, s);
  ASSERT_EQ(expected.size(), 6u);
  EngineConfig opt;
  opt.num_partitions = 8;
  opt.axis = Axis::kX;
  JoinResult got = RunPbsm(r, s, opt);
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
}

TEST(TileJoinToString, Names) {
  EXPECT_STREQ(TileJoinToString(TileJoin::kPlaneSweep), "plane-sweep");
  EXPECT_STREQ(TileJoinToString(TileJoin::kNestedLoop), "nested-loop");
  EXPECT_STREQ(TileJoinToString(TileJoin::kSimd), "simd");
}

}  // namespace
}  // namespace swiftspatial
