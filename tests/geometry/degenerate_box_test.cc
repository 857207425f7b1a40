// Regression tests for degenerate boxes: zero-area (point) boxes, edge- and
// corner-touching rectangles, and inverted min/max boxes. The partition
// drivers' reference-point deduplication (ReferencePointInTile +
// CloseLastTile) depends on these exact boundary semantics, so each
// property is pinned here: closed-boundary intersection, the
// exactly-one-tile guarantee for reference points on tile edges, and
// end-to-end agreement of the partitioned join with brute force on
// degenerate data.
#include <gtest/gtest.h>

#include <vector>

#include "datagen/dataset.h"
#include "geometry/box.h"
#include "grid/uniform_grid.h"
#include "join/nested_loop.h"
#include "join/partitioned_driver.h"
#include "join/result.h"

namespace swiftspatial {
namespace {

// ---------------------------------------------------------------------------
// Zero-area boxes.
// ---------------------------------------------------------------------------

TEST(DegenerateBox, ZeroAreaBoxIsNotEmpty) {
  const Box point(5, 5, 5, 5);
  EXPECT_FALSE(point.IsEmpty());  // a point is a valid (degenerate) box
  EXPECT_DOUBLE_EQ(point.Area(), 0.0);
  EXPECT_FLOAT_EQ(point.Width(), 0);
  EXPECT_FLOAT_EQ(point.Height(), 0);
}

TEST(DegenerateBox, PointBoxIntersection) {
  const Box point(5, 5, 5, 5);
  // A point on a rectangle's boundary intersects it (closed boundaries).
  EXPECT_TRUE(Intersects(point, Box(5, 5, 10, 10)));   // at min corner
  EXPECT_TRUE(Intersects(point, Box(0, 0, 5, 5)));     // at max corner
  EXPECT_TRUE(Intersects(point, Box(0, 5, 10, 5)));    // on a zero-height line
  EXPECT_TRUE(Intersects(point, point));               // self
  EXPECT_FALSE(Intersects(point, Box(5.001f, 5, 10, 10)));
  // Intersection of coincident points is the point itself.
  EXPECT_EQ(Intersection(point, point), point);
  EXPECT_FALSE(Intersection(point, point).IsEmpty());
}

// ---------------------------------------------------------------------------
// Touching edges.
// ---------------------------------------------------------------------------

TEST(DegenerateBox, TouchingEdgesIntersect) {
  const Box left(0, 0, 5, 5);
  const Box right(5, 0, 10, 5);   // shares the x=5 edge
  const Box above(0, 5, 5, 10);   // shares the y=5 edge
  const Box corner(5, 5, 10, 10); // shares only the (5,5) corner
  EXPECT_TRUE(Intersects(left, right));
  EXPECT_TRUE(Intersects(left, above));
  EXPECT_TRUE(Intersects(left, corner));

  // The shared region is a degenerate (zero-width / zero-area) box, not an
  // empty one: the reference-point rule relies on it having valid min
  // coordinates.
  EXPECT_EQ(Intersection(left, right), Box(5, 0, 5, 5));
  EXPECT_FALSE(Intersection(left, right).IsEmpty());
  EXPECT_EQ(Intersection(left, corner), Box(5, 5, 5, 5));
}

// ---------------------------------------------------------------------------
// Inverted min/max boxes.
// ---------------------------------------------------------------------------

TEST(DegenerateBox, InvertedBoxIsEmpty) {
  const Box inverted(5, 5, 3, 3);  // min > max on both axes
  EXPECT_TRUE(inverted.IsEmpty());
  EXPECT_DOUBLE_EQ(inverted.Area(), 0.0);
  EXPECT_DOUBLE_EQ(inverted.Perimeter(), 0.0);
  // The hardware predicate is the raw four-way comparison (Fig. 3) and does
  // NOT special-case inverted boxes: an inverted box still "intersects" a
  // box covering its span. Pinned here because the dedup rule and the join
  // algorithms rely on inputs being valid (min <= max) boxes -- datasets
  // must never contain inverted boxes.
  EXPECT_TRUE(Intersects(inverted, Box(0, 0, 10, 10)));
  // Against itself the comparisons fail (max < min on both axes).
  EXPECT_FALSE(Intersects(inverted, inverted));
  // Disjoint boxes produce exactly this inverted/empty shape from
  // Intersection(); IsEmpty() is the canonical disjointness check.
  EXPECT_TRUE(Intersection(Box(0, 0, 1, 1), Box(3, 3, 4, 4)).IsEmpty());
  // Expand with an inverted box keeps Box::Empty() the Expand identity.
  Box e = Box::Empty();
  e.Expand(inverted);
  EXPECT_TRUE(e.IsEmpty());
}

// ---------------------------------------------------------------------------
// Reference-point dedup on boundaries: for any qualifying pair, exactly one
// grid tile claims it, even when the reference point sits exactly on a tile
// edge or on the global extent boundary.
// ---------------------------------------------------------------------------

int ClaimingTiles(const Box& r, const Box& s, const UniformGrid& grid) {
  int claims = 0;
  for (int t = 0; t < grid.num_tiles(); ++t) {
    if (ReferencePointInTile(r, s, grid.DedupTileByIndex(t))) ++claims;
  }
  return claims;
}

TEST(DegenerateBox, ReferencePointClaimedByExactlyOneTile) {
  const Box extent(0, 0, 8, 8);
  const UniformGrid grid(extent, 4, 4);  // tile edges at 0, 2, 4, 6, 8

  struct Case {
    const char* label;
    Box r, s;
  };
  const Case cases[] = {
      {"interior pair", Box(1, 1, 3, 3), Box(2.5, 2.5, 5, 5)},
      {"reference point on a tile edge", Box(2, 2, 3, 3), Box(2, 2, 5, 5)},
      {"edge-touching pair (zero-width intersection)", Box(0, 0, 2, 2),
       Box(2, 0, 4, 2)},
      {"corner-touching pair (point intersection)", Box(0, 0, 2, 2),
       Box(2, 2, 4, 4)},
      {"coincident points", Box(4, 4, 4, 4), Box(4, 4, 4, 4)},
      {"point on the global max boundary", Box(8, 8, 8, 8), Box(6, 6, 8, 8)},
      {"pair spanning the whole extent", Box(0, 0, 8, 8), Box(0, 0, 8, 8)},
      {"reference point at the extent max corner", Box(7, 7, 8, 8),
       Box(8, 8, 8, 8)},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(Intersects(c.r, c.s)) << c.label;
    EXPECT_EQ(ClaimingTiles(c.r, c.s, grid), 1) << c.label;
  }
}

TEST(DegenerateBox, CloseLastTileIsIndexDriven) {
  constexpr Coord kInf = std::numeric_limits<Coord>::infinity();
  const Box tile(2, 2, 4, 4);
  EXPECT_EQ(CloseLastTile(tile, false, false), tile);
  EXPECT_EQ(CloseLastTile(tile, true, false), Box(2, 2, kInf, 4));
  EXPECT_EQ(CloseLastTile(tile, false, true), Box(2, 2, 4, kInf));
  EXPECT_EQ(CloseLastTile(tile, true, true), Box(2, 2, kInf, kInf));
}

// ---------------------------------------------------------------------------
// End-to-end: the partitioned driver on degenerate data must agree with
// brute force -- every pair found once, none dropped at cell boundaries.
// ---------------------------------------------------------------------------

TEST(DegenerateBox, PartitionedJoinHandlesDegenerateData) {
  // A hostile mix: coincident points, points on what will be cell edges,
  // zero-width lines, edge-touching rectangles, and full-extent spans.
  std::vector<Box> r_boxes = {
      Box(2, 2, 2, 2),  Box(2, 2, 2, 2),   // duplicate coincident points
      Box(4, 4, 4, 4),                     // point on a likely cell corner
      Box(0, 0, 0, 8),                     // zero-width vertical line
      Box(0, 4, 8, 4),                     // zero-height horizontal line
      Box(0, 0, 4, 4),  Box(4, 4, 8, 8),   // corner-touching squares
      Box(0, 0, 8, 8),                     // the whole extent
  };
  std::vector<Box> s_boxes = {
      Box(2, 2, 2, 2),                     // coincident with two R points
      Box(4, 0, 4, 8),                     // zero-width line through centre
      Box(4, 4, 8, 8),                     // touches several R objects
      Box(8, 8, 8, 8),                     // point at the extent max corner
      Box(1, 1, 3, 3),
  };
  const Dataset r("degenerate_r", std::move(r_boxes));
  const Dataset s("degenerate_s", std::move(s_boxes));

  JoinResult expected = BruteForceJoin(r, s);
  ASSERT_GT(expected.size(), 0u);

  for (const int grid_side : {1, 2, 4, 8}) {
    PartitionedDriverOptions options;
    options.grid_cols = grid_side;
    options.grid_rows = grid_side;
    options.num_threads = 2;
    auto plan = PlanPartitionedCells(r, s, options);
    ASSERT_TRUE(plan.ok());
    JoinResult got = ExecutePartitionedPlan(**plan, r, s, TileJoin::kPlaneSweep,
                                            options.num_threads, nullptr);
    EXPECT_TRUE(JoinResult::SameMultiset(expected, got))
        << "grid " << grid_side << "x" << grid_side << ": expected "
        << expected.size() << " pairs, got " << got.size();
  }
}

// ---------------------------------------------------------------------------
// Float-rounded cell edges: grid lines over a [0,1] extent at sides that are
// not powers of two (1/10, 1/7, ...) are not float-representable, so the
// Coord-rounded tile edge can sit one ULP to either side of the double grid
// line the cell-index arithmetic uses. An object placed exactly on such a
// rounded edge historically got assigned only to the cell the double index
// picked, while the reference-point rule (which compares against the rounded
// edges) claimed the pair for the neighbour -- silently dropping it. Placing
// coincident point pairs on every rounded interior corner pins the fix.
// ---------------------------------------------------------------------------

TEST(DegenerateBox, PartitionedJoinKeepsPairsOnFloatRoundedCellEdges) {
  for (const int side : {7, 10, 13}) {
    const UniformGrid grid(Box(0, 0, 1, 1), side, side);
    // Corner anchors force the driver's derived extent to exactly [0,1]^2 so
    // its internal grid reproduces `grid`'s rounded edges.
    std::vector<Box> r_boxes = {Box(0, 0, 0, 0), Box(1, 1, 1, 1)};
    std::vector<Box> s_boxes = {Box(0, 0, 0, 0), Box(1, 1, 1, 1)};
    for (int k = 1; k < side; ++k) {
      const Box tile = grid.TileBox(k, k);
      r_boxes.push_back(Box(tile.min_x, tile.min_y, tile.min_x, tile.min_y));
      s_boxes.push_back(Box(tile.min_x, tile.min_y, tile.min_x, tile.min_y));
    }
    const Dataset r("edge_r", std::move(r_boxes));
    const Dataset s("edge_s", std::move(s_boxes));
    JoinResult expected = BruteForceJoin(r, s);
    // At least one pair per rounded corner (its coincident partner in S).
    ASSERT_GE(expected.size(), static_cast<std::size_t>(side + 1));

    PartitionedDriverOptions options;
    options.grid_cols = side;
    options.grid_rows = side;
    options.num_threads = 2;
    auto plan = PlanPartitionedCells(r, s, options);
    ASSERT_TRUE(plan.ok());
    JoinResult got = ExecutePartitionedPlan(**plan, r, s, TileJoin::kPlaneSweep,
                                            options.num_threads, nullptr);
    EXPECT_TRUE(JoinResult::SameMultiset(expected, got))
        << side << "x" << side << " grid: expected " << expected.size()
        << " pairs, got " << got.size();
  }
}

// A degenerate (zero-width) extent collapses every grid column onto one
// line; assignment and the dedup rule must agree on which column claims.
TEST(DegenerateBox, PartitionedJoinOnZeroWidthExtent) {
  std::vector<Box> line;
  for (int i = 0; i <= 8; ++i) {
    line.push_back(Box(5, static_cast<Coord>(i), 5, static_cast<Coord>(i)));
  }
  const Dataset r("line_r", std::vector<Box>(line));
  const Dataset s("line_s", std::move(line));
  JoinResult expected = BruteForceJoin(r, s);
  ASSERT_EQ(expected.size(), 9u);

  for (const int side : {1, 3, 4}) {
    PartitionedDriverOptions options;
    options.grid_cols = side;
    options.grid_rows = side;
    auto plan = PlanPartitionedCells(r, s, options);
    ASSERT_TRUE(plan.ok());
    JoinResult got = ExecutePartitionedPlan(**plan, r, s, TileJoin::kPlaneSweep,
                                            options.num_threads, nullptr);
    EXPECT_TRUE(JoinResult::SameMultiset(expected, got))
        << side << "x" << side << " grid: expected " << expected.size()
        << " pairs, got " << got.size();
  }
}

}  // namespace
}  // namespace swiftspatial
