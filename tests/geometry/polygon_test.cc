#include "geometry/polygon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "common/rng.h"

namespace swiftspatial {
namespace {

Polygon UnitSquare() {
  return Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
}

TEST(Polygon, MbrAndArea) {
  const Polygon p = UnitSquare();
  EXPECT_EQ(p.Mbr(), Box(0, 0, 1, 1));
  EXPECT_DOUBLE_EQ(p.SignedArea(), 1.0);
  EXPECT_TRUE(p.IsConvexCcw());
}

TEST(Polygon, ClockwiseIsNotCcw) {
  const Polygon p({{0, 0}, {0, 1}, {1, 1}, {1, 0}});
  EXPECT_LT(p.SignedArea(), 0.0);
  EXPECT_FALSE(p.IsConvexCcw());
}

TEST(PointInPolygon, InsideOutsideBoundary) {
  const Polygon p = UnitSquare();
  EXPECT_TRUE(PointInPolygon(Point{0.5, 0.5}, p));
  EXPECT_FALSE(PointInPolygon(Point{1.5, 0.5}, p));
  EXPECT_FALSE(PointInPolygon(Point{-0.1, 0.5}, p));
  // Boundary counts as inside.
  EXPECT_TRUE(PointInPolygon(Point{0, 0.5}, p));
  EXPECT_TRUE(PointInPolygon(Point{1, 1}, p));
}

TEST(PointInPolygon, ConcavePolygon) {
  // An L-shape: the notch is outside.
  const Polygon l({{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}});
  EXPECT_TRUE(PointInPolygon(Point{0.5, 1.5}, l));
  EXPECT_TRUE(PointInPolygon(Point{1.5, 0.5}, l));
  EXPECT_FALSE(PointInPolygon(Point{1.5, 1.5}, l));
}

TEST(SegmentsIntersect, CrossingAndParallel) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 2}, {0, 2}, {2, 0}));
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {1, 0}, {0, 1}, {1, 1}));
  // Touching at an endpoint counts.
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {1, 1}, {1, 1}, {2, 0}));
  // Collinear overlapping.
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 0}, {1, 0}, {3, 0}));
  // Collinear disjoint.
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {1, 0}, {2, 0}, {3, 0}));
}

TEST(PolygonsIntersect, OverlappingSquares) {
  const Polygon a = UnitSquare();
  const Polygon b({{0.5, 0.5}, {1.5, 0.5}, {1.5, 1.5}, {0.5, 1.5}});
  EXPECT_TRUE(PolygonsIntersect(a, b));
}

TEST(PolygonsIntersect, DisjointSquares) {
  const Polygon a = UnitSquare();
  const Polygon b({{3, 3}, {4, 3}, {4, 4}, {3, 4}});
  EXPECT_FALSE(PolygonsIntersect(a, b));
}

TEST(PolygonsIntersect, FullContainment) {
  const Polygon outer({{-1, -1}, {2, -1}, {2, 2}, {-1, 2}});
  const Polygon inner = UnitSquare();
  EXPECT_TRUE(PolygonsIntersect(outer, inner));
  EXPECT_TRUE(PolygonsIntersect(inner, outer));
}

TEST(PolygonsIntersect, MbrOverlapButGeometryDisjoint) {
  // A large lower-left triangle and a small triangle tucked into the
  // upper-right corner of its MBR: the MBRs overlap but the shapes do not.
  // The refinement phase exists exactly for this case.
  const Polygon a({{0, 0}, {10, 0}, {0, 10}});
  const Polygon b({{9, 9}, {10, 9}, {10, 10}});
  EXPECT_TRUE(Intersects(a.Mbr(), b.Mbr()));
  EXPECT_FALSE(PolygonsIntersect(a, b));
}

class MakeConvexPolygonTest : public ::testing::TestWithParam<int> {};

TEST_P(MakeConvexPolygonTest, ConvexCcwTightMbr) {
  const int vertices = GetParam();
  Rng rng(99);
  for (uint64_t id = 0; id < 200; ++id) {
    const Box mbr(static_cast<Coord>(rng.Uniform(0, 100)),
                  static_cast<Coord>(rng.Uniform(0, 100)),
                  static_cast<Coord>(rng.Uniform(100, 200)),
                  static_cast<Coord>(rng.Uniform(100, 200)));
    const Polygon p = MakeConvexPolygon(id, mbr, vertices);
    EXPECT_EQ(p.size(), static_cast<std::size_t>(vertices));
    EXPECT_TRUE(p.IsConvexCcw()) << "id=" << id;
    const Box got = p.Mbr();
    EXPECT_NEAR(got.min_x, mbr.min_x, 1e-3);
    EXPECT_NEAR(got.min_y, mbr.min_y, 1e-3);
    EXPECT_NEAR(got.max_x, mbr.max_x, 1e-3);
    EXPECT_NEAR(got.max_y, mbr.max_y, 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(VertexCounts, MakeConvexPolygonTest,
                         ::testing::Values(4, 6, 8, 12, 16, 32));

TEST(MakeConvexPolygon, DeterministicPerId) {
  const Box mbr(0, 0, 10, 10);
  const Polygon a = MakeConvexPolygon(42, mbr, 8);
  const Polygon b = MakeConvexPolygon(42, mbr, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.vertices()[i], b.vertices()[i]);
  }
  const Polygon c = MakeConvexPolygon(43, mbr, 8);
  bool identical = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a.vertices()[i] == c.vertices()[i])) identical = false;
  }
  EXPECT_FALSE(identical) << "different ids must differ";
}

// --- Buffer form and convex fast path ------------------------------------

TEST(MakeConvexPolygon, BufferFormIsBitIdenticalToVectorForm) {
  // Random boxes at several magnitudes, lattice boxes, and the degenerate
  // boxes the Refine.ZeroAreaMbrAsPolygonBehavesAsPoint and
  // Refine.ZeroWidthMbrAsPolygonIsASegment tests materialise.
  const std::vector<Box> degenerate = {Box(5, 5, 5, 5), Box(7, 7, 7, 7),
                                       Box(5, 2, 5, 8), Box(2, 5, 8, 5),
                                       Box(0, 0, 10, 10)};
  for (const int vertices : {4, 5, 8, 64}) {
    Rng rng(static_cast<uint64_t>(vertices));
    std::vector<Point> buffer(static_cast<std::size_t>(vertices));
    std::size_t mismatches = 0;
    auto check = [&](uint64_t id, const Box& mbr) {
      const Polygon expected = MakeConvexPolygon(id, mbr, vertices);
      MakeConvexPolygon(id, mbr, buffer);
      if (std::memcmp(expected.vertices().data(), buffer.data(),
                      buffer.size() * sizeof(Point)) != 0) {
        ++mismatches;
      }
    };
    for (uint64_t id = 0; id < 100000; ++id) {
      const double scale = id % 3 == 0 ? 1.0 : (id % 3 == 1 ? 1e3 : 1e6);
      const double x = rng.Uniform(-scale, scale);
      const double y = rng.Uniform(-scale, scale);
      check(id, Box(static_cast<Coord>(x), static_cast<Coord>(y),
                    static_cast<Coord>(x + rng.Uniform(0, scale / 10)),
                    static_cast<Coord>(y + rng.Uniform(0, scale / 10))));
    }
    for (const Box& mbr : degenerate) check(0, mbr);
    EXPECT_EQ(mismatches, 0u) << "vertices=" << vertices;
  }
}

TEST(IsStrictlyConvexCcw, AcceptsOnlyStrictlyConvexCounterClockwiseRings) {
  EXPECT_TRUE(IsStrictlyConvexCcw(UnitSquare().vertices()));
  EXPECT_TRUE(IsStrictlyConvexCcw(std::vector<Point>{{0, 0}, {1, 0}, {0, 1}}));
  // Clockwise.
  EXPECT_FALSE(
      IsStrictlyConvexCcw(std::vector<Point>{{0, 0}, {0, 1}, {1, 1}, {1, 0}}));
  // A collinear vertex in the middle of an edge.
  EXPECT_FALSE(IsStrictlyConvexCcw(
      std::vector<Point>{{0, 0}, {1, 0}, {2, 0}, {2, 2}, {0, 2}}));
  // A repeated vertex.
  EXPECT_FALSE(IsStrictlyConvexCcw(
      std::vector<Point>{{0, 0}, {1, 0}, {1, 0}, {1, 1}, {0, 1}}));
  // A reflex vertex (L-shape).
  EXPECT_FALSE(IsStrictlyConvexCcw(std::vector<Point>{
      {0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}}));
  // A pentagram turns left at every vertex but winds twice.
  EXPECT_FALSE(IsStrictlyConvexCcw(std::vector<Point>{
      {0, 10}, {-6, -8}, {10, 3}, {-10, 3}, {6, -8}}));
  EXPECT_FALSE(IsStrictlyConvexCcw(std::vector<Point>{{0, 0}, {1, 0}}));
}

TEST(IsStrictlyConvexCcw, CollapsedBoxesTakeTheFallback) {
  // Zero-width, zero-height and zero-area boxes materialise as rings with
  // repeated or collinear vertices; Refine must not send them to the
  // convex path.
  for (const int vertices : {4, 5, 8, 17, 64}) {
    for (const Box& mbr : {Box(5, 5, 5, 5), Box(5, 2, 5, 8), Box(2, 5, 8, 5),
                           Box(0, 0, 0, 3), Box(0, 3, 3, 3)}) {
      EXPECT_FALSE(
          IsStrictlyConvexCcw(MakeConvexPolygon(1, mbr, vertices).vertices()))
          << "vertices=" << vertices;
    }
  }
}

// The answer Refine gives a polygon-polygon pair: the separating-edge test
// when both rings are strictly convex, PolygonsIntersect otherwise.
bool RefinePathIntersects(std::span<const Point> a, std::span<const Point> b) {
  if (IsStrictlyConvexCcw(a) && IsStrictlyConvexCcw(b)) {
    return ConvexRingsIntersect(a, b);
  }
  return PolygonsIntersect(a, b);
}

// True if some edge of one ring has every vertex of the other on or outside
// it: the pairs a non-strict separating test would wrongly call disjoint
// when they touch.
bool WeaklySeparated(std::span<const Point> a, std::span<const Point> b) {
  auto one_way = [](std::span<const Point> ring, std::span<const Point> other) {
    for (std::size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
      if (std::all_of(other.begin(), other.end(), [&](const Point& p) {
            return Cross(ring[j], ring[i], p) <= 0;
          })) {
        return true;
      }
    }
    return false;
  };
  return one_way(a, b) || one_way(b, a);
}

TEST(ConvexRingsIntersect, NamedLatticeCases) {
  const std::vector<Point> square = {{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  struct Case {
    const char* name;
    std::vector<Point> other;
    bool intersects;
  };
  const std::vector<Case> cases = {
      {"touching edges", {{2, 0}, {4, 0}, {4, 2}, {2, 2}}, true},
      {"shared vertex", {{2, 2}, {4, 2}, {4, 4}, {2, 4}}, true},
      {"vertex on edge", {{2, 1}, {4, 0}, {4, 2}}, true},
      {"collinear overlapping edges", {{1, 2}, {3, 2}, {3, 4}, {1, 4}}, true},
      {"contained", {{1, 1}, {2, 1}, {1, 2}}, true},
      {"contains", {{-1, -1}, {3, -1}, {3, 3}, {-1, 3}}, true},
      {"identical", square, true},
      {"crossing", {{1, -1}, {3, 1}, {1, 3}, {-1, 1}}, true},
      {"one unit apart", {{3, 0}, {4, 0}, {4, 2}, {3, 2}}, false},
      {"diagonal gap", {{3, 2}, {4, 2}, {3, 3}}, false},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(IsStrictlyConvexCcw(c.other)) << c.name;
    EXPECT_EQ(PolygonsIntersect(square, c.other), c.intersects) << c.name;
    EXPECT_EQ(ConvexRingsIntersect(square, c.other), c.intersects) << c.name;
    EXPECT_EQ(ConvexRingsIntersect(c.other, square), c.intersects) << c.name;
  }
}

// Strictly convex CCW hull of `pts` (monotone chain, collinear points
// dropped); fewer than three points when they are all collinear.
std::vector<Point> StrictHull(std::vector<Point> pts) {
  std::sort(pts.begin(), pts.end(), [](const Point& a, const Point& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  if (pts.size() < 3) return pts;
  std::vector<Point> hull(2 * pts.size());
  std::size_t k = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    while (k >= 2 && Cross(hull[k - 2], hull[k - 1], pts[i]) <= 0) --k;
    hull[k++] = pts[i];
  }
  for (std::size_t i = pts.size() - 1, lower = k + 1; i-- > 0;) {
    while (k >= lower && Cross(hull[k - 2], hull[k - 1], pts[i]) <= 0) --k;
    hull[k++] = pts[i];
  }
  hull.resize(k - 1);
  return hull;
}

TEST(ConvexRingsIntersect, EqualsPolygonsIntersectOnLatticeHulls) {
  // Small hulls of random points on a 7 x 7 integer lattice: touching
  // edges, shared vertices, vertices on edges, collinear overlapping edges,
  // containment both ways and identical rings all occur many times, and
  // every orientation test is exact.
  Rng rng(2501);
  std::vector<std::vector<Point>> rings;
  while (rings.size() < 200) {
    const int64_t w = rng.UniformInt(1, 3);
    const int64_t x0 = rng.UniformInt(0, 6 - w);
    const int64_t y0 = rng.UniformInt(0, 6 - w);
    std::vector<Point> pts;
    for (int64_t i = rng.UniformInt(3, 7); i > 0; --i) {
      pts.push_back(Point{static_cast<Coord>(x0 + rng.UniformInt(0, w)),
                          static_cast<Coord>(y0 + rng.UniformInt(0, w))});
    }
    std::vector<Point> hull = StrictHull(std::move(pts));
    if (hull.size() >= 3) rings.push_back(std::move(hull));
  }
  std::size_t touching = 0, disjoint = 0, contained = 0;
  for (const auto& a : rings) {
    ASSERT_TRUE(IsStrictlyConvexCcw(a));
    for (const auto& b : rings) {
      const bool exact = PolygonsIntersect(a, b);
      ASSERT_EQ(ConvexRingsIntersect(a, b), exact);
      if (!exact) {
        ++disjoint;
      } else if (WeaklySeparated(a, b)) {
        ++touching;
      } else if (std::all_of(b.begin(), b.end(), [&](const Point& p) {
                   return PointInPolygon(p, a);
                 })) {
        ++contained;
      }
    }
  }
  EXPECT_GT(touching, 1000u);
  EXPECT_GT(disjoint, 1000u);
  EXPECT_GT(contained, 100u);
}

class ConvexPathOnBoxesTest : public ::testing::TestWithParam<int> {};

TEST_P(ConvexPathOnBoxesTest, EqualsPolygonsIntersectOnLatticeBoxes) {
  // MakeConvexPolygon rings over every box with corners on a 4 x 4 integer
  // lattice, zero-width, zero-height and zero-area boxes included: boxes
  // sharing a side give rings that meet at a pinned edge midpoint.
  const int vertices = GetParam();
  std::vector<Polygon> rings;
  std::size_t positive_area = 0;
  for (int x0 = 0; x0 <= 3; ++x0) {
    for (int x1 = x0; x1 <= 3; ++x1) {
      for (int y0 = 0; y0 <= 3; ++y0) {
        for (int y1 = y0; y1 <= 3; ++y1) {
          if (x0 < x1 && y0 < y1) ++positive_area;
          rings.push_back(MakeConvexPolygon(
              rings.size(), Box(static_cast<Coord>(x0), static_cast<Coord>(y0),
                                static_cast<Coord>(x1), static_cast<Coord>(y1)),
              vertices));
        }
      }
    }
  }
  std::size_t convex_pairs = 0, touching = 0;
  for (const Polygon& a : rings) {
    for (const Polygon& b : rings) {
      const bool exact = PolygonsIntersect(a, b);
      ASSERT_EQ(RefinePathIntersects(a.vertices(), b.vertices()), exact);
      if (IsStrictlyConvexCcw(a.vertices()) &&
          IsStrictlyConvexCcw(b.vertices())) {
        ++convex_pairs;
        if (exact && WeaklySeparated(a.vertices(), b.vertices())) ++touching;
      }
    }
  }
  // Every box of positive area gives a ring that takes the convex path.
  EXPECT_EQ(convex_pairs, positive_area * positive_area);
  EXPECT_GT(touching, 100u);
}

INSTANTIATE_TEST_SUITE_P(VertexCounts, ConvexPathOnBoxesTest,
                         ::testing::Values(4, 5, 8, 17, 64));

}  // namespace
}  // namespace swiftspatial
