// Soundness of deciding refine candidates from their MBRs
// (DecideRingsFromMbrs / DecidePointFromMbr): every decided pair must get
// the answer the exact test gives on the rings MakeConvexPolygon builds,
// and Refine must materialise rings only for the pairs left undecided.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geometry/polygon.h"
#include "join/nested_loop.h"
#include "refine/refinement.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

constexpr int kVertexCounts[] = {4, 8, 16, 64};

struct Tally {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t undecided = 0;
  std::size_t decided() const { return hits + misses; }
};

// Checks one polygon-polygon pair at every vertex count against the exact
// tests Refine would run: ConvexRingsIntersect when both rings are
// strictly convex, and PolygonsIntersect always.
void CheckRings(const Box& a, const Box& b, uint64_t id, Tally& tally,
                const std::string& where) {
  const MbrVerdict verdict = DecideRingsFromMbrs(a, b);
  EXPECT_EQ(verdict, DecideRingsFromMbrs(b, a)) << where;
  if (verdict == MbrVerdict::kUndecided) {
    ++tally.undecided;
    return;
  }
  const bool hit = verdict == MbrVerdict::kHit;
  (hit ? tally.hits : tally.misses) += 1;
  for (const int n : kVertexCounts) {
    const Polygon pa = MakeConvexPolygon(2 * id, a, n);
    const Polygon pb = MakeConvexPolygon(2 * id + 1, b, n);
    ASSERT_EQ(PolygonsIntersect(pa, pb), hit)
        << where << " n=" << n << " decided " << (hit ? "hit" : "miss");
    if (IsStrictlyConvexCcw(pa.vertices()) &&
        IsStrictlyConvexCcw(pb.vertices())) {
      ASSERT_EQ(ConvexRingsIntersect(pa.vertices(), pb.vertices()), hit)
          << where << " n=" << n;
    }
  }
}

// Checks one point-polygon pair at every vertex count against
// PointInPolygon.
void CheckPoint(const Point& p, const Box& polygon, uint64_t id, Tally& tally,
                const std::string& where) {
  const MbrVerdict verdict = DecidePointFromMbr(p, polygon);
  if (verdict == MbrVerdict::kUndecided) {
    ++tally.undecided;
    return;
  }
  const bool hit = verdict == MbrVerdict::kHit;
  (hit ? tally.hits : tally.misses) += 1;
  for (const int n : kVertexCounts) {
    ASSERT_EQ(PointInPolygon(p, MakeConvexPolygon(id, polygon, n)), hit)
        << where << " n=" << n << " decided " << (hit ? "hit" : "miss");
  }
}

std::string Describe(const Box& a, const Box& b) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "a=[%.9g,%.9g]x[%.9g,%.9g] b=[%.9g,%.9g]x[%.9g,%.9g]",
                a.min_x, a.max_x, a.min_y, a.max_y, b.min_x, b.max_x,
                b.min_y, b.max_y);
  return buf;
}

Box BoxAt(double cx, double cy, double rx, double ry) {
  return Box(static_cast<Coord>(cx - rx), static_cast<Coord>(cy - ry),
             static_cast<Coord>(cx + rx), static_cast<Coord>(cy + ry));
}

// Random pairs around centre `c` whose radii are `scale` times a log-uniform
// factor in [2^-aspect, 2^aspect] per axis, offset so that about half are
// in contact.
void CheckRandomPairs(double c, double scale, double aspect, int pairs,
                      uint64_t seed, Tally& tally) {
  Rng rng(seed);
  for (int i = 0; i < pairs; ++i) {
    const auto radius = [&] {
      return scale * std::exp2(rng.Uniform(-aspect, aspect));
    };
    const double rxa = radius(), rya = radius(), rxb = radius(),
                 ryb = radius();
    const Box a = BoxAt(c, c, rxa, rya);
    const Box b = BoxAt(c + rng.Uniform(-1.2, 1.2) * (rxa + rxb),
                        c + rng.Uniform(-1.2, 1.2) * (rya + ryb), rxb, ryb);
    CheckRings(a, b, static_cast<uint64_t>(i), tally, Describe(a, b));
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(MbrDecision, RandomPairsAgreeWithExactTests) {
  Tally tally;
  CheckRandomPairs(500.0, 2.0, 1.0, 3000, 1, tally);
  // Most pairs are decided: the test is not vacuous.
  EXPECT_GT(tally.hits, 1000u);
  EXPECT_GT(tally.misses, 200u);
  EXPECT_GT(tally.undecided, 100u);
}

TEST(MbrDecision, ExtremeAspectRatios) {
  Tally tally;
  CheckRandomPairs(100.0, 1.0, 20.0, 2000, 2, tally);
  CheckRandomPairs(0.0, 1e-3, 24.0, 1000, 3, tally);
  EXPECT_GT(tally.decided(), 500u);
}

TEST(MbrDecision, CoordinatesNearTenMillion) {
  // At 1e7 a float ulp is 1: rounded vertices sit on the integer lattice,
  // up to half a unit off the ellipse.
  Tally tally;
  for (const double c : {1e7, -1e7}) {
    CheckRandomPairs(c, 3.0, 1.5, 1500, 4, tally);
    CheckRandomPairs(c, 300.0, 3.0, 500, 5, tally);
  }
  EXPECT_GT(tally.decided(), 500u);
}

TEST(MbrDecision, DiagonalNearContactNearTenMillion) {
  // Octagons placed just apart, or just overlapping, along a diagonal,
  // where vertex rounding can reach across the ideal slabs: only the
  // rounding slack keeps these from being decided as misses.
  Tally tally;
  Rng rng(6);
  for (int i = 0; i < 4000; ++i) {
    const double c = (i % 2 == 0 ? 1 : -1) * rng.Uniform(9e6, 1.1e7);
    const double rxa = rng.Uniform(0.5, 6), rya = rng.Uniform(0.5, 6);
    const double rxb = rng.Uniform(0.5, 6), ryb = rng.Uniform(0.5, 6);
    const double reach = std::hypot(rxa, rya) + std::hypot(rxb, ryb);
    const double gap = rng.Uniform(-0.5, 4.0);
    const double sign = (i / 2) % 2 == 0 ? 1 : -1;
    const Box a = BoxAt(c, c, rxa, rya);
    const double shift = (reach + gap) / 2;
    // Along x + y for even i / 2, along x - y for odd.
    const Box b = BoxAt(c + shift, c + sign * shift, rxb, ryb);
    CheckRings(a, b, static_cast<uint64_t>(i), tally, Describe(a, b));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.misses, 500u);
}

TEST(MbrDecision, LatticeAndCoincidentBoxes) {
  // Boxes on an integer lattice share edges, corners and whole extents.
  std::vector<Box> boxes;
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 4; ++y) {
      for (int w : {1, 2, 3}) {
        for (int h : {1, 2}) {
          boxes.emplace_back(static_cast<Coord>(x), static_cast<Coord>(y),
                             static_cast<Coord>(x + w),
                             static_cast<Coord>(y + h));
        }
      }
    }
  }
  Tally tally;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (std::size_t j = i; j < boxes.size(); ++j) {
      CheckRings(boxes[i], boxes[j], i * boxes.size() + j, tally,
                 Describe(boxes[i], boxes[j]));
      if (HasFatalFailure()) return;
    }
  }
  // A box against itself (another object with the same MBR) is a hit.
  EXPECT_EQ(DecideRingsFromMbrs(boxes[0], boxes[0]), MbrVerdict::kHit);
  EXPECT_GT(tally.hits, 1000u);
}

TEST(MbrDecision, CollapsedAndUlpTinyBoxesStayUndecidedWhenInContact) {
  Tally tally;
  for (const double c : {0.0, 1.0, 1e3, 1e7, -3e5}) {
    const auto f = static_cast<Coord>(c);
    const Coord up = std::nextafter(f, 1e30f);
    const Coord up2 = std::nextafter(up, 1e30f);
    const Coord down = std::nextafter(f, -1e30f);
    const std::vector<Box> boxes = {
        Box(f, f, f, f),                // zero area
        Box(f, f - 1, f, f + 1),        // zero width
        Box(f - 1, f, f + 1, f),        // zero height
        Box(f, f, up, up),              // one ulp square
        Box(down, f, up2, up),          // a few ulps
        Box(f, f - 1000, up, f + 1000)  // one ulp wide, tall
    };
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      for (std::size_t j = 0; j < boxes.size(); ++j) {
        CheckRings(boxes[i], boxes[j], i * 8 + j, tally,
                   Describe(boxes[i], boxes[j]));
        CheckPoint(Point{boxes[j].min_x, boxes[j].min_y}, boxes[i], i, tally,
                   Describe(boxes[i], boxes[j]));
        if (HasFatalFailure()) return;
      }
    }
  }
  // None of these boxes holds a diamond, so nothing is a decided hit.
  EXPECT_EQ(tally.hits, 0u);
}

TEST(MbrDecision, JustTouchingDiamonds) {
  // Side by side, the W vertex of b at, just short of or just past the E
  // vertex of a: at four vertices the rings are the diamonds, touching,
  // just overlapping or just apart, where a decision that is off by any
  // rounding or margin claims the wrong answer. Most stay undecided. Every
  // other pair sits near the origin, where float steps are fine enough for
  // gaps of a few millionths of the radius.
  Tally tally;
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double c = i % 2 == 0 ? rng.Uniform(-1e4, 1e4) : rng.Uniform(-4, 4);
    const double rxa = rng.Uniform(0.5, 8), rya = rng.Uniform(0.5, 8);
    const double rxb = rng.Uniform(0.5, 8);
    const Box a = BoxAt(c, c, rxa, rya);
    const double spread = i % 2 == 0 ? 0.01 : 1e-4;
    const double gap = i % 3 == 0 ? 0.0 : rng.Uniform(-spread, spread) * rxa;
    const auto min_x = static_cast<Coord>(static_cast<double>(a.max_x) + gap);
    const Box b(min_x, a.min_y, static_cast<Coord>(min_x + 2 * rxb), a.max_y);
    CheckRings(a, b, static_cast<uint64_t>(i), tally, Describe(a, b));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.undecided, 500u);
}

TEST(MbrDecision, PointsAgreeWithPointInPolygon) {
  Tally tally;
  Rng rng(8);
  for (const double c : {0.0, 250.0, 1e7, -1e7}) {
    for (int i = 0; i < 1500; ++i) {
      const double rx = std::exp2(rng.Uniform(-4, 6));
      const double ry = rx * std::exp2(rng.Uniform(-8, 8));
      const Box poly = BoxAt(c, c, rx, ry);
      const Point p{static_cast<Coord>(c + rng.Uniform(-1.1, 1.1) * rx),
                    static_cast<Coord>(c + rng.Uniform(-1.1, 1.1) * ry)};
      CheckPoint(p, poly, static_cast<uint64_t>(i), tally,
                 Describe(poly, Box::FromPoint(p)));
      // The diamond's own vertices and centre.
      const auto fx = static_cast<Coord>(
          (static_cast<double>(poly.min_x) + poly.max_x) / 2);
      const auto fy = static_cast<Coord>(
          (static_cast<double>(poly.min_y) + poly.max_y) / 2);
      for (const Point q : {Point{poly.max_x, fy}, Point{fx, poly.max_y},
                            Point{poly.min_x, fy}, Point{fx, fy},
                            Point{poly.max_x, poly.max_y}}) {
        CheckPoint(q, poly, static_cast<uint64_t>(i), tally,
                   Describe(poly, Box::FromPoint(q)));
      }
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(tally.hits, 2000u);
  EXPECT_GT(tally.misses, 200u);
}

// Refine over `candidates`, checked pair by pair against the exact test on
// freshly built rings, in both argument orders for point kinds.
TEST(MbrDecision, RefineMatchesBruteForceInBothOrders) {
  const Dataset polys = testutil::Uniform(600, 160, 300.0, /*max_edge=*/20.0);
  const Dataset points = testutil::UniformPoints(3000, 161, 300.0);
  const Dataset polys2 = testutil::Uniform(600, 162, 300.0, /*max_edge=*/20.0);
  for (const int n : kVertexCounts) {
    RefinementOptions opt;
    opt.polygon_vertices = n;
    opt.num_threads = 2;

    const std::vector<ResultPair> pp = BruteForceJoin(polys, polys2).pairs();
    std::vector<ResultPair> expected;
    for (const ResultPair& p : pp) {
      const Polygon a = MakeConvexPolygon(
          static_cast<uint64_t>(p.r), polys.box(static_cast<std::size_t>(p.r)),
          n);
      const Polygon b = MakeConvexPolygon(
          static_cast<uint64_t>(p.s),
          polys2.box(static_cast<std::size_t>(p.s)), n);
      if (PolygonsIntersect(a, b)) expected.push_back(p);
    }
    RefinementStats stats;
    EXPECT_EQ(Refine(polys, GeometryKind::kPolygon, polys2,
                     GeometryKind::kPolygon, pp, opt, &stats)
                  .pairs(),
              expected)
        << "n=" << n;
    EXPECT_GT(stats.decided_hits + stats.decided_misses, pp.size() / 2);

    const std::vector<ResultPair> pt = BruteForceJoin(points, polys).pairs();
    std::vector<ResultPair> pt_expected;
    std::vector<ResultPair> swapped;
    std::vector<ResultPair> swapped_expected;
    for (const ResultPair& p : pt) {
      const Box& pb = points.box(static_cast<std::size_t>(p.r));
      const bool in = PointInPolygon(
          Point{pb.min_x, pb.min_y},
          MakeConvexPolygon(static_cast<uint64_t>(p.s),
                            polys.box(static_cast<std::size_t>(p.s)), n));
      if (in) pt_expected.push_back(p);
      swapped.push_back({p.s, p.r});
      if (in) swapped_expected.push_back({p.s, p.r});
    }
    EXPECT_EQ(Refine(points, GeometryKind::kPoint, polys,
                     GeometryKind::kPolygon, pt, opt)
                  .pairs(),
              pt_expected)
        << "n=" << n;
    EXPECT_EQ(Refine(polys, GeometryKind::kPolygon, points,
                     GeometryKind::kPoint, swapped, opt)
                  .pairs(),
              swapped_expected)
        << "n=" << n;
  }
}

TEST(MbrDecision, OnlyUndecidedPairsMaterialiseRings) {
  // r0 and s0 share their MBR (a decided hit); r1 is far off along the
  // diagonal from both s boxes (decided misses). s1 touches r0 at one
  // point, E of r0 on W of s1, which only the rings can decide.
  Dataset r("r", {Box(0, 0, 10, 10), Box(100, 100, 104, 103)});
  Dataset s("s", {Box(0, 0, 10, 10), Box(10, 0, 20, 10)});
  RefinementStats stats;
  const JoinResult out =
      Refine(r, GeometryKind::kPolygon, s, GeometryKind::kPolygon,
             {{0, 0}, {1, 1}, {1, 0}}, {}, &stats);
  EXPECT_EQ(out.pairs(), (std::vector<ResultPair>{{0, 0}}));
  EXPECT_EQ(stats.decided_hits, 1u);
  EXPECT_EQ(stats.decided_misses, 2u);
  EXPECT_EQ(stats.rings_materialised, 0u);

  // Only the undecided pairs build rings: two each.
  const std::vector<ResultPair> touching = {{0, 1}, {1, 1}, {0, 1}};
  const JoinResult refined = Refine(r, GeometryKind::kPolygon, s,
                                    GeometryKind::kPolygon, touching, {},
                                    &stats);
  EXPECT_EQ(refined.pairs(), (std::vector<ResultPair>{{0, 1}, {0, 1}}));
  EXPECT_EQ(stats.decided_misses, 1u);
  EXPECT_EQ(stats.decided_hits, 0u);
  EXPECT_EQ(stats.rings_materialised, 4u);
}

}  // namespace
}  // namespace swiftspatial
