#include "refine/refinement.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "geometry/polygon.h"
#include "join/nested_loop.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

TEST(Refine, PointPointPassThrough) {
  const Dataset r = testutil::UniformPoints(200, 140);
  const Dataset s = testutil::UniformPoints(200, 141);
  JoinResult candidates = BruteForceJoin(r, s);
  RefinementStats stats;
  JoinResult refined = Refine(r, GeometryKind::kPoint, s, GeometryKind::kPoint,
                              candidates.pairs(), {}, &stats);
  // Point-point MBR intersection is already exact: nothing is filtered.
  EXPECT_EQ(refined.size(), candidates.size());
  EXPECT_EQ(stats.false_positives, 0u);
}

TEST(Refine, PolygonPolygonRemovesFalsePositives) {
  const Dataset r = testutil::Uniform(400, 142, 500.0, /*max_edge=*/25.0);
  const Dataset s = testutil::Uniform(400, 143, 500.0, /*max_edge=*/25.0);
  JoinResult candidates = BruteForceJoin(r, s);
  RefinementStats stats;
  JoinResult refined =
      Refine(r, GeometryKind::kPolygon, s, GeometryKind::kPolygon,
             candidates.pairs(), {}, &stats);
  EXPECT_EQ(stats.candidates, candidates.size());
  EXPECT_EQ(stats.verified, refined.size());
  EXPECT_LE(refined.size(), candidates.size());
  // MBR-overlapping random polygons sometimes miss: expect a nonzero
  // false-positive rate at this density.
  EXPECT_GT(stats.false_positives, 0u);
  // But the polygons are inscribed in their MBRs, so a clear majority of
  // candidates survive.
  EXPECT_GT(refined.size(), candidates.size() / 2);
}

TEST(Refine, VerifiedPairsActuallyIntersect) {
  const Dataset r = testutil::Uniform(150, 144, 300.0, /*max_edge=*/30.0);
  const Dataset s = testutil::Uniform(150, 145, 300.0, /*max_edge=*/30.0);
  JoinResult candidates = BruteForceJoin(r, s);
  RefinementOptions opt;
  opt.polygon_vertices = 8;
  JoinResult refined = Refine(r, GeometryKind::kPolygon, s,
                              GeometryKind::kPolygon, candidates.pairs(), opt);
  for (const ResultPair& p : refined.pairs()) {
    const Polygon rp = MakeConvexPolygon(
        static_cast<uint64_t>(p.r), r.box(static_cast<std::size_t>(p.r)), 8);
    const Polygon sp = MakeConvexPolygon(
        static_cast<uint64_t>(p.s), s.box(static_cast<std::size_t>(p.s)), 8);
    EXPECT_TRUE(PolygonsIntersect(rp, sp));
  }
}

TEST(Refine, PointInPolygonDirectionality) {
  // A point at an MBR corner is outside the inscribed polygon.
  Dataset polys("p", {Box(0, 0, 10, 10)});
  Dataset corner("c", {Box(0.05f, 0.05f, 0.05f, 0.05f)});
  Dataset center("m", {Box(5, 5, 5, 5)});
  const std::vector<ResultPair> pair = {{0, 0}};

  JoinResult corner_hit = Refine(corner, GeometryKind::kPoint, polys,
                                 GeometryKind::kPolygon, pair, {});
  EXPECT_TRUE(corner_hit.empty());
  JoinResult center_hit = Refine(center, GeometryKind::kPoint, polys,
                                 GeometryKind::kPolygon, pair, {});
  EXPECT_EQ(center_hit.size(), 1u);

  // Swapped sides: polygon on the left, point on the right.
  JoinResult swapped = Refine(polys, GeometryKind::kPolygon, center,
                              GeometryKind::kPoint, pair, {});
  EXPECT_EQ(swapped.size(), 1u);
}

TEST(Refine, ParallelAgreesWithSerial) {
  const Dataset r = testutil::Skewed(500, 146);
  const Dataset s = testutil::Skewed(500, 147);
  JoinResult candidates = BruteForceJoin(r, s);
  RefinementOptions serial, parallel;
  serial.num_threads = 1;
  parallel.num_threads = 4;
  JoinResult a = Refine(r, GeometryKind::kPolygon, s, GeometryKind::kPolygon,
                        candidates.pairs(), serial);
  JoinResult b = Refine(r, GeometryKind::kPolygon, s, GeometryKind::kPolygon,
                        candidates.pairs(), parallel);
  EXPECT_TRUE(JoinResult::SameMultiset(a, b));
}

TEST(Refine, OutputIsInCandidateOrderAtEveryThreadCount) {
  // Survivors come out in candidate order whatever the thread count: each
  // candidate gets a keep flag, and the flags are compacted in order. The
  // candidates are shuffled so that order is not the sorted one, and there
  // are enough of them that eight workers each verify several ranges.
  const Dataset r = testutil::Uniform(1500, 153, 600.0, /*max_edge=*/30.0);
  const Dataset s = testutil::Uniform(1500, 154, 600.0, /*max_edge=*/30.0);
  std::vector<ResultPair> candidates = BruteForceJoin(r, s).pairs();
  ASSERT_GT(candidates.size(), 8u * 512u);
  Rng rng(155);
  for (std::size_t i = candidates.size() - 1; i > 0; --i) {
    std::swap(candidates[i], candidates[rng.Next() % (i + 1)]);
  }

  RefinementOptions opt;
  std::vector<ResultPair> expected;
  for (const ResultPair& p : candidates) {
    const Polygon rp = MakeConvexPolygon(
        static_cast<uint64_t>(p.r), r.box(static_cast<std::size_t>(p.r)),
        opt.polygon_vertices);
    const Polygon sp = MakeConvexPolygon(
        static_cast<uint64_t>(p.s), s.box(static_cast<std::size_t>(p.s)),
        opt.polygon_vertices);
    if (PolygonsIntersect(rp, sp)) expected.push_back(p);
  }
  ASSERT_LT(expected.size(), candidates.size());

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    opt.num_threads = threads;
    const JoinResult refined = Refine(r, GeometryKind::kPolygon, s,
                                      GeometryKind::kPolygon, candidates, opt);
    EXPECT_EQ(refined.pairs(), expected) << "num_threads=" << threads;
  }
}

TEST(Refine, MoreVerticesTighterFit) {
  // Higher vertex counts approximate the MBR-inscribed ellipse better, so
  // the survivor count should not decrease much and never exceed.
  const Dataset r = testutil::Uniform(300, 148, 400.0, /*max_edge=*/20.0);
  const Dataset s = testutil::Uniform(300, 149, 400.0, /*max_edge=*/20.0);
  JoinResult candidates = BruteForceJoin(r, s);
  RefinementOptions coarse, fine;
  coarse.polygon_vertices = 4;   // diamonds: smallest inscribed area
  fine.polygon_vertices = 32;    // near-ellipse
  JoinResult few = Refine(r, GeometryKind::kPolygon, s, GeometryKind::kPolygon,
                          candidates.pairs(), coarse);
  JoinResult many = Refine(r, GeometryKind::kPolygon, s,
                           GeometryKind::kPolygon, candidates.pairs(), fine);
  EXPECT_GE(many.size(), few.size());
}

// --- Degenerate-candidate semantics: pinned, not incidental. -------------
// Zero-area MBRs materialise as point-like polygons, and boundary contact
// counts as intersection (closed-boundary semantics, matching
// geometry::Intersects). Each expectation below is cross-checked against
// the geometry primitives directly, so Refine can never silently diverge
// from them on edge cases.

TEST(Refine, ZeroAreaMbrAsPolygonBehavesAsPoint) {
  // A zero-area "polygon" collapses to its MBR's single point. Coincident
  // zero-area objects on both sides must survive refinement; a zero-area
  // object strictly inside a fat polygon survives iff the point is in it.
  const Box zero(5, 5, 5, 5);
  Dataset degenerate("z", {zero});
  Dataset fat("f", {Box(0, 0, 10, 10)});
  const std::vector<ResultPair> pair = {{0, 0}};

  JoinResult coincident =
      Refine(degenerate, GeometryKind::kPolygon, degenerate,
             GeometryKind::kPolygon, pair, {});
  EXPECT_EQ(coincident.size(), 1u)
      << "coincident zero-area polygons must intersect";

  RefinementOptions opt;
  JoinResult vs_fat = Refine(degenerate, GeometryKind::kPolygon, fat,
                             GeometryKind::kPolygon, pair, opt);
  const Polygon zp = MakeConvexPolygon(0, zero, opt.polygon_vertices);
  const Polygon fp =
      MakeConvexPolygon(0, Box(0, 0, 10, 10), opt.polygon_vertices);
  EXPECT_EQ(vs_fat.size() == 1u, PolygonsIntersect(zp, fp))
      << "Refine must agree with PolygonsIntersect on degenerate geometry";
  // And that primitive answer is "inside": the MBR centre is interior.
  EXPECT_TRUE(PolygonsIntersect(zp, fp));
}

TEST(Refine, ZeroWidthMbrAsPolygonIsASegment) {
  // A zero-width MBR materialises as a vertical-segment polygon. Against a
  // polygon whose MBR contains the segment, Refine must answer exactly what
  // the exact primitive answers.
  const Box segment(5, 2, 5, 8);
  const Box fat(0, 0, 10, 10);
  Dataset seg_d("seg", {segment});
  Dataset fat_d("fat", {fat});
  const std::vector<ResultPair> pair = {{0, 0}};
  RefinementOptions opt;
  JoinResult refined = Refine(seg_d, GeometryKind::kPolygon, fat_d,
                              GeometryKind::kPolygon, pair, opt);
  const bool exact = PolygonsIntersect(
      MakeConvexPolygon(0, segment, opt.polygon_vertices),
      MakeConvexPolygon(0, fat, opt.polygon_vertices));
  EXPECT_EQ(refined.size() == 1u, exact);
}

TEST(Refine, PointTouchingPolygonBoundaryIsInside) {
  // Closed-boundary semantics: a point-kind object exactly on the
  // polygon-kind object's boundary (a vertex, and an edge midpoint) is
  // verified, not filtered.
  const Box mbr(0, 0, 10, 10);
  RefinementOptions opt;
  const Polygon poly = MakeConvexPolygon(0, mbr, opt.polygon_vertices);
  ASSERT_GE(poly.size(), 3u);
  const Point vertex = poly.vertices()[0];
  const Point next = poly.vertices()[1];
  const Point mid{static_cast<Coord>((vertex.x + next.x) / 2),
                  static_cast<Coord>((vertex.y + next.y) / 2)};

  Dataset polys("p", {mbr});
  const std::vector<ResultPair> pair = {{0, 0}};
  for (const Point& p : {vertex, mid}) {
    Dataset pt("pt", {Box::FromPoint(p)});
    JoinResult hit = Refine(pt, GeometryKind::kPoint, polys,
                            GeometryKind::kPolygon, pair, opt);
    // Refine must answer exactly what the primitive answers (the float
    // midpoint of a chord may round an epsilon off the edge, so only
    // consistency is required of it).
    EXPECT_EQ(hit.size() == 1u, PointInPolygon(p, poly));
  }
  // The vertex itself lies exactly on the ring: closed-boundary semantics
  // make it inside, and Refine above verified it accordingly.
  EXPECT_TRUE(PointInPolygon(vertex, poly));
}

TEST(Refine, PointKindCoincidingWithZeroAreaPolygonKind) {
  // Point-kind vs a zero-area polygon-kind object: only exact coincidence
  // survives.
  const Box zero(7, 7, 7, 7);
  Dataset polys("p", {zero});
  const std::vector<ResultPair> pair = {{0, 0}};
  Dataset same("s", {Box(7, 7, 7, 7)});
  Dataset off("o", {Box(7.5f, 7, 7.5f, 7)});
  EXPECT_EQ(Refine(same, GeometryKind::kPoint, polys, GeometryKind::kPolygon,
                   pair, {})
                .size(),
            1u);
  EXPECT_TRUE(Refine(off, GeometryKind::kPoint, polys,
                     GeometryKind::kPolygon, pair, {})
                  .empty());
}

TEST(Refine, RepeatedObjectsGiveIdenticalOutput) {
  // Many candidates sharing few objects, some decided from their MBRs and
  // some verified: the output must be identical to direct per-pair
  // materialisation, including duplicate candidate pairs.
  const Dataset r = testutil::Uniform(40, 151, 120.0, /*max_edge=*/25.0);
  const Dataset s = testutil::Uniform(40, 152, 120.0, /*max_edge=*/25.0);
  JoinResult base = BruteForceJoin(r, s);
  std::vector<ResultPair> candidates = base.pairs();
  // Duplicate every candidate so objects repeat heavily.
  candidates.insert(candidates.end(), base.pairs().begin(),
                    base.pairs().end());

  RefinementOptions opt;
  opt.num_threads = 4;
  JoinResult refined = Refine(r, GeometryKind::kPolygon, s,
                              GeometryKind::kPolygon, candidates, opt);

  JoinResult direct;
  for (const ResultPair& p : candidates) {
    const Polygon rp =
        MakeConvexPolygon(static_cast<uint64_t>(p.r),
                          r.box(static_cast<std::size_t>(p.r)),
                          opt.polygon_vertices);
    const Polygon sp =
        MakeConvexPolygon(static_cast<uint64_t>(p.s),
                          s.box(static_cast<std::size_t>(p.s)),
                          opt.polygon_vertices);
    if (PolygonsIntersect(rp, sp)) direct.Add(p.r, p.s);
  }
  EXPECT_TRUE(JoinResult::SameMultiset(direct, refined));
  ASSERT_FALSE(refined.empty());
}

TEST(Refine, EmptyCandidates) {
  const Dataset r = testutil::Uniform(10, 150);
  RefinementStats stats;
  JoinResult out = Refine(r, GeometryKind::kPolygon, r, GeometryKind::kPolygon,
                          {}, {}, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.candidates, 0u);
}

}  // namespace
}  // namespace swiftspatial
