// Simple polygons for the refinement phase (§5.8). The filtering phase works
// purely on MBRs; refinement re-checks candidate pairs against the actual
// geometries. We synthesize convex polygons deterministically from an
// object's id and MBR, so refinement can run without storing geometries in
// the index -- mirroring how the paper's pipeline refines on the CPU after
// the FPGA filter.
//
// Deciding a pair from its MBRs. Because MakeConvexPolygon builds every ring
// the same way from its box, the box alone yields an interior and an
// exterior approximation of the ring (true-hit and true-miss filters, as in
// Kipf et al.'s adaptive geospatial joins), and DecideRingsFromMbrs /
// DecidePointFromMbr answer most candidate pairs without any ring. The
// contract they rest on, for a box with centre (cx, cy) and radii (rx, ry)
// computed in double as MakeConvexPolygon computes them:
//  - The ring holds four pinned vertices bit for bit: E = (max_x, fy),
//    N = (fx, max_y), W = (min_x, fy), S = (fx, min_y), fx = (Coord)cx,
//    fy = (Coord)cy, in this CCW order. Their quad is the diamond.
//  - Every other vertex is the float rounding of (cx + rx cos t,
//    cy + ry sin t), t at a fraction in [0.1, 0.9] of its quadrant, and the
//    ring lists the vertices by angle.
// Proof sketch, in coordinates normalised to the box (u = (x - cx) / rx,
// v = (y - cy) / ry, an affine map, so sides of lines are kept):
//  - Interior. An unpinned vertex of quadrant 0 has u + v = cos t + sin t
//    >= sqrt(2) sin(0.3 pi) > 1.144 before rounding, so it lies beyond the
//    chord EN (u + v = 1) by 0.144. Float rounding moves a coordinate by at
//    most RB(m) = 2^-24 m + 2^-150 (m its largest magnitude in the box), so
//    in normalised units by at most RB / r. The guard r >= 256 RB on both
//    axes keeps that below 1/256: every unpinned vertex stays strictly
//    beyond its quadrant's chord and inside its open quadrant. Each
//    quadrant's run of the ring, closed by its chord, then lies in the
//    closed outer half-plane of that chord, so it does not wind around any
//    point of the open diamond: the ring winds exactly once around every
//    such point, and no ring edge enters the diamond. The ring's region
//    therefore contains the diamond, convex or not.
//  - Exterior. Along a diagonal n = (1, +-1), a vertex's projection differs
//    from its centre's by that of the ellipse point, at most the ellipse's
//    support sqrt(rx^2 + ry^2), plus at most RB(mx) + RB(my) from rounding
//    (the slack). Every vertex, hence the ring (a polygon lies in the hull
//    of its vertices, convex or not), lies in that slab, and the two
//    diagonal slabs cut the MBR to an octagon.
//  - Decisions. Let D be the largest coordinate magnitude of the pair and
//    the margin m = 2^-30 D. A hit needs both diamonds guarded and every
//    edge of either to have a vertex of the other at least m inside it;
//    then the diamonds (convex quads) still meet after any translation of
//    one by up to m, and so do the rings that contain them. A miss needs
//    the two slabs apart by more than m along a diagonal (the octagons).
//    A point is a hit when it is
//    at least m inside every edge of a guarded diamond, and a miss when it
//    is more than m outside one of those slabs.
//  - Equal to the exact tests. On float input, Cross is off by at most
//    2^-49 D |b - a| (eight rounding steps on terms of at most 2 D |b - a|),
//    about 2^-19 of the margin. ConvexRingsIntersect finds a separating
//    edge only when every vertex of the other ring is within that error of
//    the outer side of the edge's line; translating that ring by the error
//    would then separate the rings, which a hit rules out. For a miss the
//    two hulls are more than m apart, so no orientation or crossing the
//    exact tests evaluate can come out on the touching side: an edge pair
//    is reported crossing, or a vertex inside, only within that error of an
//    actual contact. Likewise a decided point
//    is at least m from the ring. A decided pair is thus answered as
//    ConvexRingsIntersect, PolygonsIntersect or PointInPolygon would answer
//    it; every other pair is left undecided. tests/refine/ checks every
//    decision against those tests on lattices, collapsed and ULP-tiny boxes,
//    extreme aspect ratios, coordinates near +-1e7 and touching pairs.
#ifndef SWIFTSPATIAL_GEOMETRY_POLYGON_H_
#define SWIFTSPATIAL_GEOMETRY_POLYGON_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"

namespace swiftspatial {

/// A polygon as a counter-clockwise vertex ring (no closing duplicate).
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> vertices)
      : vertices_(std::move(vertices)) {}

  const std::vector<Point>& vertices() const { return vertices_; }
  std::size_t size() const { return vertices_.size(); }
  bool empty() const { return vertices_.empty(); }

  /// Minimum bounding rectangle of the vertex ring.
  Box Mbr() const;

  /// True if the ring is convex and counter-clockwise.
  bool IsConvexCcw() const;

  /// Signed area (positive for counter-clockwise rings).
  double SignedArea() const;

 private:
  std::vector<Point> vertices_;
};

/// True iff point `p` is inside or on the boundary of `ring` (crossing
/// number with boundary inclusion; works for any simple polygon).
bool PointInPolygon(const Point& p, std::span<const Point> ring);
inline bool PointInPolygon(const Point& p, const Polygon& poly) {
  return PointInPolygon(p, poly.vertices());
}

/// True iff segments (a1,a2) and (b1,b2) intersect (including touching).
bool SegmentsIntersect(const Point& a1, const Point& a2, const Point& b1,
                       const Point& b2);

/// Exact intersection test for two simple polygon rings: true if any edges
/// cross or one polygon contains the other. O(n*m) segment tests.
bool PolygonsIntersect(std::span<const Point> a, std::span<const Point> b);
inline bool PolygonsIntersect(const Polygon& a, const Polygon& b) {
  return PolygonsIntersect(a.vertices(), b.vertices());
}

/// True iff `ring` is strictly convex and counter-clockwise: Cross > 0 on
/// every consecutive vertex triple (no collinear or repeated vertices, no
/// reflex turn) and the ring winds exactly once (a pentagram turns left at
/// every vertex but is not convex). Rings of fewer than three vertices,
/// and the collapsed rings MakeConvexPolygon builds for zero-width or
/// zero-height boxes, are not.
bool IsStrictlyConvexCcw(std::span<const Point> ring);

/// PolygonsIntersect for two rings that both satisfy IsStrictlyConvexCcw
/// (the caller checks; the answer is unspecified otherwise), by the
/// separating-edge test: the rings are disjoint iff some edge of one has
/// every vertex of the other strictly outside it (Cross < 0). Boundary
/// contact therefore counts as intersection, as in PolygonsIntersect. At
/// most O(n*m) orientation tests, and each edge's scan stops at the first
/// vertex that is not strictly outside it.
bool ConvexRingsIntersect(std::span<const Point> a, std::span<const Point> b);

/// Deterministically materializes a convex polygon inscribed in `mbr`.
/// The shape depends only on (id, vertex count), so refinement can rebuild
/// the geometry of object `id` at any time. The polygon touches all four
/// MBR edges, making the MBR tight.
Polygon MakeConvexPolygon(uint64_t id, const Box& mbr, int num_vertices = 8);

/// Buffer form: writes the ring MakeConvexPolygon(id, mbr, out.size())
/// returns, bit for bit, into `out` (at least 4 vertices). Allocates
/// nothing for rings of up to 64 vertices, so a caller can materialise
/// many polygons into one contiguous array.
void MakeConvexPolygon(uint64_t id, const Box& mbr, std::span<Point> out);

/// What two MBRs alone prove about the rings MakeConvexPolygon builds in
/// them (file comment): the pair certainly meets, certainly does not, or
/// needs its rings.
enum class MbrVerdict : uint8_t { kMiss = 0, kHit = 1, kUndecided = 2 };

/// Decides whether the rings MakeConvexPolygon builds in `a` and `b`
/// intersect, for any ids and vertex counts, from the boxes alone. A
/// decided verdict equals what ConvexRingsIntersect or PolygonsIntersect
/// returns on the rings.
MbrVerdict DecideRingsFromMbrs(const Box& a, const Box& b);

/// Decides PointInPolygon(p, ring) for the ring MakeConvexPolygon builds in
/// `polygon`, for any id and vertex count, from the box alone.
MbrVerdict DecidePointFromMbr(const Point& p, const Box& polygon);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_GEOMETRY_POLYGON_H_
