// Simple polygons for the refinement phase (§5.8). The filtering phase works
// purely on MBRs; refinement re-checks candidate pairs against the actual
// geometries. We synthesize convex polygons deterministically from an
// object's id and MBR, so refinement can run without storing geometries in
// the index -- mirroring how the paper's pipeline refines on the CPU after
// the FPGA filter.
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

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_GEOMETRY_POLYGON_H_
