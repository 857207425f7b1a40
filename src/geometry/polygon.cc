#include "geometry/polygon.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "common/logging.h"
#include "common/rng.h"

namespace swiftspatial {

namespace {

Box RingMbr(std::span<const Point> ring) {
  Box out = Box::Empty();
  for (const Point& p : ring) out.Expand(Box::FromPoint(p));
  return out;
}

// True if the direction b - a lies in the half-turn [0, pi).
bool PointsUp(const Point& a, const Point& b) {
  return b.y > a.y || (b.y == a.y && b.x > a.x);
}

// True if every vertex of `other` lies strictly outside (right of) one edge
// of the CCW ring `ring`. Each edge's scan starts half a ring past the
// edge's own index: when both rings have the same count of vertices laid
// out by angle, as MakeConvexPolygon's are, that vertex faces the edge from
// the inside, so an edge that does not separate is usually settled by one
// test. The start only orders the scan; the answer does not depend on it.
bool HasSeparatingEdge(std::span<const Point> ring,
                       std::span<const Point> other) {
  const std::size_t m = other.size();
  std::size_t start = m / 2;
  for (std::size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
    const Point& a = ring[j];
    const Point& b = ring[i];
    bool separates = true;
    for (std::size_t tested = 0, k = start; tested < m; ++tested) {
      if (!(Cross(a, b, other[k]) < 0)) {
        separates = false;
        break;
      }
      if (++k == m) k = 0;
    }
    if (separates) return true;
    if (++start == m) start = 0;
  }
  return false;
}

// The centre and radii MakeConvexPolygon places its ellipse at, computed
// the same way, and the box's largest coordinate magnitude on each axis.
struct Ellipse {
  explicit Ellipse(const Box& b)
      : cx((static_cast<double>(b.min_x) + b.max_x) / 2),
        cy((static_cast<double>(b.min_y) + b.max_y) / 2),
        rx((static_cast<double>(b.max_x) - b.min_x) / 2),
        ry((static_cast<double>(b.max_y) - b.min_y) / 2),
        mx(std::max(std::fabs(b.min_x), std::fabs(b.max_x))),
        my(std::max(std::fabs(b.min_y), std::fabs(b.max_y))) {}
  double cx, cy, rx, ry, mx, my;
};

// Bound on how far rounding a double of magnitude at most `m` to Coord
// moves it: half an ulp, and half the smallest subnormal below FLT_MIN.
double RoundingBound(double m) { return 0x1p-24 * m + 0x1p-150; }

// The decision margin for a pair whose coordinates are at most `d` in
// magnitude; about 2^19 times the rounding error of Cross on them.
double Margin(double d) { return 0x1p-30 * d; }

// True if the rings MakeConvexPolygon builds in the boxes of `a` and `b` (a
// point being a box with zero radii) are apart by more than `margin` along
// a diagonal. Along a diagonal every vertex of a ring lies within the
// ellipse's support sqrt(rx^2 + ry^2) of its centre, widened by how far
// rounding can move it; the margin is scaled by the diagonal's L1 length,
// 2, which bounds its L2 length.
bool ExteriorsApart(const Ellipse& a, const Ellipse& b, double margin) {
  const double dx = b.cx - a.cx;
  const double dy = b.cy - a.cy;
  const double slack_x = RoundingBound(a.mx) + RoundingBound(b.mx);
  const double slack_y = RoundingBound(a.my) + RoundingBound(b.my);
  // Along (1, 1) and (1, -1) at once: both supports are sqrt(rx^2 + ry^2),
  // and the larger gap, max(|dx + dy|, |dx - dy|), is |dx| + |dy|.
  const auto diagonal = [](const Ellipse& e) {
    return std::sqrt(e.rx * e.rx + e.ry * e.ry);
  };
  return std::fabs(dx) + std::fabs(dy) - diagonal(a) - diagonal(b) -
             slack_x - slack_y >
         2 * margin;
}

// A vertex widened to double once, as Cross widens its arguments on every
// call.
struct Vertex {
  double x, y;
};

// The ring's four pinned vertices E, N, W, S (CCW) of box `b` (with
// ellipse `e`), written to `out`, if the ring is sure to contain their
// diamond: both radii at least 256 rounding steps, so no rounded vertex can
// reach its quadrant's chord.
bool GuardedDiamond(const Box& b, const Ellipse& e,
                    std::array<Vertex, 4>& out) {
  if (!(e.rx >= 256 * RoundingBound(e.mx) &&
        e.ry >= 256 * RoundingBound(e.my))) {
    return false;
  }
  const double fx = static_cast<Coord>(e.cx);
  const double fy = static_cast<Coord>(e.cy);
  out = {Vertex{b.max_x, fy}, Vertex{fx, b.max_y}, Vertex{b.min_x, fy},
         Vertex{fx, b.min_y}};
  return true;
}

// True if `p` is at least `margin` inside the edge (a, b) of a CCW ring:
// Cross(a, b, p) at least `margin` times the edge's L1 length.
bool DeepInside(const Vertex& a, const Vertex& b, const Vertex& p,
                double margin) {
  const double ex = b.x - a.x;
  const double ey = b.y - a.y;
  return ex * (p.y - a.y) - ey * (p.x - a.x) >=
         margin * (std::fabs(ex) + std::fabs(ey));
}

// True if every edge of the diamond `a` has a vertex of `b` at least
// `margin` inside it. An edge's outward normal points into the edge's own
// quadrant (both components nonzero under the guard), so of b's vertices
// the two on the far side, b[i + 1] and b[i + 2] for the edge ending at
// a[i], reach furthest inside it; the test looks at those two only, and
// without early exits, so the loop has no data-dependent branch.
bool ReachesIntoEveryEdge(const std::array<Vertex, 4>& a,
                          const std::array<Vertex, 4>& b, double margin) {
  bool reaches = true;
  for (std::size_t i = 0, j = 3; i < 4; j = i++) {
    reaches &= DeepInside(a[j], a[i], b[(i + 1) % 4], margin) |
               DeepInside(a[j], a[i], b[(i + 2) % 4], margin);
  }
  return reaches;
}

}  // namespace

Box Polygon::Mbr() const { return RingMbr(vertices_); }

bool Polygon::IsConvexCcw() const {
  const std::size_t n = vertices_.size();
  if (n < 3) return false;
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    const Point& c = vertices_[(i + 2) % n];
    if (Cross(a, b, c) < 0) return false;
  }
  return true;
}

double Polygon::SignedArea() const {
  const std::size_t n = vertices_.size();
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    acc += static_cast<double>(a.x) * b.y - static_cast<double>(b.x) * a.y;
  }
  return acc / 2.0;
}

bool PointInPolygon(const Point& p, std::span<const Point> v) {
  const std::size_t n = v.size();
  if (n < 3) return false;
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    // Boundary counts as inside: check if p lies on edge (v[j], v[i]).
    const double cr = Cross(v[j], v[i], p);
    if (cr == 0 && std::min(v[j].x, v[i].x) <= p.x &&
        p.x <= std::max(v[j].x, v[i].x) && std::min(v[j].y, v[i].y) <= p.y &&
        p.y <= std::max(v[j].y, v[i].y)) {
      return true;
    }
    // Crossing-number ray cast to the right.
    if ((v[i].y > p.y) != (v[j].y > p.y)) {
      const double t = (static_cast<double>(p.y) - v[i].y) /
                       (static_cast<double>(v[j].y) - v[i].y);
      const double xx = v[i].x + t * (static_cast<double>(v[j].x) - v[i].x);
      if (p.x < xx) inside = !inside;
    }
  }
  return inside;
}

bool SegmentsIntersect(const Point& a1, const Point& a2, const Point& b1,
                       const Point& b2) {
  auto sgn = [](double v) { return v > 0 ? 1 : (v < 0 ? -1 : 0); };
  const int d1 = sgn(Cross(b1, b2, a1));
  const int d2 = sgn(Cross(b1, b2, a2));
  const int d3 = sgn(Cross(a1, a2, b1));
  const int d4 = sgn(Cross(a1, a2, b2));
  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
      ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))) {
    return true;
  }
  auto on_segment = [](const Point& p, const Point& q, const Point& r) {
    return std::min(p.x, r.x) <= q.x && q.x <= std::max(p.x, r.x) &&
           std::min(p.y, r.y) <= q.y && q.y <= std::max(p.y, r.y);
  };
  if (d1 == 0 && on_segment(b1, a1, b2)) return true;
  if (d2 == 0 && on_segment(b1, a2, b2)) return true;
  if (d3 == 0 && on_segment(a1, b1, a2)) return true;
  if (d4 == 0 && on_segment(a1, b2, a2)) return true;
  return false;
}

bool PolygonsIntersect(std::span<const Point> va, std::span<const Point> vb) {
  if (va.size() < 3 || vb.size() < 3) return false;
  // Quick reject on MBRs.
  if (!Intersects(RingMbr(va), RingMbr(vb))) return false;
  // Any edge crossing?
  for (std::size_t i = 0; i < va.size(); ++i) {
    const Point& a1 = va[i];
    const Point& a2 = va[(i + 1) % va.size()];
    for (std::size_t j = 0; j < vb.size(); ++j) {
      const Point& b1 = vb[j];
      const Point& b2 = vb[(j + 1) % vb.size()];
      if (SegmentsIntersect(a1, a2, b1, b2)) return true;
    }
  }
  // Full containment (no edge crossings): test one vertex each way.
  if (PointInPolygon(va[0], vb)) return true;
  if (PointInPolygon(vb[0], va)) return true;
  return false;
}

bool IsStrictlyConvexCcw(std::span<const Point> ring) {
  const std::size_t n = ring.size();
  if (n < 3) return false;
  // With every turn strictly left (each less than a half-turn), the edge
  // direction enters the half-turn [0, pi) once per full revolution.
  int revolutions = 0;
  for (std::size_t i = 0, j = n - 1, h = n - 2; i < n; h = j, j = i++) {
    const Point& a = ring[h];
    const Point& b = ring[j];
    const Point& c = ring[i];
    if (!(Cross(a, b, c) > 0)) return false;
    if (!PointsUp(a, b) && PointsUp(b, c)) ++revolutions;
  }
  return revolutions == 1;
}

bool ConvexRingsIntersect(std::span<const Point> a, std::span<const Point> b) {
  return !HasSeparatingEdge(a, b) && !HasSeparatingEdge(b, a);
}

Polygon MakeConvexPolygon(uint64_t id, const Box& mbr, int num_vertices) {
  SWIFT_CHECK_GE(num_vertices, 4);
  std::vector<Point> pts(static_cast<std::size_t>(num_vertices));
  MakeConvexPolygon(id, mbr, pts);
  return Polygon(std::move(pts));
}

void MakeConvexPolygon(uint64_t id, const Box& mbr, std::span<Point> out) {
  SWIFT_CHECK_GE(out.size(), 4u);
  // All vertices lie on the ellipse inscribed in the MBR. Distinct angles on
  // a convex curve, sorted, always produce a convex CCW ring. The four
  // axis-extreme angles (0, pi/2, pi, 3pi/2) are always included and emitted
  // with exact edge-midpoint coordinates, so the polygon's MBR equals `mbr`
  // (the filter works with tight MBRs).
  Rng rng(id * 0x9e3779b97f4a7c15ULL + 1);
  constexpr double kTau = 2.0 * std::numbers::pi;
  // Angle scratch lives on the stack for the usual vertex counts.
  std::array<double, 64> inline_angles;
  std::vector<double> heap_angles;
  if (out.size() > inline_angles.size()) heap_angles.resize(out.size());
  const std::span<double> angles =
      heap_angles.empty() ? std::span<double>(inline_angles).first(out.size())
                          : std::span<double>(heap_angles);
  angles[0] = 0.0;
  angles[1] = kTau / 4;
  angles[2] = kTau / 2;
  angles[3] = 3 * kTau / 4;
  for (std::size_t i = 0; i + 4 < angles.size(); ++i) {
    // Keep jittered angles strictly inside a quadrant so they never collide
    // with the pinned axis angles.
    const int quadrant = static_cast<int>(i % 4);
    const double frac = 0.1 + 0.8 * rng.NextDouble();
    angles[i + 4] = (quadrant + frac) * (kTau / 4);
  }
  std::sort(angles.begin(), angles.end());

  const double cx = (static_cast<double>(mbr.min_x) + mbr.max_x) / 2;
  const double cy = (static_cast<double>(mbr.min_y) + mbr.max_y) / 2;
  const double rx = (static_cast<double>(mbr.max_x) - mbr.min_x) / 2;
  const double ry = (static_cast<double>(mbr.max_y) - mbr.min_y) / 2;

  for (std::size_t k = 0; k < angles.size(); ++k) {
    const double a = angles[k];
    if (a == 0.0) {
      out[k] = Point{mbr.max_x, static_cast<Coord>(cy)};
    } else if (a == kTau / 4) {
      out[k] = Point{static_cast<Coord>(cx), mbr.max_y};
    } else if (a == kTau / 2) {
      out[k] = Point{mbr.min_x, static_cast<Coord>(cy)};
    } else if (a == 3 * kTau / 4) {
      out[k] = Point{static_cast<Coord>(cx), mbr.min_y};
    } else {
      out[k] = Point{static_cast<Coord>(cx + rx * std::cos(a)),
                     static_cast<Coord>(cy + ry * std::sin(a))};
    }
  }
}

MbrVerdict DecideRingsFromMbrs(const Box& a, const Box& b) {
  const Ellipse ea(a);
  const Ellipse eb(b);
  const double d = std::max({ea.mx, ea.my, eb.mx, eb.my});
  if (!std::isfinite(d)) return MbrVerdict::kUndecided;
  const double margin = Margin(d);

  // Interior: the two diamonds overlap by the margin on every edge normal.
  std::array<Vertex, 4> da;
  std::array<Vertex, 4> db;
  if (GuardedDiamond(a, ea, da) && GuardedDiamond(b, eb, db) &&
      ReachesIntoEveryEdge(da, db, margin) &&
      ReachesIntoEveryEdge(db, da, margin)) {
    return MbrVerdict::kHit;
  }
  return ExteriorsApart(ea, eb, margin) ? MbrVerdict::kMiss
                                        : MbrVerdict::kUndecided;
}

MbrVerdict DecidePointFromMbr(const Point& p, const Box& polygon) {
  const Ellipse ep(Box::FromPoint(p));
  const Ellipse e(polygon);
  const double d = std::max({ep.mx, ep.my, e.mx, e.my});
  if (!std::isfinite(d)) return MbrVerdict::kUndecided;
  const double margin = Margin(d);

  if (ExteriorsApart(ep, e, margin)) return MbrVerdict::kMiss;

  std::array<Vertex, 4> diamond;
  if (!GuardedDiamond(polygon, e, diamond)) return MbrVerdict::kUndecided;
  const Vertex v{p.x, p.y};
  for (std::size_t i = 0, j = 3; i < 4; j = i++) {
    if (!DeepInside(diamond[j], diamond[i], v, margin)) {
      return MbrVerdict::kUndecided;
    }
  }
  return MbrVerdict::kHit;
}

}  // namespace swiftspatial
