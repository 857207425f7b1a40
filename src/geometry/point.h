// 2-D point type. SwiftSpatial stores coordinates as 32-bit floats, matching
// the accelerator's node layout (float32 MBR arrays + int32 ids).
#ifndef SWIFTSPATIAL_GEOMETRY_POINT_H_
#define SWIFTSPATIAL_GEOMETRY_POINT_H_

#include <cmath>

namespace swiftspatial {

/// Coordinate type used throughout the library (see file comment).
using Coord = float;

/// A point in the plane.
struct Point {
  Coord x = 0;
  Coord y = 0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// Euclidean distance between two points.
inline double Distance(const Point& a, const Point& b) {
  const double dx = static_cast<double>(a.x) - b.x;
  const double dy = static_cast<double>(a.y) - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Signed twice-area of triangle (a, b, c): > 0 if counter-clockwise.
inline double Cross(const Point& a, const Point& b, const Point& c) {
  return (static_cast<double>(b.x) - a.x) * (static_cast<double>(c.y) - a.y) -
         (static_cast<double>(b.y) - a.y) * (static_cast<double>(c.x) - a.x);
}

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_GEOMETRY_POINT_H_
