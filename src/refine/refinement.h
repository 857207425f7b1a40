// Refinement phase (§2.1, §5.8): re-checks the filter's candidate pairs
// against actual geometries to remove MBR false positives. Geometries are
// materialised deterministically from (id, MBR) via MakeConvexPolygon, so
// the filter pipeline stays MBR-only -- exactly the paper's split where the
// FPGA filters on MBRs and the CPU refines.
//
// Refine decides first and materialises only what it could not decide.
// Each candidate is classified from its two MBRs alone
// (DecideRingsFromMbrs / DecidePointFromMbr, geometry/polygon.h): the
// ring's edge-midpoint diamond is inside every ring MakeConvexPolygon
// builds, and the ring lies inside slabs around its inscribed ellipse (the
// diagonal ones cut the MBR to an octagon), so most pairs are a certain hit
// or a certain miss, equal to what the exact test would return. Point-point
// pairs are decided exactly by the MBR test. Nothing is stored per object.
//
// Only an undecided pair touches geometry: its rings are materialised into
// the worker's scratch buffer, right after its boxes were read, and tested.
// A polygon-polygon pair whose two rings are both strictly convex and
// counter-clockwise (IsStrictlyConvexCcw) is decided by the separating-edge
// test ConvexRingsIntersect. Every other pair (rings that rounding made
// degenerate, point kinds) takes the general PolygonsIntersect /
// PointInPolygon. Both give the same answer on convex rings.
//
// Classification and verification run in one ParallelFor over contiguous
// candidate ranges and write one outcome per candidate, so the output lists
// the surviving pairs in candidate order at every thread count.
#ifndef SWIFTSPATIAL_REFINE_REFINEMENT_H_
#define SWIFTSPATIAL_REFINE_REFINEMENT_H_

#include <cstddef>

#include "datagen/dataset.h"
#include "join/result.h"

namespace swiftspatial {

/// What each dataset's MBRs stand for during refinement.
enum class GeometryKind {
  kPoint,    ///< degenerate boxes; the object is the point itself
  kPolygon,  ///< the object is a convex polygon inscribed in the MBR
};

struct RefinementOptions {
  std::size_t num_threads = 1;
  /// Vertices per materialised polygon, at least 4 (complexity knob; more
  /// vertices = costlier refinement, like real building footprints).
  int polygon_vertices = 8;
};

/// Statistics from a refinement run.
struct RefinementStats {
  std::size_t candidates = 0;
  std::size_t verified = 0;
  std::size_t false_positives = 0;
  /// Candidates decided from their MBRs alone, as hits and as misses; the
  /// rest were verified against their rings.
  std::size_t decided_hits = 0;
  std::size_t decided_misses = 0;
  /// Rings Refine built with MakeConvexPolygon, counted at each call: one
  /// per polygon-kind side of each undecided candidate, none for a decided
  /// one.
  std::size_t rings_materialised = 0;
};

/// Verifies `candidates` (pairs of ids into `r` and `s`) with exact
/// geometry tests and returns the surviving pairs, in candidate order.
JoinResult Refine(const Dataset& r, GeometryKind r_kind, const Dataset& s,
                  GeometryKind s_kind, const std::vector<ResultPair>& candidates,
                  const RefinementOptions& options,
                  RefinementStats* stats = nullptr);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_REFINE_REFINEMENT_H_
