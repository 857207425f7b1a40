// Refinement phase (§2.1, §5.8): re-checks the filter's candidate pairs
// against actual geometries to remove MBR false positives. Geometries are
// materialised deterministically from (id, MBR) via MakeConvexPolygon, so
// the filter pipeline stays MBR-only -- exactly the paper's split where the
// FPGA filters on MBRs and the CPU refines.
//
// Each Refine call materialises every object the candidates reference on a
// polygon-kind side once (not once per candidate pair it appears in) into a
// flat polygon store: one contiguous vertex array, `polygon_vertices` points
// per object in id order. An id's slot is its rank among the referenced
// ids, found in O(1) from a bitmap with per-word prefix counts. The store is
// read-only while the parallel verifiers run.
//
// A polygon-polygon pair whose two rings are both strictly convex and
// counter-clockwise (IsStrictlyConvexCcw, checked once per ring when it is
// stored) is decided by the separating-edge test ConvexRingsIntersect.
// Every other pair (rings that rounding made degenerate, point kinds) takes
// the general PolygonsIntersect / PointInPolygon. Both give the same answer
// on convex rings. Verification writes a keep flag per candidate, so the
// output lists the surviving pairs in candidate order at every thread count.
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
};

/// Verifies `candidates` (pairs of ids into `r` and `s`) with exact
/// geometry tests and returns the surviving pairs, in candidate order.
JoinResult Refine(const Dataset& r, GeometryKind r_kind, const Dataset& s,
                  GeometryKind s_kind, const std::vector<ResultPair>& candidates,
                  const RefinementOptions& options,
                  RefinementStats* stats = nullptr);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_REFINE_REFINEMENT_H_
