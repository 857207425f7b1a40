// Plane-sweep tile join: the forward-scan sweep of Brinkhoff et al., in the
// form Tsitsigkos & Mamoulis found fastest in memory. Both inputs are
// gathered into contiguous (box, id) runs in sweep order; the sweep takes
// whichever side's next object starts first and scans the other side
// forward from its cursor while the scanned objects start no later than the
// taken one ends. Every scanned pair overlaps on x, so only y is tested.
// Used by the grid driver (and so the CPU PBSM baseline, whose stripes are
// grid cells) and the nested-loop-vs-plane-sweep study (Fig. 14).
//
// Order contract: the sweep order is (min_x, id) ascending (SweepBefore).
// Callers that join the same id lists repeatedly -- cached grid cells,
// PBSM's stripes among them -- put them in that order once with
// SortForSweep, and the join then skips its own sort. Id lists in any other
// order are still accepted: the join detects that and sorts its gathered
// copy per call.
#ifndef SWIFTSPATIAL_JOIN_PLANE_SWEEP_H_
#define SWIFTSPATIAL_JOIN_PLANE_SWEEP_H_

#include <vector>

#include "datagen/dataset.h"
#include "geometry/box.h"
#include "join/result.h"

namespace swiftspatial {

/// The sweep order: ascending min_x, ties broken by ascending id.
inline bool SweepBefore(Coord a_min_x, ObjectId a, Coord b_min_x,
                        ObjectId b) {
  return a_min_x < b_min_x || (a_min_x == b_min_x && a < b);
}

/// Reorders `ids` in place into sweep order over the boxes of `d`. Sorts
/// one 64-bit key per id: the order-preserving bits of min_x (sign bit
/// flipped for non-negative values, all bits for negative ones) in the high
/// 32 bits, the id in the low 32. -0.0f is keyed as +0.0f, since the two
/// compare equal under SweepBefore and must tie and break by id. Lists
/// already in sweep order are left untouched.
void SortForSweep(const Dataset& d, std::vector<ObjectId>* ids);

/// Joins the objects listed in `r_ids` x `s_ids` by forward-scan plane
/// sweep along x. `dedup_tile`, when non-null, applies the PBSM
/// reference-point rule. `stats->predicate_evaluations` counts the y-overlap
/// checks, i.e. the cross pairs whose x-extents overlap (the sweep's
/// analogue of the NL predicate count); it does not depend on the order of
/// the given id lists.
void PlaneSweepTileJoin(const Dataset& r, const Dataset& s,
                        const std::vector<ObjectId>& r_ids,
                        const std::vector<ObjectId>& s_ids,
                        const Box* dedup_tile, JoinResult* out,
                        JoinStats* stats = nullptr);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_PLANE_SWEEP_H_
