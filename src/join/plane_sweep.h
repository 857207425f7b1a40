// Plane-sweep tile join: the forward-scan sweep of Brinkhoff et al., in the
// form Tsitsigkos & Mamoulis found fastest in memory. Both inputs are
// contiguous runs of entries in sweep order; the sweep takes whichever
// side's next object starts first and scans the other side forward from its
// cursor while the scanned objects start no later than the taken one ends.
// Every scanned pair overlaps on x, so only y is tested. One sweep loop
// serves two entry types:
//   - exact (box, id) entries, gathered per call from id lists
//     (PlaneSweepTileJoin: the plane_sweep engine, Fig. 14, tests);
//   - the 12-byte CellEntry a grid half stores per object and tile: the box
//     rounded outward onto a 16-bit lattice over the tile
//     (PlaneSweepCellJoin: every grid cell of the partitioned, pbsm and
//     dist-pbsm engines). A pair whose rounded boxes overlap is re-checked
//     on its two exact boxes, read by id, so answers stay exact.
//
// Order contract: the sweep order is (min_x, id) ascending (SweepBefore).
// Callers that join the same id lists repeatedly put them in that order
// once with SortForSweep, and the join then skips its own sort. Id lists in
// any other order are still accepted: the join detects that and sorts its
// gathered copy per call. Cell entries are kept in that exact order;
// rounding is monotone, so their rounded min_x is non-decreasing too.
#ifndef SWIFTSPATIAL_JOIN_PLANE_SWEEP_H_
#define SWIFTSPATIAL_JOIN_PLANE_SWEEP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
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

/// One object of one grid tile, as a grid half stores it: the MBR on a
/// 65535-step lattice spanning the tile box, rounded outward (floor for the
/// mins, ceil for the maxes, clamped to the lattice), plus the object's id.
/// Lattice coordinate of x: (x - tile.min_x) * (65535 / tile width), in
/// float; a zero-width axis has scale 0. Every step is monotone, so for any
/// two boxes quantised on the same tile, exact overlap implies rounded
/// overlap: a rounded min is at most, and a rounded max at least, the
/// lattice image of its coordinate (up to float rounding of that image).
struct CellEntry {
  uint16_t min_x;
  uint16_t min_y;
  uint16_t max_x;
  uint16_t max_y;
  ObjectId id;

  friend bool operator==(const CellEntry&, const CellEntry&) = default;
};
static_assert(sizeof(CellEntry) == 12, "a cell entry is 12 bytes");

/// The lattice of one tile box that its CellEntry values are rounded onto.
class CellLattice {
 public:
  explicit CellLattice(const Box& tile);

  /// `b` rounded outward onto the lattice, with `id`. Each coordinate maps
  /// to (c - origin) * scale in float, is clamped to [0, 65535] and
  /// truncated (floor, as it is non-negative); the maxes add one where
  /// truncation dropped a fraction (ceil). Each step is a correctly rounded
  /// float operation or a clamp, hence monotone; a NaN (an infinite offset
  /// on a zero-scale axis) clamps to 0.
  CellEntry Round(const Box& b, ObjectId id) const {
    const std::array<float, 4> c = {b.min_x, b.min_y, b.max_x, b.max_y};
    std::array<uint16_t, 4> q;
    for (std::size_t k = 0; k < 4; ++k) {
      float v = (c[k] - origin_[k]) * scale_[k];
      v = v > 0.0f ? v : 0.0f;
      v = v < kSteps ? v : kSteps;
      const auto down = static_cast<int32_t>(v);
      const bool up = k >= 2 && static_cast<float>(down) < v;
      q[k] = static_cast<uint16_t>(down + static_cast<int32_t>(up));
    }
    return {q[0], q[1], q[2], q[3], id};
  }

 private:
  static constexpr float kSteps = 65535.0f;

  std::array<float, 4> origin_;
  std::array<float, 4> scale_;
};

/// Puts one tile's entries, rounded on that tile and in ascending id order,
/// into sweep order: a stable radix sort on the rounded min_x, then exact
/// (min_x, id) order within each run of equal rounded min_x. Rounding is
/// monotone, so no other entries can be out of exact order, and the boxes
/// of those runs are the only ones read.
void SortCellForSweep(const Dataset& d, std::span<CellEntry> cell);

/// Joins two cells of one tile, each quantised on that tile's box and in
/// sweep order, by the same forward-scan sweep over the rounded boxes. A
/// pair whose rounded boxes overlap on y has its two exact boxes read by id
/// and is emitted iff they intersect and the pair's reference point lies in
/// `dedup_tile`. Rounded overlap is implied by exact overlap, so no pair is
/// missed. `stats->predicate_evaluations` counts the y-tests on the rounded
/// boxes, `stats->exact_rechecks` the exact re-checks. Pair order may differ
/// from PlaneSweepTileJoin's over the same objects.
void PlaneSweepCellJoin(const Dataset& r, const Dataset& s,
                        std::span<const CellEntry> r_cell,
                        std::span<const CellEntry> s_cell,
                        const Box& dedup_tile, JoinResult* out,
                        JoinStats* stats = nullptr);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_PLANE_SWEEP_H_
