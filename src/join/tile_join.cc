#include "join/tile_join.h"

#include "join/nested_loop.h"
#include "join/plane_sweep.h"
#include "join/simd_filter.h"

namespace swiftspatial {

const char* TileJoinToString(TileJoin t) {
  switch (t) {
    case TileJoin::kPlaneSweep:
      return "plane-sweep";
    case TileJoin::kNestedLoop:
      return "nested-loop";
    case TileJoin::kSimd:
      return "simd";
  }
  return "unknown";
}

void RunTileJoin(TileJoin tile_join, const Dataset& r, const Dataset& s,
                 const std::vector<ObjectId>& r_ids,
                 const std::vector<ObjectId>& s_ids, const Box* dedup_tile,
                 JoinResult* out, JoinStats* stats) {
  switch (tile_join) {
    case TileJoin::kPlaneSweep:
      PlaneSweepTileJoin(r, s, r_ids, s_ids, dedup_tile, out, stats);
      break;
    case TileJoin::kNestedLoop:
      NestedLoopTileJoin(r, s, r_ids, s_ids, dedup_tile, out, stats);
      break;
    case TileJoin::kSimd:
      SimdTileJoin(r, s, r_ids, s_ids, dedup_tile, out, stats);
      break;
  }
}

}  // namespace swiftspatial
