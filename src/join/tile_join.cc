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
                 std::span<const CellEntry> r_cell,
                 std::span<const CellEntry> s_cell, const Box& dedup_tile,
                 JoinResult* out, JoinStats* stats) {
  if (tile_join == TileJoin::kPlaneSweep) {
    PlaneSweepCellJoin(r, s, r_cell, s_cell, dedup_tile, out, stats);
    return;
  }
  // Per-worker scratch for the id-list joins, reused across cells.
  thread_local std::vector<ObjectId> r_ids;
  thread_local std::vector<ObjectId> s_ids;
  const auto ids = [](std::span<const CellEntry> cell,
                      std::vector<ObjectId>* out_ids) {
    out_ids->clear();
    for (const CellEntry& e : cell) out_ids->push_back(e.id);
  };
  ids(r_cell, &r_ids);
  ids(s_cell, &s_ids);
  if (tile_join == TileJoin::kNestedLoop) {
    NestedLoopTileJoin(r, s, r_ids, s_ids, &dedup_tile, out, stats);
  } else {
    SimdTileJoin(r, s, r_ids, s_ids, &dedup_tile, out, stats);
  }
}

}  // namespace swiftspatial
