#include "join/pbsm.h"

#include <vector>

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

StripePartition PbsmPartition(const Dataset& r, const Dataset& s,
                              const PbsmOptions& options) {
  StripePartition partition =
      PartitionStripes(r, s, options.num_partitions, options.axis);
  // Sweep order once per partition, so PbsmJoin never sorts a stripe.
  if (options.tile_join == TileJoin::kPlaneSweep) {
    ParallelFor(partition.stripes.size(), options.num_threads,
                Schedule::kDynamic, [&partition, &r, &s](std::size_t i) {
                  SortForSweep(r, &partition.r_parts[i]);
                  SortForSweep(s, &partition.s_parts[i]);
                });
  }
  return partition;
}

JoinResult PbsmJoin(const Dataset& r, const Dataset& s,
                    const StripePartition& partition,
                    const PbsmOptions& options, JoinStats* stats) {
  const std::size_t n = partition.stripes.size();
  const std::size_t threads = std::max<std::size_t>(1, options.num_threads);

  struct WorkerState {
    JoinResult result;
    JoinStats stats;
  };
  std::vector<WorkerState> workers(threads);

  ParallelForWorker(
      n, threads, options.schedule,
      [&](std::size_t i, std::size_t w) {
        const auto& r_ids = partition.r_parts[i];
        const auto& s_ids = partition.s_parts[i];
        if (r_ids.empty() || s_ids.empty()) return;
        const Box& tile = partition.stripes[i];
        WorkerState& state = workers[w];
        RunTileJoin(options.tile_join, r, s, r_ids, s_ids, &tile,
                    &state.result, &state.stats);
      },
      /*chunk=*/1);

  JoinResult out;
  for (auto& w : workers) {
    out.Merge(std::move(w.result));
    if (stats != nullptr) *stats += w.stats;
  }
  return out;
}

JoinResult PbsmSpatialJoin(const Dataset& r, const Dataset& s,
                           const PbsmOptions& options, JoinStats* stats) {
  const StripePartition partition = PbsmPartition(r, s, options);
  return PbsmJoin(r, s, partition, options, stats);
}

}  // namespace swiftspatial
