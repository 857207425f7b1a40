// Figure 15: share of end-to-end CPU join time spent in the refinement
// phase, on OSM-like data. The paper's finding: filtering usually
// dominates, but the split tracks output cardinality -- polygon-polygon
// joins (many candidates) refine ~23% of the time, point-in-polygon joins
// (few candidates) only ~1.4%.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "join/engine.h"
#include "refine/refinement.h"
#include "rtree/bulk_load.h"

namespace swiftspatial::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  std::printf("Figure 15 reproduction: filtering vs refinement on the CPU\n");
  TablePrinter table(
      "Fig. 15 -- CPU time split between filtering and refinement",
      {"join", "scale", "candidates", "verified", "filter_ms", "refine_ms",
       "refine_share"});
  JsonReporter json("fig15_filter_refine", env);

  for (const uint64_t scale : env.scales) {
    for (const JoinKind kind :
         {JoinKind::kPointPolygon, JoinKind::kPolygonPolygon}) {
      const JoinInputs in = MakeInputs(WorkloadShape::kOsm, kind, scale);
      BulkLoadOptions bl;
      bl.max_entries = 16;
      bl.num_threads = env.cpu_threads;
      const PackedRTree rt = StrBulkLoad(in.r, bl);
      const PackedRTree st = StrBulkLoad(in.s, bl);

      EngineConfig ecfg;
      ecfg.num_threads = env.cpu_threads;
      JoinResult candidates;
      const EngineTiming filter =
          OrDie(TimeEngine(kParallelSyncTraversalEngine, ecfg, in.r, in.s,
                           env.reps, &candidates),
                "CPU filter stage");
      const double filter_sec = filter.median_execute_seconds;

      RefinementOptions ropt;
      ropt.num_threads = env.cpu_threads;
      const GeometryKind r_kind = kind == JoinKind::kPointPolygon
                                      ? GeometryKind::kPoint
                                      : GeometryKind::kPolygon;
      RefinementStats rstats;
      const double refine_sec = MedianSeconds(
          [&] {
            Refine(in.r, r_kind, in.s, GeometryKind::kPolygon,
                   candidates.pairs(), ropt, &rstats);
          },
          env.reps);

      const double share = refine_sec / (filter_sec + refine_sec) * 100.0;
      table.AddRow({JoinName(kind), std::to_string(scale),
                    std::to_string(candidates.size()),
                    std::to_string(rstats.verified), Ms(filter_sec),
                    Ms(refine_sec), TablePrinter::Fmt(share, 1) + "%"});
      json.AddRow(std::string(JoinName(kind)) + "/" + std::to_string(scale),
                  {{"filter_seconds", filter_sec},
                   {"refine_seconds", refine_sec},
                   {"candidates", static_cast<double>(candidates.size())},
                   {"verified", static_cast<double>(rstats.verified)},
                   {"decided_hits", static_cast<double>(rstats.decided_hits)},
                   {"decided_misses",
                    static_cast<double>(rstats.decided_misses)},
                   {"rings_materialised",
                    static_cast<double>(rstats.rings_materialised)}});
    }
  }
  table.Print();
  std::printf(
      "Expected shape: refinement share tracks candidate cardinality -- "
      "high for polygon-polygon, low for point-in-polygon (paper: ~23%% vs "
      "~1.4%% at 10M).\n");
  if (!json.WriteIfRequested()) return 1;
  return 0;
}

}  // namespace
}  // namespace swiftspatial::bench

int main(int argc, char** argv) { return swiftspatial::bench::Main(argc, argv); }
