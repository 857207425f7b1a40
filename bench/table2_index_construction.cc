// Table 2: one-time index construction / partitioning cost versus the join
// itself (§5.9): parallel STR R-tree bulk load, hierarchical partitioning
// (SwiftSpatial PBSM), and flat one-level partitioning (CPU PBSM), across
// the paper's four ten-million-object workloads (scaled down by default).
#include <cstdio>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "grid/hierarchical_partition.h"
#include "grid/uniform_grid.h"
#include "hw/accelerator.h"
#include "join/engine.h"
#include "join/partitioned_driver.h"
#include "rtree/bulk_load.h"

namespace swiftspatial::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::Parse(argc, argv, /*default_scale=*/300000);
  std::printf(
      "Table 2 reproduction: index construction vs join cost "
      "(threads=%zu; paper uses 10M objects -- pass --full)\n",
      env.cpu_threads);
  TablePrinter table(
      "Table 2 -- construction/partitioning time vs join time",
      {"workload", "scale", "rtree_str_ms", "hier_partition_ms",
       "partition_ms", "cpu_join_ms", "fpga_join_ms"});
  JsonReporter json("table2_index_construction", env);

  const uint64_t scale = env.scales.back();
  for (const WorkloadShape shape :
       {WorkloadShape::kUniform, WorkloadShape::kOsm}) {
    for (const JoinKind kind :
         {JoinKind::kPointPolygon, JoinKind::kPolygonPolygon}) {
      const JoinInputs in = MakeInputs(shape, kind, scale);

      // R-tree construction: parallel STR on both datasets (node size 16).
      BulkLoadOptions bl;
      bl.max_entries = 16;
      bl.num_threads = env.cpu_threads;
      Stopwatch sw;
      const PackedRTree rt = StrBulkLoad(in.r, bl);
      const PackedRTree st = StrBulkLoad(in.s, bl);
      const double rtree_sec = sw.ElapsedSeconds();

      // Hierarchical partition (device PBSM path, tile cap 16).
      HierarchicalPartitionOptions hp;
      hp.tile_cap = 16;
      hp.initial_grid = 64;
      sw.Reset();
      const auto hier = PartitionHierarchical(in.r, in.s, hp);
      const double hier_sec = sw.ElapsedSeconds();

      // Flat 1-D partition (CPU PBSM path): both halves of pbsm's default
      // plan, 1024 stripes along x.
      sw.Reset();
      Box extent = in.r.Extent();
      extent.Expand(in.s.Extent());
      const UniformGrid stripes(extent, 1024, 1);
      const auto r_side = BuildGridSide(in.r, stripes, env.cpu_threads);
      const auto s_side = BuildGridSide(in.s, stripes, env.cpu_threads);
      const double part_sec = sw.ElapsedSeconds();

      // Joins for scale reference.
      EngineConfig ecfg;
      ecfg.num_threads = env.cpu_threads;
      const EngineTiming cpu =
          OrDie(TimeEngine(kParallelSyncTraversalEngine, ecfg, in.r, in.s,
                           env.reps),
                "CPU sync-traversal baseline");
      const double cpu_join = cpu.median_execute_seconds;
      hw::AcceleratorConfig cfg;
      cfg.num_join_units = env.units;
      const auto report = hw::Accelerator(cfg).RunSyncTraversal(rt, st);

      const std::string workload =
          std::string(ShapeName(shape)) + " " + JoinName(kind);
      table.AddRow({workload, std::to_string(scale), Ms(rtree_sec),
                    Ms(hier_sec), Ms(part_sec), Ms(cpu_join),
                    Ms(report.total_seconds)});
      json.AddRow(std::string(ShapeName(shape)) + "/" + JoinName(kind) +
                      "/" + std::to_string(scale),
                  {{"rtree_str_seconds", rtree_sec},
                   {"hier_partition_seconds", hier_sec},
                   {"flat_partition_seconds", part_sec},
                   {"cpu_join_seconds", cpu_join},
                   {"fpga_join_seconds", report.total_seconds}});
      (void)hier;
    }
  }
  table.Print();
  std::printf(
      "Expected shape: R-tree construction > hierarchical partition > flat "
      "partition, and construction costs exceed a single join -- the case "
      "for iterative joins / PBSM for one-off joins (§5.9).\n");
  if (!json.WriteIfRequested()) return 1;
  return 0;
}

}  // namespace
}  // namespace swiftspatial::bench

int main(int argc, char** argv) { return swiftspatial::bench::Main(argc, argv); }
