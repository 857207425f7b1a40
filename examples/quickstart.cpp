// Quickstart: the smallest end-to-end SwiftSpatial program.
//
//   1. generate two rectangle datasets,
//   2. join them on the CPU through the unified JoinEngine API,
//   3. join them again on the simulated accelerator,
//   4. verify both agree and print the performance report.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "datagen/generator.h"
#include "hw/accelerator.h"
#include "join/engine.h"
#include "rtree/bulk_load.h"

using namespace swiftspatial;

int main() {
  // 1. Two synthetic datasets: 50K unit squares each on a 10K x 10K map.
  UniformConfig config;
  config.count = 50000;
  config.seed = 1;
  const Dataset r = GenerateUniform(config);
  config.seed = 2;
  const Dataset s = GenerateUniform(config);
  std::printf("datasets: %zu x %zu rectangles\n", r.size(), s.size());

  // 2. CPU reference through the engine registry: synchronous R-tree
  //    traversal (Alg. 1-2). Prepare bulk-loads the trees; execution joins.
  //    Any name from EngineRegistry::Global().Names() works here.
  EngineConfig ecfg;
  ecfg.node_capacity = 16;  // the paper's optimum
  auto cpu = RunJoin(kSyncTraversalEngine, r, s, ecfg);
  if (!cpu.ok()) {
    std::printf("ERROR: %s\n", cpu.status().ToString().c_str());
    return 1;
  }
  std::printf("CPU sync traversal: %zu results in %.2f ms "
              "(plan %.2f ms + execute %.2f ms)\n",
              cpu->result.size(), cpu->timing.total_seconds() * 1e3,
              cpu->timing.plan_seconds * 1e3,
              cpu->timing.execute_seconds * 1e3);

  // 3. Simulated SwiftSpatial accelerator: 16 join units at 200 MHz, on the
  //    same packed R-tree layout.
  BulkLoadOptions bl;
  bl.max_entries = 16;
  const PackedRTree rt = StrBulkLoad(r, bl);
  const PackedRTree st = StrBulkLoad(s, bl);
  std::printf("R-trees: height %d / %d, %zu / %zu nodes\n", rt.height(),
              st.height(), rt.num_nodes(), st.num_nodes());

  hw::AcceleratorConfig acfg;
  acfg.num_join_units = 16;
  hw::Accelerator accelerator(acfg);
  JoinResult device;
  const hw::AcceleratorReport report =
      accelerator.RunSyncTraversal(rt, st, &device);

  std::printf(
      "SwiftSpatial (simulated): %llu results, %llu kernel cycles = %.3f ms "
      "kernel + %.3f ms PCIe -> %.3f ms total\n",
      static_cast<unsigned long long>(report.num_results),
      static_cast<unsigned long long>(report.kernel_cycles),
      report.kernel_seconds * 1e3, report.host_transfer_seconds * 1e3,
      report.total_seconds * 1e3);
  std::printf("  join-unit utilization: %.1f%%, DRAM utilization: %.1f%%\n",
              report.AvgUnitUtilization() * 100, report.dram_utilization * 100);

  // 4. The simulated device computes the real join: verify it.
  if (!JoinResult::SameMultiset(cpu->result, device)) {
    std::printf("ERROR: device result differs from CPU result!\n");
    return 1;
  }
  std::printf("verified: device result matches the CPU join. Speedup vs this "
              "CPU baseline: %.1fx\n",
              cpu->timing.execute_seconds * 1e3 / (report.total_seconds * 1e3));
  return 0;
}
