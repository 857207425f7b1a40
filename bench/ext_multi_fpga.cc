// Extension study (§6): joins larger than device memory. The same workload
// runs under shrinking device-memory budgets, comparing the paper's first
// two proposals -- partition across multiple FPGAs (concurrent sub-joins)
// versus one FPGA sweeping the partitions iteratively -- plus the
// un-partitioned reference device with enough memory.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "datagen/generator.h"
#include "hw/multi_device.h"
#include "join/engine.h"

namespace swiftspatial::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  const uint64_t scale = env.scales.front();
  std::printf("§6 extension: larger-than-device-memory joins (scale=%lu)\n",
              static_cast<unsigned long>(scale));

  // Uniform polygons with edges of 1 to 50 map units (of 10,000): dense
  // enough that partition boundaries cut through result pairs (several
  // hundred at --scale=5000), so the pinned result count checks the
  // cross-partition dedup of every partitioned run.
  UniformConfig config;
  config.count = scale;
  config.max_edge = 50;
  config.seed = 202;
  const Dataset r = GenerateUniform(config);
  config.seed = 101;
  const Dataset s = GenerateUniform(config);

  TablePrinter table(
      "§6 -- out-of-memory strategies under shrinking device memory",
      {"device_mem", "strategy", "grid", "partitions", "devices", "total_ms",
       "results"});

  struct Budget {
    const char* label;
    uint64_t bytes;
  };
  const Budget budgets[] = {
      {"64 GB (fits)", 64ULL << 30},
      {"8 MB", 8ULL << 20},
      {"2 MB", 2ULL << 20},
      {"1 MB", 1ULL << 20},
      {"256 KB", 256ULL << 10},
      {"128 KB", 128ULL << 10},
  };
  JsonReporter json("ext_multi_fpga", env);
  // Every budget and strategy must return the CPU join's pair count.
  auto reference = RunJoin(kPlaneSweepEngine, r, s);
  if (!reference.ok()) {
    std::printf("FAIL: CPU reference: %s\n",
                reference.status().ToString().c_str());
    return 1;
  }
  const uint64_t expected_results = reference->result.size();
  bool diverged = false;
  for (const Budget& budget : budgets) {
    for (const hw::OutOfMemoryStrategy strategy :
         {hw::OutOfMemoryStrategy::kMultipleDevices,
          hw::OutOfMemoryStrategy::kSingleDeviceIterative}) {
      hw::MultiDeviceConfig cfg;
      cfg.device.num_join_units = env.units;
      cfg.device_memory_bytes = budget.bytes;
      cfg.strategy = strategy;
      cfg.max_grid = 128;
      auto report = hw::PartitionedJoin(r, s, cfg);
      if (!report.ok()) {
        table.AddRow({budget.label, OutOfMemoryStrategyToString(strategy),
                      "-", "-", "-", report.status().ToString(), "-"});
        continue;
      }
      table.AddRow({budget.label, OutOfMemoryStrategyToString(strategy),
                    std::to_string(report->grid_resolution),
                    std::to_string(report->partitions),
                    std::to_string(report->devices),
                    Ms(report->total_seconds),
                    std::to_string(report->num_results)});
      diverged |= report->num_results != expected_results;
      const std::string size =
          budget.bytes >= (1ULL << 20)
              ? std::to_string(budget.bytes >> 20) + "MB"
              : std::to_string(budget.bytes >> 10) + "KB";
      json.AddRow(size + "/" + OutOfMemoryStrategyToString(strategy),
                  {{"total_seconds", report->total_seconds},
                   {"grid", static_cast<double>(report->grid_resolution)},
                   {"partitions", static_cast<double>(report->partitions)},
                   {"devices", static_cast<double>(report->devices)},
                   {"results", static_cast<double>(report->num_results)}});
    }
  }
  table.Print();
  std::printf(
      "Expected shape: result counts identical across all budgets and "
      "strategies; multi-device latency stays near the in-memory case "
      "(parallel sub-joins) while the iterative single device degrades "
      "roughly with the partition count (§6).\n");
  std::printf("CPU reference (%s): %lu pairs\n", kPlaneSweepEngine,
              static_cast<unsigned long>(expected_results));
  if (diverged) {
    std::printf("FAIL: a device run's result count differs from the CPU "
                "reference\n");
    return 1;
  }
  if (!json.WriteIfRequested()) return 1;
  return 0;
}

}  // namespace
}  // namespace swiftspatial::bench

int main(int argc, char** argv) { return swiftspatial::bench::Main(argc, argv); }
