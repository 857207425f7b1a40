// Accelerator offload through the unified engine API: the simulated
// SwiftSpatial device is just another engine name.
//
//   1. join on the CPU ("partitioned") and on the device ("accel-pbsm")
//      through the same RunJoin call, compare results and timings,
//   2. read the device performance model (kernel cycles, PCIe, launch)
//      through the typed accelerator handle,
//   3. stream the device join with exec::RunJoinAsync: chunks arrive while
//      the simulated kernel is still running (time-to-first-chunk), which
//      is how a host would overlap refinement with device filtering.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/accel_offload
#include <cstdint>
#include <cstdio>

#include "datagen/generator.h"
#include "exec/streaming.h"
#include "common/stopwatch.h"
#include "join/accel_engine.h"

using namespace swiftspatial;

int main() {
  UniformConfig config;
  config.count = 20000;
  config.map.map_size = 3000.0;
  config.max_edge = 8.0;
  config.seed = 11;
  const Dataset r = GenerateUniform(config);
  config.seed = 12;
  const Dataset s = GenerateUniform(config);
  std::printf("datasets: %zu x %zu rectangles\n", r.size(), s.size());

  // 1. Same entry point, CPU and device: only the engine name changes.
  EngineConfig ecfg;
  ecfg.num_threads = 4;
  ecfg.accel_join_units = 16;
  auto cpu = RunJoin(kPartitionedEngine, r, s, ecfg);
  if (!cpu.ok()) {
    std::printf("ERROR: %s\n", cpu.status().ToString().c_str());
    return 1;
  }
  auto dev = RunJoin(kAccelPbsmEngine, r, s, ecfg);
  if (!dev.ok()) {
    std::printf("ERROR: %s\n", dev.status().ToString().c_str());
    return 1;
  }
  if (!JoinResult::SameMultiset(cpu->result, dev->result)) {
    std::printf("ERROR: device result differs from CPU result!\n");
    return 1;
  }
  std::printf(
      "CPU partitioned:   %zu results in %.2f ms host wall\n"
      "accel-pbsm:        %zu results in %.2f ms host wall (simulating)\n",
      cpu->result.size(), cpu->timing.total_seconds() * 1e3,
      dev->result.size(), dev->timing.total_seconds() * 1e3);

  // 2. The device performance model behind the engine: what an actual U250
  //    would take for this join.
  //    Prepare builds the device image once and prices its transfer.
  auto accel = MakeAccelEngine(kAccelPbsmEngine, ecfg);
  if (!accel.ok()) {
    std::printf("ERROR: %s\n", accel.status().ToString().c_str());
    return 1;
  }
  auto plan = (*accel)->Prepare(BorrowDataset(r), BorrowDataset(s));
  if (!plan.ok()) {
    std::printf("ERROR: accel prepare failed: %s\n",
                plan.status().ToString().c_str());
    return 1;
  }
  JoinResult out;
  if (!(*accel)->ExecutePrepared(**plan, &out, nullptr).ok()) {
    std::printf("ERROR: accel execute failed\n");
    return 1;
  }
  const uint64_t planned_bytes =
      static_cast<const AccelPreparedPlan&>(**plan).bytes_to_device;
  const hw::AcceleratorReport& report = (*accel)->last_report();
  std::printf(
      "device model:      %.3f ms kernel (%llu cycles @ 200 MHz) + %.3f ms "
      "PCIe (%llu B in / %llu B out) + %.3f ms launch = %.3f ms\n",
      report.kernel_seconds * 1e3,
      static_cast<unsigned long long>(report.kernel_cycles),
      report.host_transfer_seconds * 1e3,
      static_cast<unsigned long long>(report.bytes_to_device),
      static_cast<unsigned long long>(report.bytes_from_device),
      report.launch_seconds * 1e3, report.total_seconds * 1e3);
  std::printf("  unit utilization %.1f%%; planned transfer %llu B\n",
              report.AvgUnitUtilization() * 100,
              static_cast<unsigned long long>(planned_bytes));
  if (report.bytes_to_device != planned_bytes) {
    std::printf("ERROR: the device shipped %llu B, not the planned %llu B\n",
                static_cast<unsigned long long>(report.bytes_to_device),
                static_cast<unsigned long long>(planned_bytes));
    return 1;
  }

  // 3. Stream the device join: the write unit's burst flushes surface as
  //    chunks while the simulated kernel is still running.
  Stopwatch sw;
  exec::StreamOptions stream;
  stream.chunk_pairs = 512;  // small chunks so the overlap is visible here
  auto handle = exec::RunJoinAsync(kAccelPbsmEngine, r, s, ecfg, stream);
  if (!handle.ok()) {
    std::printf("ERROR: %s\n", handle.status().ToString().c_str());
    return 1;
  }
  exec::ResultChunk chunk;
  double first_chunk_ms = -1;
  std::size_t chunks = 0, streamed = 0;
  while (handle->Next(&chunk)) {
    if (first_chunk_ms < 0) first_chunk_ms = sw.ElapsedSeconds() * 1e3;
    ++chunks;
    streamed += chunk.pairs.size();
  }
  const double total_ms = sw.ElapsedSeconds() * 1e3;
  if (!handle->Wait().ok() || streamed != dev->result.size()) {
    std::printf("ERROR: streamed result diverged\n");
    return 1;
  }
  std::printf(
      "streaming:         first chunk after %.2f ms, %zu chunks / %zu pairs "
      "in %.2f ms total (first chunk %.1fx before stream end)\n",
      first_chunk_ms, chunks, streamed, total_ms, total_ms / first_chunk_ms);
  return 0;
}
