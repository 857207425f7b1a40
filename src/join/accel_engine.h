// The simulated SwiftSpatial device as first-class join engines: the
// host/device split of the paper (FPGA filters MBRs, CPU orchestrates)
// expressed through the same Prepare -> ExecutePrepared interface every CPU
// algorithm uses, so benchmarks, the equivalence oracle, and the async
// streaming layer all reach the accelerator by name:
//
//   auto run = RunJoin("accel-pbsm", r, s, config);          // sync
//   auto handle = exec::RunJoinAsync("accel-bfs", r, s);     // streaming
//
// Three engines are registered in EngineRegistry::Global():
//   accel-bfs      BFS R-tree synchronous traversal (§3.4.1). Prepare
//                  bulk-loads both packed trees (the host-transfer image).
//   accel-pbsm     tile-pair join over a hierarchical partition (§3.4.2).
//                  Prepare runs PartitionHierarchical.
//   accel-pbsm-4x  the §6 out-of-memory path: a 2x2 spatial grid shards the
//                  join across (up to) 4 concurrent devices, results
//                  deduplicated by the reference-point rule. The seed of
//                  multi-node sharding: each shard is an independent device.
//                  Prepare builds nothing; the per-device images are built
//                  per execution.
//
// Prepare is the host's side of the bargain: it builds the device image
// once and records what PCIe will ship (AccelPreparedPlan). Beyond the
// JoinEngine contract, these engines expose ExecuteStreaming -- result
// batches surface as the simulated write unit flushes them (per BFS level /
// per PBSM tile batch / per 4x partition), which is what lets
// exec::RunJoinAsync overlap simulated-kernel execution with host-side
// consumption -- and last_report(), the device performance model (kernel
// cycles, DRAM traffic, PCIe transfer) of the engine instance's most recent
// run.
#ifndef SWIFTSPATIAL_JOIN_ACCEL_ENGINE_H_
#define SWIFTSPATIAL_JOIN_ACCEL_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "grid/hierarchical_partition.h"
#include "hw/accelerator.h"
#include "join/engine.h"
#include "rtree/packed_rtree.h"

namespace swiftspatial {

/// Receives result batches as the device produces them (ExecuteStreaming).
/// Batches are non-empty; the concatenation over a successful run is exactly
/// the ExecutePrepared result multiset.
using AccelBatchSink = std::function<void(std::vector<ResultPair>)>;

/// The device image Prepare builds: both packed trees (accel-bfs) or the
/// hierarchical partition (accel-pbsm); nothing for accel-pbsm-4x.
class AccelPreparedPlan : public PreparedPlan {
 public:
  using PreparedPlan::PreparedPlan;

  std::size_t MemoryBytes() const override;

  /// Host bytes the image ships over PCIe (tree images / serialized tile
  /// blocks + task table), i.e. the bytes_to_device every run of this plan
  /// reports. 0 for empty inputs and for accel-pbsm-4x, whose
  /// footprint-driven grid search builds the per-device images per run.
  uint64_t bytes_to_device = 0;
  std::optional<PackedRTree> r_tree;
  std::optional<PackedRTree> s_tree;
  std::optional<HierarchicalPartition> partition;
};

/// JoinEngine extended with the accelerator's streaming face and its
/// performance report.
class AccelJoinEngine : public JoinEngine {
 public:
  /// Like ExecutePrepared, but hands result batches to `sink` as the
  /// simulated write unit retires them instead of collecting one
  /// JoinResult. The simulated kernel runs to completion even if the
  /// consumer loses interest; `stats` (when non-null) accumulates.
  virtual Status ExecuteStreaming(const PreparedPlan& plan,
                                  const AccelBatchSink& sink,
                                  JoinStats* stats) = 0;

  /// Device performance model of this instance's last ExecutePrepared /
  /// ExecuteStreaming that ran the device (empty inputs do not). The
  /// multi-device engine aggregates: kernel cycles are the max over
  /// concurrent sub-joins, transfer bytes and work counters sum.
  const hw::AcceleratorReport& last_report() const { return report_; }

 protected:
  hw::AcceleratorReport report_;
};

/// True for the engine names backed by the simulated accelerator.
bool IsAccelEngine(const std::string& name);

/// Config checks shared by Prepare and the streaming layer's fail-fast path
/// (data-independent: thread count, unit count, tile cap, device memory).
Status ValidateAccelConfig(const EngineConfig& config);

/// Instantiates one of the accelerator engines directly -- the typed handle
/// (ExecuteStreaming, last_report) that the plain registry interface
/// erases. NotFound for names IsAccelEngine rejects.
Result<std::unique_ptr<AccelJoinEngine>> MakeAccelEngine(
    const std::string& name, const EngineConfig& config);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_ACCEL_ENGINE_H_
