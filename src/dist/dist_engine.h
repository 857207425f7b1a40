// The distributed cluster behind the unified JoinEngine interface: two
// engines registered in EngineRegistry::Global(), so the equivalence
// oracle, the streaming Collect-vs-sync oracle, benches, and JoinService
// reach the multi-node path by name.
//
//   dist-pbsm   N-node cluster, CPU tile joins per shard (the partitioned
//               driver's grid shards distributed over nodes).
//   dist-accel  each node fronts a simulated device: accel-pbsm-4x
//               generalised from the fixed 2x2 grid / 4 devices to N nodes
//               x M-unit devices over arbitrary shard placement.
//
// Prepare runs the ShardPlanner (grid + placement) into a DistPreparedPlan;
// every execution spins a fresh in-process cluster over that immutable plan
// and merges. Beyond the JoinEngine contract the typed handle exposes
// ExecuteStreaming -- committed shards surface through a ShardSink as they
// merge, with a cancellation token that stops the cluster mid-exchange --
// and last_report(), the DistReport of the instance's most recent run.
#ifndef SWIFTSPATIAL_DIST_DIST_ENGINE_H_
#define SWIFTSPATIAL_DIST_DIST_ENGINE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "dist/dist_join.h"
#include "join/engine.h"

namespace swiftspatial::dist {

/// The cached artifact of distributed planning: the immutable ShardPlan plus
/// the cluster options it was planned under. Every run spins a fresh
/// cluster and never mutates the plan, so one plan serves concurrent
/// executions.
class DistPreparedPlan : public PreparedPlan {
 public:
  using PreparedPlan::PreparedPlan;

  std::size_t MemoryBytes() const override;

  DistJoinOptions options;
  ShardPlan shard_plan;
};

/// JoinEngine extended with the cluster's streaming face and run report.
class DistJoinEngine : public JoinEngine {
 public:
  /// Like ExecutePrepared, but hands each committed shard's pairs to `sink`
  /// as the merge coordinator commits it (stable shard ids; commit order).
  /// `cancel` stops the cluster mid-exchange: delivered shards remain a
  /// well-defined prefix and the call returns Aborted.
  virtual Status ExecuteStreaming(const PreparedPlan& plan,
                                  const ShardSink& sink, JoinStats* stats,
                                  exec::CancellationToken cancel) = 0;

  /// Report of this instance's most recent ExecutePrepared /
  /// ExecuteStreaming that ran the cluster (empty inputs do not).
  const DistReport& last_report() const { return report_; }

 protected:
  DistReport report_;
};

/// True for the engine names backed by the cluster runtime.
bool IsDistEngine(const std::string& name);

/// Data-independent config checks shared by Prepare and the streaming layer's
/// fail-fast path.
Status ValidateDistConfig(const EngineConfig& config);

/// Instantiates one of the distributed engines directly -- the typed handle
/// (ExecuteStreaming, last_report) the plain registry interface erases.
/// NotFound for names IsDistEngine rejects.
Result<std::unique_ptr<DistJoinEngine>> MakeDistEngine(
    const std::string& name, const EngineConfig& config);

}  // namespace swiftspatial::dist

#endif  // SWIFTSPATIAL_DIST_DIST_ENGINE_H_
