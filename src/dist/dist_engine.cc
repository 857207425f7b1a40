#include "dist/dist_engine.h"

#include <algorithm>
#include <utility>

#include "join/engine_base.h"
#include "join/partitioned_driver.h"

namespace swiftspatial::dist {

namespace {

DistJoinOptions OptionsFromConfig(const EngineConfig& config,
                                  bool use_accel) {
  DistJoinOptions options;
  options.num_nodes = config.dist_nodes;
  options.placement = config.dist_placement;
  options.node_worker_threads =
      config.dist_node_threads > 0
          ? config.dist_node_threads
          : std::max<std::size_t>(
                1, config.num_threads /
                       static_cast<std::size_t>(
                           std::max(1, config.dist_nodes)));
  options.grid_cols = config.grid_cols;
  options.grid_rows = config.grid_rows;
  options.tile_join = config.tile_join;
  options.use_accel = use_accel;
  options.accel_join_units = config.accel_join_units;
  options.accel_tile_cap = config.accel_tile_cap;
  // The engine validates geometry once, at Prepare.
  options.validate_inputs = false;
  options.trace = config.trace;
  return options;
}

class DistEngineImpl : public EngineBase<DistPreparedPlan, DistJoinEngine> {
 public:
  DistEngineImpl(std::string name, const EngineConfig& config, bool use_accel)
      : EngineBase(std::move(name), config), use_accel_(use_accel) {}

 protected:
  Status Validate() override {
    if (config().dist_nodes < 1) {
      return Status::InvalidArgument("dist_nodes must be >= 1");
    }
    SWIFT_RETURN_IF_ERROR(
        ValidateGridConfig(config().grid_cols, config().grid_rows));
    if (config().accel_join_units < 0) {
      return Status::InvalidArgument("accel_join_units must be >= 0");
    }
    if (config().accel_tile_cap < 1) {
      return Status::InvalidArgument("accel_tile_cap must be >= 1");
    }
    return Status::OK();
  }

  Status Build(DistPreparedPlan* plan, const JoinInput& r,
               const JoinInput& s, const WaveContext& wave) override {
    plan->options = OptionsFromConfig(config(), use_accel_);
    SWIFT_ASSIGN_OR_RETURN(
        plan->shard_plan,
        PlanShards(r, s, plan->options.grid_cols, plan->options.grid_rows,
                   plan->options.num_nodes, plan->options.placement,
                   config().num_threads, wave));
    return Status::OK();
  }

  Status ExecuteImpl(const DistPreparedPlan& plan,
                     const WaveContext& /*wave*/, JoinResult* out,
                     JoinStats* stats) override {
    return Run(plan, out, stats, ShardSink(), exec::CancellationToken());
  }

  Status StreamImpl(const DistPreparedPlan& plan, const StreamTarget& target,
                    JoinStats* stats) override {
    const ShardSink sink = [&target](int, std::vector<ResultPair> pairs) {
      target.sink(std::move(pairs));
    };
    SWIFT_RETURN_IF_ERROR(
        Run(plan, /*out=*/nullptr, stats, sink, target.wave.cancel));
    // Shard retries are this request's fault-recovery cost.
    if (target.wave.usage != nullptr) {
      target.wave.usage->AddRetries(
          static_cast<uint64_t>(report_.retried_shards));
    }
    return Status::OK();
  }

 private:
  Status Run(const DistPreparedPlan& plan, JoinResult* out, JoinStats* stats,
             const ShardSink& sink, exec::CancellationToken cancel) {
    // The cached options froze the PREPARING request's trace context; a
    // warm execution must carry its own, so override from this engine
    // instance's config (one engine instance per request).
    DistJoinOptions options = plan.options;
    options.trace = config().trace;
    auto report = RunPlannedJoin(plan.r(), plan.s(), plan.shard_plan, options,
                                 out, stats, sink, std::move(cancel));
    if (!report.ok()) return report.status();
    report_ = std::move(*report);
    return Status::OK();
  }

  bool use_accel_;
};

}  // namespace

std::size_t DistPreparedPlan::MemoryBytes() const {
  // The id lists live in the halves, accounted where they are stored.
  std::size_t bytes = shard_plan.shards.capacity() * sizeof(Shard) +
                      shard_plan.owner.capacity() * sizeof(int) +
                      shard_plan.node_cost.capacity() * sizeof(uint64_t);
  if (shard_plan.cells) bytes += shard_plan.cells->MemoryBytes();
  return bytes;
}

Result<std::unique_ptr<DistJoinEngine>> MakeDistEngine(
    const std::string& name, const EngineConfig& config) {
  if (name == kDistPbsmEngine) {
    return std::unique_ptr<DistJoinEngine>(std::make_unique<DistEngineImpl>(
        name, config, /*use_accel=*/false));
  }
  if (name == kDistAccelEngine) {
    return std::unique_ptr<DistJoinEngine>(std::make_unique<DistEngineImpl>(
        name, config, /*use_accel=*/true));
  }
  return Status::NotFound("not a distributed engine: " + name);
}

}  // namespace swiftspatial::dist
