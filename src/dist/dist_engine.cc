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

  Status ExecuteStreaming(const PreparedPlan& plan, const ShardSink& sink,
                          JoinStats* stats,
                          exec::CancellationToken cancel) override {
    if (!sink) {
      return Status::InvalidArgument(
          "ExecuteStreaming requires a callable sink");
    }
    auto typed = Typed(plan);
    if (!typed.ok()) return typed.status();
    if (plan.r().empty() || plan.s().empty()) return Status::OK();
    return Run(**typed, /*out=*/nullptr, stats, sink, std::move(cancel));
  }

 protected:
  Status Validate() override { return ValidateDistConfig(config()); }

  Status Build(DistPreparedPlan* plan) override {
    plan->options = OptionsFromConfig(config(), use_accel_);
    auto shard_plan = PlanShards(plan->r(), plan->s(), plan->options.grid_cols,
                                 plan->options.grid_rows,
                                 plan->options.num_nodes,
                                 plan->options.placement);
    if (!shard_plan.ok()) return shard_plan.status();
    plan->shard_plan = std::move(*shard_plan);
    return Status::OK();
  }

  Status ExecuteImpl(const DistPreparedPlan& plan, JoinResult* out,
                     JoinStats* stats) override {
    return Run(plan, out, stats, ShardSink(), exec::CancellationToken());
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
  std::size_t bytes = shard_plan.shards.capacity() * sizeof(Shard) +
                      shard_plan.owner.capacity() * sizeof(int) +
                      shard_plan.node_cost.capacity() * sizeof(uint64_t);
  for (const Shard& shard : shard_plan.shards) {
    bytes +=
        (shard.r_ids.capacity() + shard.s_ids.capacity()) * sizeof(ObjectId);
  }
  return bytes;
}

bool IsDistEngine(const std::string& name) {
  return name == kDistPbsmEngine || name == kDistAccelEngine;
}

Status ValidateDistConfig(const EngineConfig& config) {
  if (config.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (config.dist_nodes < 1) {
    return Status::InvalidArgument("dist_nodes must be >= 1");
  }
  SWIFT_RETURN_IF_ERROR(
      ValidateGridConfig(config.grid_cols, config.grid_rows));
  if (config.accel_join_units < 0) {
    return Status::InvalidArgument("accel_join_units must be >= 0");
  }
  if (config.accel_tile_cap < 1) {
    return Status::InvalidArgument("accel_tile_cap must be >= 1");
  }
  return Status::OK();
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
