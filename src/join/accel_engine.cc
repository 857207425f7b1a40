#include "join/accel_engine.h"

#include <algorithm>
#include <utility>

#include "hw/multi_device.h"
#include "join/engine_base.h"
#include "rtree/bulk_load.h"

namespace swiftspatial {

namespace {

// The lifecycle shared by the three device engines (EngineBase: config and
// geometry validation at Prepare, output/plan checks and the empty-input
// guard at execution). Subclasses implement Build and a single Run that
// serves both the collecting and the streaming entry points.
class AccelEngineBase : public EngineBase<AccelPreparedPlan, AccelJoinEngine> {
 public:
  using EngineBase::EngineBase;

  Status ExecuteStreaming(const PreparedPlan& plan, const AccelBatchSink& sink,
                          JoinStats* stats) final {
    if (!sink) {
      return Status::InvalidArgument(
          "ExecuteStreaming requires a callable sink");
    }
    auto typed = Typed(plan);
    if (!typed.ok()) return typed.status();
    if (plan.r().empty() || plan.s().empty()) return Status::OK();
    return Run(**typed, nullptr, stats, &sink);
  }

 protected:
  Status Validate() override { return ValidateAccelConfig(config()); }

  Status ExecuteImpl(const AccelPreparedPlan& plan, JoinResult* out,
                     JoinStats* stats) final {
    return Run(plan, out, stats, nullptr);
  }

  /// Runs the device. Exactly one of `out` (collecting) and `sink`
  /// (streaming) is non-null. Must fill report_.
  virtual Status Run(const AccelPreparedPlan& plan, JoinResult* out,
                     JoinStats* stats, const AccelBatchSink* sink) = 0;

  hw::AcceleratorConfig DeviceConfig() const {
    hw::AcceleratorConfig acfg;
    if (config().accel_join_units > 0) {
      acfg.num_join_units = config().accel_join_units;
    }
    return acfg;
  }

  /// Bridges the write unit's burst granularity to the engine sink: each
  /// flushed result burst (a tile batch / a run of leaf pairs) becomes one
  /// host-visible batch.
  static hw::ResultSink BurstBridge(const AccelBatchSink& sink) {
    return [&sink](const std::vector<ResultPair>& pairs) {
      sink(std::vector<ResultPair>(pairs));
    };
  }
};

// ---------------------------------------------------------------------------
// accel-bfs: BFS synchronous R-tree traversal on the device (§3.4.1).
// Prepare bulk-loads both packed trees -- the byte images PCIe will ship --
// and prices them in the plan's bytes_to_device.
// ---------------------------------------------------------------------------
class AccelBfsEngine : public AccelEngineBase {
 public:
  using AccelEngineBase::AccelEngineBase;

 protected:
  Status Validate() override {
    SWIFT_RETURN_IF_ERROR(AccelEngineBase::Validate());
    if (config().node_capacity < 2) {
      return Status::InvalidArgument("node_capacity must be >= 2");
    }
    return Status::OK();
  }

  Status Build(AccelPreparedPlan* plan) override {
    BulkLoadOptions bl;
    bl.max_entries = config().node_capacity;
    bl.num_threads = config().num_threads;
    plan->r_tree.emplace(StrBulkLoad(plan->r(), bl));
    plan->s_tree.emplace(StrBulkLoad(plan->s(), bl));
    plan->bytes_to_device =
        plan->r_tree->bytes().size() + plan->s_tree->bytes().size();
    return Status::OK();
  }

  Status Run(const AccelPreparedPlan& plan, JoinResult* out, JoinStats* stats,
             const AccelBatchSink* sink) override {
    hw::Accelerator device(DeviceConfig());
    hw::ResultSink bridge;
    if (sink != nullptr) bridge = BurstBridge(*sink);
    report_ = device.RunSyncTraversal(*plan.r_tree, *plan.s_tree, out,
                                      sink != nullptr ? &bridge : nullptr);
    if (stats != nullptr) *stats += report_.stats;
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// accel-pbsm: tile-pair join over a hierarchical partition (§3.4.2).
// Prepare partitions; the serialized tile stores + task table are the
// transfer.
// ---------------------------------------------------------------------------
class AccelPbsmEngine : public AccelEngineBase {
 public:
  using AccelEngineBase::AccelEngineBase;

 protected:
  Status Build(AccelPreparedPlan* plan) override {
    HierarchicalPartitionOptions hp;
    hp.tile_cap = config().accel_tile_cap;
    plan->partition = PartitionHierarchical(plan->r(), plan->s(), hp);
    plan->bytes_to_device = hw::PbsmDeviceImageBytes(*plan->partition);
    return Status::OK();
  }

  Status Run(const AccelPreparedPlan& plan, JoinResult* out, JoinStats* stats,
             const AccelBatchSink* sink) override {
    hw::Accelerator device(DeviceConfig());
    hw::ResultSink bridge;
    if (sink != nullptr) bridge = BurstBridge(*sink);
    report_ = device.RunPbsm(plan.r(), plan.s(), *plan.partition, out,
                             sink != nullptr ? &bridge : nullptr);
    if (stats != nullptr) *stats += report_.stats;
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// accel-pbsm-4x: the §6 larger-than-device-memory path as an engine. A 2x2
// spatial grid (min_grid = 2) shards the join across up to 4 concurrent
// simulated devices; per-shard results are deduplicated on the host by the
// reference-point rule against the outer grid's dedup tiles. Streaming
// flushes each shard's deduplicated global pairs as that device retires.
// The grid-resolution search is footprint-driven and may refine during
// execution (§6), so the per-device images are built per run and Prepare
// only validates.
// ---------------------------------------------------------------------------
class AccelPbsmMultiEngine : public AccelEngineBase {
 public:
  using AccelEngineBase::AccelEngineBase;

 protected:
  Status Run(const AccelPreparedPlan& plan, JoinResult* out, JoinStats* stats,
             const AccelBatchSink* sink) override {
    hw::MultiDeviceConfig mdc;
    mdc.device = DeviceConfig();
    mdc.device_memory_bytes = config().accel_device_memory_bytes;
    mdc.strategy = hw::OutOfMemoryStrategy::kMultipleDevices;
    mdc.tile_cap = config().accel_tile_cap;
    mdc.min_grid = 2;  // the "4x": 2x2 spatial shards, one device each
    if (sink != nullptr) {
      // The engine sink is shard-agnostic; the stable id matters to callers
      // that dedup retried shards (the dist/ fault-recovery path).
      mdc.partition_sink = [sink](int /*shard_id*/,
                                  std::vector<ResultPair> pairs) {
        (*sink)(std::move(pairs));
      };
    }
    auto mdr = hw::PartitionedJoin(plan.r(), plan.s(), mdc, out);
    if (!mdr.ok()) return mdr.status();

    // Aggregate the per-device reports into one device view: concurrent
    // shards overlap, so cycle-like quantities take the max; transferred
    // bytes and work counters sum.
    report_ = hw::AcceleratorReport{};
    report_.num_results = mdr->num_results;
    report_.total_seconds = mdr->total_seconds;
    for (const hw::AcceleratorReport& sub : mdr->sub_reports) {
      report_.kernel_cycles = std::max(report_.kernel_cycles,
                                       sub.kernel_cycles);
      report_.kernel_seconds = std::max(report_.kernel_seconds,
                                        sub.kernel_seconds);
      report_.host_transfer_seconds = std::max(report_.host_transfer_seconds,
                                               sub.host_transfer_seconds);
      report_.launch_seconds = std::max(report_.launch_seconds,
                                        sub.launch_seconds);
      report_.bytes_to_device += sub.bytes_to_device;
      report_.bytes_from_device += sub.bytes_from_device;
      report_.device_bytes_used = std::max(report_.device_bytes_used,
                                           sub.device_bytes_used);
      report_.stats += sub.stats;
    }
    if (stats != nullptr) *stats += report_.stats;
    return Status::OK();
  }
};

}  // namespace

std::size_t AccelPreparedPlan::MemoryBytes() const {
  std::size_t bytes = 0;
  if (r_tree) bytes += r_tree->bytes().capacity();
  if (s_tree) bytes += s_tree->bytes().capacity();
  if (partition) {
    for (const TileTask& task : partition->tasks) {
      bytes += sizeof(TileTask) + (task.r_objects.capacity() +
                                   task.s_objects.capacity()) *
                                      sizeof(ObjectId);
    }
  }
  return bytes;
}

bool IsAccelEngine(const std::string& name) {
  return name == kAccelBfsEngine || name == kAccelPbsmEngine ||
         name == kAccelPbsmMultiEngine;
}

Status ValidateAccelConfig(const EngineConfig& config) {
  if (config.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (config.accel_join_units < 0) {
    return Status::InvalidArgument("accel_join_units must be >= 0");
  }
  if (config.accel_tile_cap < 1) {
    return Status::InvalidArgument("accel_tile_cap must be >= 1");
  }
  if (config.accel_device_memory_bytes == 0) {
    return Status::InvalidArgument("accel_device_memory_bytes must be > 0");
  }
  return Status::OK();
}

Result<std::unique_ptr<AccelJoinEngine>> MakeAccelEngine(
    const std::string& name, const EngineConfig& config) {
  if (name == kAccelBfsEngine) {
    return std::unique_ptr<AccelJoinEngine>(
        std::make_unique<AccelBfsEngine>(name, config));
  }
  if (name == kAccelPbsmEngine) {
    return std::unique_ptr<AccelJoinEngine>(
        std::make_unique<AccelPbsmEngine>(name, config));
  }
  if (name == kAccelPbsmMultiEngine) {
    return std::unique_ptr<AccelJoinEngine>(
        std::make_unique<AccelPbsmMultiEngine>(name, config));
  }
  return Status::NotFound("not an accelerator engine: " + name);
}

}  // namespace swiftspatial
