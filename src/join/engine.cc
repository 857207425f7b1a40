#include "join/engine.h"

#include <numeric>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "dist/dist_engine.h"
#include "exec/streaming.h"
#include "join/accel_engine.h"
#include "join/cuspatial_like.h"
#include "join/engine_base.h"
#include "join/engine_baselines.h"
#include "join/nested_loop.h"
#include "join/partitioned_driver.h"
#include "join/plane_sweep.h"
#include "join/sync_traversal.h"
#include "obs/metrics.h"
#include "rtree/bulk_load.h"

namespace swiftspatial {
namespace {

// ---------------------------------------------------------------------------
// nested_loop: the all-pairs oracle.
// ---------------------------------------------------------------------------
class NestedLoopEngine : public EngineBase<InputsOnlyPlan> {
 public:
  using EngineBase::EngineBase;

 protected:
  Status ExecuteImpl(const InputsOnlyPlan& plan, JoinResult* out,
                     JoinStats* stats) override {
    *out = BruteForceJoin(plan.r(), plan.s(), stats);
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// plane_sweep: one global forward-scan sweep over both inputs.
// ---------------------------------------------------------------------------

// Both inputs' ids in sweep order, sorted once at Prepare so executions
// skip the sort.
class PlaneSweepPlan : public PreparedPlan {
 public:
  using PreparedPlan::PreparedPlan;

  std::size_t MemoryBytes() const override {
    return (r_ids.capacity() + s_ids.capacity()) * sizeof(ObjectId);
  }

  std::vector<ObjectId> r_ids;
  std::vector<ObjectId> s_ids;
};

class PlaneSweepEngine : public EngineBase<PlaneSweepPlan> {
 public:
  using EngineBase::EngineBase;

 protected:
  Status Build(PlaneSweepPlan* plan) override {
    const auto sweep_ordered = [](const Dataset& d) {
      std::vector<ObjectId> ids(d.size());
      std::iota(ids.begin(), ids.end(), ObjectId{0});
      SortForSweep(d, &ids);
      return ids;
    };
    plan->r_ids = sweep_ordered(plan->r());
    plan->s_ids = sweep_ordered(plan->s());
    return Status::OK();
  }

  Status ExecuteImpl(const PlaneSweepPlan& plan, JoinResult* out,
                     JoinStats* stats) override {
    PlaneSweepTileJoin(plan.r(), plan.s(), plan.r_ids, plan.s_ids,
                       /*dedup_tile=*/nullptr, out, stats);
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// pbsm: 1-D stripes + per-stripe tile joins (Algorithm 3).
// ---------------------------------------------------------------------------

// The immutable stripe partition plus the options it was built under.
class PbsmPreparedPlan : public PreparedPlan {
 public:
  using PreparedPlan::PreparedPlan;

  std::size_t MemoryBytes() const override {
    std::size_t bytes = partition.stripes.capacity() * sizeof(Box);
    for (const auto& part : partition.r_parts) {
      bytes += part.capacity() * sizeof(ObjectId);
    }
    for (const auto& part : partition.s_parts) {
      bytes += part.capacity() * sizeof(ObjectId);
    }
    return bytes;
  }

  PbsmOptions options;
  StripePartition partition;
};

class PbsmEngine : public EngineBase<PbsmPreparedPlan> {
 public:
  using EngineBase::EngineBase;

 protected:
  Status Validate() override {
    if (config().num_partitions < 1) {
      return Status::InvalidArgument("num_partitions must be >= 1");
    }
    return Status::OK();
  }

  Status Build(PbsmPreparedPlan* plan) override {
    plan->options.num_partitions = config().num_partitions;
    plan->options.axis = config().axis;
    plan->options.num_threads = config().num_threads;
    plan->options.schedule = config().schedule;
    plan->options.tile_join = config().tile_join;
    plan->partition = PbsmPartition(plan->r(), plan->s(), plan->options);
    return Status::OK();
  }

  Status ExecuteImpl(const PbsmPreparedPlan& plan, JoinResult* out,
                     JoinStats* stats) override {
    *out = PbsmJoin(plan.r(), plan.s(), plan.partition, plan.options, stats);
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// cuspatial_like: quadtree-indexed point-in-polygon-MBR join.
// ---------------------------------------------------------------------------
class CuSpatialLikeEngine : public EngineBase<InputsOnlyPlan> {
 public:
  using EngineBase::EngineBase;

 protected:
  Status Validate() override {
    if (config().quadtree_leaf_capacity < 1) {
      return Status::InvalidArgument("quadtree_leaf_capacity must be >= 1");
    }
    if (config().batch_size < 1) {
      return Status::InvalidArgument("batch_size must be >= 1");
    }
    return Status::OK();
  }

  Status Build(InputsOnlyPlan* plan) override {
    if (!plan->r().IsPointDataset()) {
      // NotSupported, not InvalidArgument: the input is well-formed, this
      // engine just does not apply to it. Harnesses key expected skips on
      // the distinction (bench::SkipRow).
      return Status::NotSupported(
          "cuspatial_like requires R to be a point dataset (point-polygon "
          "orientation)");
    }
    return Status::OK();
  }

  Status ExecuteImpl(const InputsOnlyPlan& plan, JoinResult* out,
                     JoinStats* stats) override {
    CuSpatialLikeOptions options;
    options.quadtree_leaf_capacity = config().quadtree_leaf_capacity;
    options.batch_size = config().batch_size;
    options.num_threads = config().num_threads;
    *out = CuSpatialLikeJoin(plan.r(), plan.s(), options, stats);
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// sync_traversal / parallel_sync_traversal: R-tree engines. Prepare
// bulk-loads both trees (STR, the paper's default); traversals only read
// the DRAM images.
// ---------------------------------------------------------------------------
class RTreePreparedPlan : public PreparedPlan {
 public:
  using PreparedPlan::PreparedPlan;

  std::size_t MemoryBytes() const override {
    std::size_t bytes = 0;
    if (r_tree) bytes += r_tree->bytes().capacity();
    if (s_tree) bytes += s_tree->bytes().capacity();
    return bytes;
  }

  std::optional<PackedRTree> r_tree;  // empty for empty inputs
  std::optional<PackedRTree> s_tree;
};

class RTreeEngineBase : public EngineBase<RTreePreparedPlan> {
 public:
  using EngineBase::EngineBase;

 protected:
  Status Validate() override {
    if (config().node_capacity < 2) {
      return Status::InvalidArgument("node_capacity must be >= 2");
    }
    return Status::OK();
  }

  Status Build(RTreePreparedPlan* plan) override {
    BulkLoadOptions bl;
    bl.max_entries = config().node_capacity;
    bl.num_threads = config().num_threads;
    plan->r_tree.emplace(StrBulkLoad(plan->r(), bl));
    plan->s_tree.emplace(StrBulkLoad(plan->s(), bl));
    return Status::OK();
  }
};

class SyncTraversalEngine : public RTreeEngineBase {
 public:
  using RTreeEngineBase::RTreeEngineBase;

 protected:
  Status ExecuteImpl(const RTreePreparedPlan& plan, JoinResult* out,
                     JoinStats* stats) override {
    *out = config().bfs ? SyncTraversalBfs(*plan.r_tree, *plan.s_tree, stats)
                        : SyncTraversalDfs(*plan.r_tree, *plan.s_tree, stats);
    return Status::OK();
  }
};

class ParallelSyncTraversalEngine : public RTreeEngineBase {
 public:
  using RTreeEngineBase::RTreeEngineBase;

 protected:
  Status Validate() override {
    SWIFT_RETURN_IF_ERROR(RTreeEngineBase::Validate());
    if (config().dfs_switch_factor < 1) {
      return Status::InvalidArgument("dfs_switch_factor must be >= 1");
    }
    return Status::OK();
  }

  Status ExecuteImpl(const RTreePreparedPlan& plan, JoinResult* out,
                     JoinStats* stats) override {
    ParallelSyncTraversalOptions options;
    options.num_threads = config().num_threads;
    options.strategy = config().strategy;
    options.schedule = config().schedule;
    options.dfs_switch_factor = config().dfs_switch_factor;
    *out = ParallelSyncTraversal(*plan.r_tree, *plan.s_tree, options, stats);
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// partitioned: the grid-sharded thread-pooled driver. The simd variant is
// the same driver locked to the batched SIMD filter kernel as its tile join,
// so the grid supplies thread scaling and the kernel supplies per-cell
// predicate throughput.
// ---------------------------------------------------------------------------

// The shared immutable cell plan (see PartitionedPlanState);
// ExecutePartitionedPlan reads it const with per-call accumulators.
class PartitionedPreparedPlan : public PreparedPlan {
 public:
  using PreparedPlan::PreparedPlan;

  std::size_t MemoryBytes() const override {
    return state ? state->MemoryBytes() : 0;
  }

  std::shared_ptr<const PartitionedPlanState> state;  // null: empty inputs
};

class PartitionedEngine : public EngineBase<PartitionedPreparedPlan> {
 public:
  PartitionedEngine(std::string name, const EngineConfig& config,
                    TileJoin tile_join)
      : EngineBase(std::move(name), config), tile_join_(tile_join) {}

 protected:
  Status Validate() override {
    return ValidateGridConfig(config().grid_cols, config().grid_rows);
  }

  Status Build(PartitionedPreparedPlan* plan) override {
    PartitionedDriverOptions options;
    options.grid_cols = config().grid_cols;
    options.grid_rows = config().grid_rows;
    options.num_threads = config().num_threads;
    options.tile_join = tile_join_;
    auto state = PlanPartitionedCells(plan->r(), plan->s(), options);
    if (!state.ok()) return state.status();
    plan->state = std::move(*state);
    return Status::OK();
  }

  Status ExecuteImpl(const PartitionedPreparedPlan& plan, JoinResult* out,
                     JoinStats* stats) override {
    *out = ExecutePartitionedPlan(*plan.state, plan.r(), plan.s(), tile_join_,
                                  config().num_threads, stats);
    return Status::OK();
  }

 private:
  TileJoin tile_join_;
};

// ---------------------------------------------------------------------------
// System-style baselines.
// ---------------------------------------------------------------------------
class InterpretedEngineAdapter : public EngineBase<InputsOnlyPlan> {
 public:
  using EngineBase::EngineBase;

 protected:
  Status Validate() override {
    if (config().index_max_entries < 2) {
      return Status::InvalidArgument("index_max_entries must be >= 2");
    }
    return Status::OK();
  }

  Status ExecuteImpl(const InputsOnlyPlan& plan, JoinResult* out,
                     JoinStats* stats) override {
    InterpretedEngineOptions options;
    options.num_threads = config().num_threads;
    options.index_max_entries = config().index_max_entries;
    *out = InterpretedEngineJoin(plan.r(), plan.s(), options, stats);
    return Status::OK();
  }
};

class BigDataFrameworkAdapter : public EngineBase<InputsOnlyPlan> {
 public:
  using EngineBase::EngineBase;

 protected:
  Status Validate() override {
    if (config().num_partitions < 1) {
      return Status::InvalidArgument("num_partitions must be >= 1");
    }
    if (config().index_max_entries < 2) {
      return Status::InvalidArgument("index_max_entries must be >= 2");
    }
    return Status::OK();
  }

  Status ExecuteImpl(const InputsOnlyPlan& plan, JoinResult* out,
                     JoinStats* stats) override {
    BigDataFrameworkOptions options;
    options.num_partitions = config().num_partitions;
    options.num_threads = config().num_threads;
    options.index_max_entries = config().index_max_entries;
    *out = BigDataFrameworkJoin(plan.r(), plan.s(), options, stats);
    return Status::OK();
  }
};

template <typename Engine>
EngineFactory MakeFactory(const char* name) {
  return [name](const EngineConfig& config) -> std::unique_ptr<JoinEngine> {
    return std::make_unique<Engine>(name, config);
  };
}

}  // namespace

uint64_t ConfigFingerprint(const EngineConfig& config) {
  // FNV-1a over every field. A new EngineConfig field MUST be mixed in here:
  // omitting one lets two configs that plan differently share a cache slot,
  // i.e. a stale-plan bug. Sole exception: `config.trace` is deliberately
  // NOT mixed -- it is request-scoped observability context, not a planning
  // input, and mixing it would defeat the plan cache (every request carries
  // a fresh trace id).
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  mix(config.num_threads);
  mix(static_cast<uint64_t>(config.schedule));
  mix(config.validate_inputs ? 1 : 0);
  mix(static_cast<uint64_t>(config.node_capacity));
  mix(config.bfs ? 1 : 0);
  mix(static_cast<uint64_t>(config.strategy));
  mix(config.dfs_switch_factor);
  mix(static_cast<uint64_t>(config.num_partitions));
  mix(static_cast<uint64_t>(config.axis));
  mix(static_cast<uint64_t>(config.tile_join));
  mix(static_cast<uint64_t>(config.grid_cols));
  mix(static_cast<uint64_t>(config.grid_rows));
  mix(static_cast<uint64_t>(config.quadtree_leaf_capacity));
  mix(config.batch_size);
  mix(static_cast<uint64_t>(config.index_max_entries));
  mix(static_cast<uint64_t>(config.accel_join_units));
  mix(static_cast<uint64_t>(config.accel_tile_cap));
  mix(config.accel_device_memory_bytes);
  mix(static_cast<uint64_t>(config.dist_nodes));
  mix(static_cast<uint64_t>(config.dist_placement));
  mix(config.dist_node_threads);
  return hash;
}

Result<std::shared_ptr<const PreparedPlan>> PrepareJoin(
    const std::string& engine, std::shared_ptr<const Dataset> r,
    std::shared_ptr<const Dataset> s, const EngineConfig& config) {
  auto created = EngineRegistry::Global().Create(engine, config);
  if (!created.ok()) return created.status();
  return (*created)->Prepare(std::move(r), std::move(s));
}

Result<JoinRun> RunPreparedJoin(const PreparedPlan& plan,
                                const EngineConfig& config) {
  JoinRun run;
  Stopwatch sw;
  auto created = EngineRegistry::Global().Create(plan.engine(), config);
  if (!created.ok()) return created.status();
  // Engine instantiation is all the warm path pays before executing: the
  // planning the cold path bills here was done once, at Prepare.
  run.timing.plan_seconds = sw.ElapsedSeconds();
  sw.Reset();
  SWIFT_RETURN_IF_ERROR(
      (*created)->ExecutePrepared(plan, &run.result, &run.stats));
  run.timing.execute_seconds = sw.ElapsedSeconds();
  return run;
}

Result<JoinRun> JoinEngine::Run(const Dataset& r, const Dataset& s) {
  JoinRun run;
  Stopwatch sw;
  auto plan = Prepare(BorrowDataset(r), BorrowDataset(s));
  if (!plan.ok()) return plan.status();
  run.timing.plan_seconds = sw.ElapsedSeconds();
  sw.Reset();
  SWIFT_RETURN_IF_ERROR(ExecutePrepared(**plan, &run.result, &run.stats));
  run.timing.execute_seconds = sw.ElapsedSeconds();
  // Stage timing per engine; handles resolve through the registry lock once
  // per Run, which is noise next to a full Prepare + ExecutePrepared.
  auto& metrics = obs::MetricsRegistry::Global();
  metrics
      .GetHistogram("swiftspatial_join_plan_seconds", {{"engine", name()}},
                    {}, "Plan-stage wall seconds per JoinEngine::Run")
      ->Observe(run.timing.plan_seconds);
  metrics
      .GetHistogram("swiftspatial_join_execute_seconds", {{"engine", name()}},
                    {}, "Execute-stage wall seconds per JoinEngine::Run")
      ->Observe(run.timing.execute_seconds);
  return run;
}

EngineRegistry& EngineRegistry::Global() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    // A failed built-in registration (duplicate or empty name, null
    // factory) is a programmer error that would silently unlist an engine,
    // so it CHECK-fails rather than dropping the Status.
    const auto register_or_die = [r](const std::string& name,
                                     EngineFactory factory) {
      const Status st = r->Register(name, std::move(factory));
      SWIFT_CHECK(st.ok()) << "built-in engine registration failed: "
                           << st.ToString();
    };
    register_or_die(kNestedLoopEngine, MakeFactory<NestedLoopEngine>(
                                           kNestedLoopEngine));
    register_or_die(kPlaneSweepEngine, MakeFactory<PlaneSweepEngine>(
                                           kPlaneSweepEngine));
    register_or_die(kPbsmEngine, MakeFactory<PbsmEngine>(kPbsmEngine));
    register_or_die(kCuSpatialLikeEngine, MakeFactory<CuSpatialLikeEngine>(
                                              kCuSpatialLikeEngine));
    register_or_die(kSyncTraversalEngine, MakeFactory<SyncTraversalEngine>(
                                              kSyncTraversalEngine));
    register_or_die(kParallelSyncTraversalEngine,
                    MakeFactory<ParallelSyncTraversalEngine>(
                        kParallelSyncTraversalEngine));
    register_or_die(
        kPartitionedEngine,
        [](const EngineConfig& config) -> std::unique_ptr<JoinEngine> {
          return std::make_unique<PartitionedEngine>(kPartitionedEngine,
                                                     config, config.tile_join);
        });
    register_or_die(
        kSimdEngine,
        [](const EngineConfig& config) -> std::unique_ptr<JoinEngine> {
          return std::make_unique<PartitionedEngine>(kSimdEngine, config,
                                                     TileJoin::kSimd);
        });
    register_or_die(kAsyncEngine, [](const EngineConfig& config) {
      return exec::MakeAsyncJoinEngine(config);
    });
    // The simulated accelerator (join/accel_engine.h). MakeAccelEngine only
    // fails for unknown names, so dereferencing here is safe; config errors
    // surface at Prepare like every other engine.
    for (const char* accel : {kAccelBfsEngine, kAccelPbsmEngine,
                              kAccelPbsmMultiEngine}) {
      register_or_die(accel,
                      [accel](const EngineConfig& config)
                          -> std::unique_ptr<JoinEngine> {
                        return std::move(*MakeAccelEngine(accel, config));
                      });
    }
    // The simulated cluster (dist/dist_engine.h). As with the accelerator
    // engines, MakeDistEngine only fails for unknown names; config errors
    // surface at Prepare.
    for (const char* dist_name : {kDistPbsmEngine, kDistAccelEngine}) {
      register_or_die(dist_name,
                      [dist_name](const EngineConfig& config)
                          -> std::unique_ptr<JoinEngine> {
                        return std::move(*dist::MakeDistEngine(dist_name,
                                                               config));
                      });
    }
    register_or_die(kInterpretedEngineBaseline,
                    MakeFactory<InterpretedEngineAdapter>(
                        kInterpretedEngineBaseline));
    register_or_die(kBigDataFrameworkBaseline,
                    MakeFactory<BigDataFrameworkAdapter>(
                        kBigDataFrameworkBaseline));
    return r;
  }();
  return *registry;
}

Status EngineRegistry::Register(const std::string& name,
                                EngineFactory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("engine name must be non-empty");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("engine factory must be non-null");
  }
  MutexLock lock(&mu_);
  if (!factories_.emplace(name, std::move(factory)).second) {
    return Status::InvalidArgument("engine already registered: " + name);
  }
  return Status::OK();
}

bool EngineRegistry::Contains(const std::string& name) const {
  MutexLock lock(&mu_);
  return factories_.count(name) > 0;
}

Result<std::unique_ptr<JoinEngine>> EngineRegistry::Create(
    const std::string& name, const EngineConfig& config) const {
  EngineFactory factory;
  {
    MutexLock lock(&mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      std::string known;
      for (const auto& [n, f] : factories_) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      return Status::NotFound("unknown join engine \"" + name +
                              "\" (registered: " + known + ")");
    }
    factory = it->second;
  }
  std::unique_ptr<JoinEngine> engine = factory(config);
  if (engine == nullptr) {
    return Status::Internal("factory for engine \"" + name +
                            "\" returned no engine");
  }
  return engine;
}

std::vector<std::string> EngineRegistry::Names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;  // std::map iterates in sorted order
}

Result<JoinRun> RunJoin(const std::string& engine, const Dataset& r,
                        const Dataset& s, const EngineConfig& config) {
  auto created = EngineRegistry::Global().Create(engine, config);
  if (!created.ok()) return created.status();
  return (*created)->Run(r, s);
}

}  // namespace swiftspatial
