#include "join/engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "dist/dist_engine.h"
#include "exec/streaming.h"
#include "join/accel_engine.h"
#include "join/cuspatial_like.h"
#include "join/engine_baselines.h"
#include "join/nested_loop.h"
#include "join/partitioned_driver.h"
#include "join/plane_sweep.h"
#include "obs/metrics.h"
#include "join/sync_traversal.h"
#include "rtree/bulk_load.h"

namespace swiftspatial {
namespace {

// Validation shared by every engine.
Status ValidateCommon(const EngineConfig& config) {
  if (config.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  return Status::OK();
}

// Shared by ExecutePrepared overrides: the output/name/type checks every
// native implementation needs before touching plan artifacts.
template <typename PlanT>
Result<const PlanT*> CheckPreparedPlan(const JoinEngine& engine,
                                       const PreparedPlan& plan,
                                       JoinResult* out) {
  if (out == nullptr) {
    return Status::InvalidArgument(
        "ExecutePrepared requires a non-null result");
  }
  if (plan.engine() != engine.name()) {
    return Status::InvalidArgument("prepared plan belongs to engine \"" +
                                   plan.engine() + "\", not \"" +
                                   engine.name() + "\"");
  }
  const auto* typed = dynamic_cast<const PlanT*>(&plan);
  if (typed == nullptr) {
    return Status::Internal("prepared plan type mismatch for engine " +
                            engine.name());
  }
  return typed;
}

// Base class factoring the Plan bookkeeping every adapter needs: common
// config validation, dataset capture, and the planned/empty-input guards.
// Subclasses override PlanImpl/ExecuteImpl.
class EngineBase : public JoinEngine {
 public:
  EngineBase(std::string name, const EngineConfig& config)
      : name_(std::move(name)), config_(config) {}

  const std::string& name() const override { return name_; }

  Status Plan(const Dataset& r, const Dataset& s) final {
    SWIFT_RETURN_IF_ERROR(PrepareChecks(r, s));
    r_ = &r;
    s_ = &s;
    // Empty inputs join to the empty set; skip index builds so every engine
    // (including ones whose underlying index assumes non-empty data) is
    // uniformly safe on the edge case.
    if (!r.empty() && !s.empty()) {
      SWIFT_RETURN_IF_ERROR(PlanImpl(r, s));
    }
    planned_ = true;
    return Status::OK();
  }

  Status Execute(JoinResult* out, JoinStats* stats) final {
    if (!planned_) {
      return Status::Internal("Execute called before a successful Plan");
    }
    if (out == nullptr) {
      return Status::InvalidArgument("Execute requires a non-null result");
    }
    // Execute overwrites *out (stats accumulate): repeated Execute calls
    // must yield identical results even for engines whose implementation
    // appends into the output (e.g. the tile-join based ones).
    *out = JoinResult();
    if (r_->empty() || s_->empty()) return Status::OK();
    return ExecuteImpl(*r_, *s_, out, stats);
  }

 protected:
  /// The validation Plan runs before building anything: common + engine
  /// config checks, then the reject-at-ingest geometry policy (NaN/inf
  /// coordinates, inverted boxes; see EngineConfig::validate_inputs).
  /// Prepare overrides run the same gauntlet so the warm path accepts
  /// exactly what the cold path accepts.
  Status PrepareChecks(const Dataset& r, const Dataset& s) {
    SWIFT_RETURN_IF_ERROR(ValidateCommon(config_));
    SWIFT_RETURN_IF_ERROR(Validate());
    if (config_.validate_inputs) {
      SWIFT_RETURN_IF_ERROR(r.ValidateBoxes());
      SWIFT_RETURN_IF_ERROR(s.ValidateBoxes());
    }
    return Status::OK();
  }

  /// Engine-specific config validation (beyond ValidateCommon).
  virtual Status Validate() { return Status::OK(); }
  /// Builds indexes/partitions. Only called for non-empty inputs.
  virtual Status PlanImpl(const Dataset& r, const Dataset& s) {
    (void)r;
    (void)s;
    return Status::OK();
  }
  virtual Status ExecuteImpl(const Dataset& r, const Dataset& s,
                             JoinResult* out, JoinStats* stats) = 0;

  const EngineConfig& config() const { return config_; }

 private:
  std::string name_;
  EngineConfig config_;
  const Dataset* r_ = nullptr;
  const Dataset* s_ = nullptr;
  bool planned_ = false;
};

// ---------------------------------------------------------------------------
// nested_loop: the all-pairs oracle.
// ---------------------------------------------------------------------------
class NestedLoopEngine : public EngineBase {
 public:
  using EngineBase::EngineBase;

 protected:
  Status ExecuteImpl(const Dataset& r, const Dataset& s, JoinResult* out,
                     JoinStats* stats) override {
    *out = BruteForceJoin(r, s, stats);
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// plane_sweep: one global forward-scan sweep over both inputs.
// ---------------------------------------------------------------------------
class PlaneSweepEngine : public EngineBase {
 public:
  using EngineBase::EngineBase;

 protected:
  Status PlanImpl(const Dataset& r, const Dataset& s) override {
    r_ids_.resize(r.size());
    s_ids_.resize(s.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      r_ids_[i] = static_cast<ObjectId>(i);
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      s_ids_[i] = static_cast<ObjectId>(i);
    }
    // Sweep order once at Plan, so repeated Executes skip the sort.
    SortForSweep(r, &r_ids_);
    SortForSweep(s, &s_ids_);
    return Status::OK();
  }

  Status ExecuteImpl(const Dataset& r, const Dataset& s, JoinResult* out,
                     JoinStats* stats) override {
    PlaneSweepTileJoin(r, s, r_ids_, s_ids_, /*dedup_tile=*/nullptr, out,
                       stats);
    return Status::OK();
  }

 private:
  std::vector<ObjectId> r_ids_;
  std::vector<ObjectId> s_ids_;
};

// ---------------------------------------------------------------------------
// pbsm: 1-D stripes + per-stripe tile joins (Algorithm 3).
// ---------------------------------------------------------------------------

// The cached artifact of pbsm planning: the immutable stripe partition plus
// the options it was built under. PbsmJoin reads the partition const, so
// one plan serves concurrent warm executions.
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
  bool built = false;  // false for empty inputs: nothing to join
};

class PbsmEngine : public EngineBase {
 public:
  using EngineBase::EngineBase;

  Result<std::shared_ptr<const PreparedPlan>> Prepare(
      std::shared_ptr<const Dataset> r,
      std::shared_ptr<const Dataset> s) override {
    SWIFT_RETURN_IF_ERROR(PrepareChecks(*r, *s));
    auto plan = std::make_shared<PbsmPreparedPlan>(name(), r, s);
    if (!r->empty() && !s->empty()) {
      plan->options = OptionsFromConfig();
      plan->partition = PbsmPartition(*r, *s, plan->options);
      plan->built = true;
    }
    return std::shared_ptr<const PreparedPlan>(std::move(plan));
  }

  Status ExecutePrepared(const PreparedPlan& plan, JoinResult* out,
                         JoinStats* stats) override {
    auto typed = CheckPreparedPlan<PbsmPreparedPlan>(*this, plan, out);
    if (!typed.ok()) return typed.status();
    *out = JoinResult();
    if (!(*typed)->built) return Status::OK();
    *out = PbsmJoin(plan.r(), plan.s(), (*typed)->partition,
                    (*typed)->options, stats);
    return Status::OK();
  }

 protected:
  Status Validate() override {
    if (config().num_partitions < 1) {
      return Status::InvalidArgument("num_partitions must be >= 1");
    }
    return Status::OK();
  }

  Status PlanImpl(const Dataset& r, const Dataset& s) override {
    options_ = OptionsFromConfig();
    partition_ = PbsmPartition(r, s, options_);
    return Status::OK();
  }

  Status ExecuteImpl(const Dataset& r, const Dataset& s, JoinResult* out,
                     JoinStats* stats) override {
    *out = PbsmJoin(r, s, partition_, options_, stats);
    return Status::OK();
  }

 private:
  PbsmOptions OptionsFromConfig() const {
    PbsmOptions options;
    options.num_partitions = config().num_partitions;
    options.axis = config().axis;
    options.num_threads = config().num_threads;
    options.schedule = config().schedule;
    options.tile_join = config().tile_join;
    return options;
  }

  PbsmOptions options_;
  StripePartition partition_;
};

// ---------------------------------------------------------------------------
// cuspatial_like: quadtree-indexed point-in-polygon-MBR join.
// ---------------------------------------------------------------------------
class CuSpatialLikeEngine : public EngineBase {
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

  Status PlanImpl(const Dataset& r, const Dataset& s) override {
    (void)s;
    if (!r.IsPointDataset()) {
      // NotSupported, not InvalidArgument: the input is well-formed, this
      // engine just does not apply to it. Harnesses key expected skips on
      // the distinction (bench::SkipRow).
      return Status::NotSupported(
          "cuspatial_like requires R to be a point dataset (point-polygon "
          "orientation)");
    }
    return Status::OK();
  }

  Status ExecuteImpl(const Dataset& r, const Dataset& s, JoinResult* out,
                     JoinStats* stats) override {
    CuSpatialLikeOptions options;
    options.quadtree_leaf_capacity = config().quadtree_leaf_capacity;
    options.batch_size = config().batch_size;
    options.num_threads = config().num_threads;
    *out = CuSpatialLikeJoin(r, s, options, stats);
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// sync_traversal / parallel_sync_traversal: R-tree engines. Plan bulk-loads
// both trees (STR, the paper's default).
// ---------------------------------------------------------------------------

// The cached artifact of R-tree planning: both packed trees. Traversals
// only read the DRAM images, so one plan serves concurrent warm executions.
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

class RTreeEngineBase : public EngineBase {
 public:
  using EngineBase::EngineBase;

  Result<std::shared_ptr<const PreparedPlan>> Prepare(
      std::shared_ptr<const Dataset> r,
      std::shared_ptr<const Dataset> s) override {
    SWIFT_RETURN_IF_ERROR(PrepareChecks(*r, *s));
    auto plan = std::make_shared<RTreePreparedPlan>(name(), r, s);
    if (!r->empty() && !s->empty()) {
      BulkLoadOptions bl;
      bl.max_entries = config().node_capacity;
      bl.num_threads = config().num_threads;
      plan->r_tree.emplace(StrBulkLoad(*r, bl));
      plan->s_tree.emplace(StrBulkLoad(*s, bl));
    }
    return std::shared_ptr<const PreparedPlan>(std::move(plan));
  }

 protected:
  Status Validate() override {
    if (config().node_capacity < 2) {
      return Status::InvalidArgument("node_capacity must be >= 2");
    }
    return Status::OK();
  }

  Status PlanImpl(const Dataset& r, const Dataset& s) override {
    BulkLoadOptions bl;
    bl.max_entries = config().node_capacity;
    bl.num_threads = config().num_threads;
    r_tree_.emplace(StrBulkLoad(r, bl));
    s_tree_.emplace(StrBulkLoad(s, bl));
    return Status::OK();
  }

  std::optional<PackedRTree> r_tree_;
  std::optional<PackedRTree> s_tree_;
};

class SyncTraversalEngine : public RTreeEngineBase {
 public:
  using RTreeEngineBase::RTreeEngineBase;

  Status ExecutePrepared(const PreparedPlan& plan, JoinResult* out,
                         JoinStats* stats) override {
    auto typed = CheckPreparedPlan<RTreePreparedPlan>(*this, plan, out);
    if (!typed.ok()) return typed.status();
    *out = JoinResult();
    if (!(*typed)->r_tree.has_value()) return Status::OK();
    *out = config().bfs
               ? SyncTraversalBfs(*(*typed)->r_tree, *(*typed)->s_tree, stats)
               : SyncTraversalDfs(*(*typed)->r_tree, *(*typed)->s_tree,
                                  stats);
    return Status::OK();
  }

 protected:
  Status ExecuteImpl(const Dataset&, const Dataset&, JoinResult* out,
                     JoinStats* stats) override {
    *out = config().bfs ? SyncTraversalBfs(*r_tree_, *s_tree_, stats)
                        : SyncTraversalDfs(*r_tree_, *s_tree_, stats);
    return Status::OK();
  }
};

class ParallelSyncTraversalEngine : public RTreeEngineBase {
 public:
  using RTreeEngineBase::RTreeEngineBase;

  Status ExecutePrepared(const PreparedPlan& plan, JoinResult* out,
                         JoinStats* stats) override {
    auto typed = CheckPreparedPlan<RTreePreparedPlan>(*this, plan, out);
    if (!typed.ok()) return typed.status();
    *out = JoinResult();
    if (!(*typed)->r_tree.has_value()) return Status::OK();
    *out = ParallelSyncTraversal(*(*typed)->r_tree, *(*typed)->s_tree,
                                 TraversalOptions(), stats);
    return Status::OK();
  }

 protected:
  Status Validate() override {
    SWIFT_RETURN_IF_ERROR(RTreeEngineBase::Validate());
    if (config().dfs_switch_factor < 1) {
      return Status::InvalidArgument("dfs_switch_factor must be >= 1");
    }
    return Status::OK();
  }

  Status ExecuteImpl(const Dataset&, const Dataset&, JoinResult* out,
                     JoinStats* stats) override {
    *out = ParallelSyncTraversal(*r_tree_, *s_tree_, TraversalOptions(),
                                 stats);
    return Status::OK();
  }

 private:
  ParallelSyncTraversalOptions TraversalOptions() const {
    ParallelSyncTraversalOptions options;
    options.num_threads = config().num_threads;
    options.strategy = config().strategy;
    options.schedule = config().schedule;
    options.dfs_switch_factor = config().dfs_switch_factor;
    return options;
  }
};

// ---------------------------------------------------------------------------
// partitioned: the grid-sharded thread-pooled driver. The simd variant is
// the same driver locked to the batched SIMD filter kernel as its tile join,
// so the grid supplies thread scaling and the kernel supplies per-cell
// predicate throughput.
// ---------------------------------------------------------------------------
// The cached artifact of grid planning: the shared immutable cell plan
// (see PartitionedPlanState). ExecutePartitionedPlan reads it const with
// per-call accumulators, so one plan serves concurrent warm executions.
class PartitionedPreparedPlan : public PreparedPlan {
 public:
  using PreparedPlan::PreparedPlan;

  std::size_t MemoryBytes() const override {
    return state ? state->MemoryBytes() : 0;
  }

  std::shared_ptr<const PartitionedPlanState> state;  // null: empty inputs
};

class PartitionedEngine : public EngineBase {
 public:
  PartitionedEngine(std::string name, const EngineConfig& config)
      : EngineBase(std::move(name), config), tile_join_(config.tile_join) {}
  PartitionedEngine(std::string name, const EngineConfig& config,
                    TileJoin forced_tile_join)
      : EngineBase(std::move(name), config), tile_join_(forced_tile_join) {}

  Result<std::shared_ptr<const PreparedPlan>> Prepare(
      std::shared_ptr<const Dataset> r,
      std::shared_ptr<const Dataset> s) override {
    SWIFT_RETURN_IF_ERROR(PrepareChecks(*r, *s));
    auto plan = std::make_shared<PartitionedPreparedPlan>(name(), r, s);
    if (!r->empty() && !s->empty()) {
      auto state = PlanPartitionedCells(*r, *s, DriverOptions());
      if (!state.ok()) return state.status();
      plan->state = std::move(*state);
    }
    return std::shared_ptr<const PreparedPlan>(std::move(plan));
  }

  Status ExecutePrepared(const PreparedPlan& plan, JoinResult* out,
                         JoinStats* stats) override {
    auto typed = CheckPreparedPlan<PartitionedPreparedPlan>(*this, plan, out);
    if (!typed.ok()) return typed.status();
    *out = JoinResult();
    if ((*typed)->state == nullptr) return Status::OK();
    *out = ExecutePartitionedPlan(*(*typed)->state, plan.r(), plan.s(),
                                  tile_join_, config().num_threads, stats);
    return Status::OK();
  }

 protected:
  Status PlanImpl(const Dataset& r, const Dataset& s) override {
    driver_ = PartitionedDriver(DriverOptions());
    return driver_.Plan(r, s);
  }

  Status ExecuteImpl(const Dataset&, const Dataset&, JoinResult* out,
                     JoinStats* stats) override {
    *out = driver_.Execute(stats);
    return Status::OK();
  }

 private:
  PartitionedDriverOptions DriverOptions() const {
    PartitionedDriverOptions options;
    options.grid_cols = config().grid_cols;
    options.grid_rows = config().grid_rows;
    options.num_threads = config().num_threads;
    options.tile_join = tile_join_;
    return options;
  }

  TileJoin tile_join_;
  PartitionedDriver driver_;
};

// ---------------------------------------------------------------------------
// System-style baselines.
// ---------------------------------------------------------------------------
class InterpretedEngineAdapter : public EngineBase {
 public:
  using EngineBase::EngineBase;

 protected:
  Status Validate() override {
    if (config().index_max_entries < 2) {
      return Status::InvalidArgument("index_max_entries must be >= 2");
    }
    return Status::OK();
  }

  Status ExecuteImpl(const Dataset& r, const Dataset& s, JoinResult* out,
                     JoinStats* stats) override {
    InterpretedEngineOptions options;
    options.num_threads = config().num_threads;
    options.index_max_entries = config().index_max_entries;
    *out = InterpretedEngineJoin(r, s, options, stats);
    return Status::OK();
  }
};

class BigDataFrameworkAdapter : public EngineBase {
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

  Status ExecuteImpl(const Dataset& r, const Dataset& s, JoinResult* out,
                     JoinStats* stats) override {
    BigDataFrameworkOptions options;
    options.num_partitions = config().num_partitions;
    options.num_threads = config().num_threads;
    options.index_max_entries = config().index_max_entries;
    *out = BigDataFrameworkJoin(r, s, options, stats);
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Generic prepared-plan fallback for engines without native support: the
// plan owns a fully planned engine instance and serializes warm executions
// behind a mutex. Correct for every engine (repeated-Execute idempotence is
// pinned by the registry tests), at the cost of no warm concurrency --
// engines that matter for serving override Prepare natively instead.
// ---------------------------------------------------------------------------
class GenericPreparedPlan : public PreparedPlan {
 public:
  GenericPreparedPlan(std::string engine, std::shared_ptr<const Dataset> r,
                      std::shared_ptr<const Dataset> s,
                      std::unique_ptr<JoinEngine> planned)
      : PreparedPlan(std::move(engine), std::move(r), std::move(s)),
        planned_(std::move(planned)) {}

  std::size_t MemoryBytes() const override {
    // The planned artifacts are opaque; estimate proportional to the inputs
    // (id lists, tree entries, and partitions are all O(n)).
    return (r().size() + s().size()) * sizeof(Box);
  }

  Status Execute(JoinResult* out, JoinStats* stats) const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return planned_->Execute(out, stats);
  }

 private:
  mutable Mutex mu_;
  std::unique_ptr<JoinEngine> planned_ PT_GUARDED_BY(mu_);
};

template <typename Engine>
EngineFactory MakeFactory(const char* name) {
  return [name](const EngineConfig& config) -> std::unique_ptr<JoinEngine> {
    return std::make_unique<Engine>(name, config);
  };
}

}  // namespace

Result<std::shared_ptr<const PreparedPlan>> JoinEngine::Prepare(
    std::shared_ptr<const Dataset> r, std::shared_ptr<const Dataset> s) {
  (void)r;
  (void)s;
  // PrepareJoin turns this into the serialized generic fallback.
  return Status::NotSupported("engine " + name() +
                              " has no native prepared-plan support");
}

Status JoinEngine::ExecutePrepared(const PreparedPlan& plan, JoinResult* out,
                                   JoinStats* stats) {
  auto generic = CheckPreparedPlan<GenericPreparedPlan>(*this, plan, out);
  if (!generic.ok()) return generic.status();
  *out = JoinResult();
  return (*generic)->Execute(out, stats);
}

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
  if (r == nullptr || s == nullptr) {
    return Status::InvalidArgument("PrepareJoin requires non-null datasets");
  }
  auto created = EngineRegistry::Global().Create(engine, config);
  if (!created.ok()) return created.status();
  auto prepared = (*created)->Prepare(r, s);
  if (prepared.ok()) return prepared;
  if (prepared.status().code() != StatusCode::kNotSupported) {
    return prepared.status();
  }
  // Generic fallback: plan a dedicated instance and serialize warm
  // executions against it. The plan's base holds the datasets, so the
  // planned engine's raw pointers into them stay valid for the plan's
  // lifetime (members are destroyed before the base releases them).
  SWIFT_RETURN_IF_ERROR((*created)->Plan(*r, *s));
  return std::shared_ptr<const PreparedPlan>(
      std::make_shared<GenericPreparedPlan>(engine, std::move(r),
                                            std::move(s),
                                            std::move(*created)));
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
  SWIFT_RETURN_IF_ERROR(Plan(r, s));
  run.timing.plan_seconds = sw.ElapsedSeconds();
  sw.Reset();
  SWIFT_RETURN_IF_ERROR(Execute(&run.result, &run.stats));
  run.timing.execute_seconds = sw.ElapsedSeconds();
  // Stage timing per engine; handles resolve through the registry lock once
  // per Run, which is noise next to a full Plan+Execute.
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
    register_or_die(kPartitionedEngine, MakeFactory<PartitionedEngine>(
                                            kPartitionedEngine));
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
    // surface at Plan like every other engine.
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
    // surface at Plan.
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
  return factory(config);
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
