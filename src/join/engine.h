// Unified join-engine API: every join algorithm in the library is exposed as
// a JoinEngine -- a Prepare -> ExecutePrepared pipeline with per-stage
// wall-clock timing -- and registered by name in an EngineRegistry, so
// benchmarks, tests, the FaaS service, and examples all select algorithms
// through one interface.
//
//   auto run = RunJoin("parallel_sync_traversal", r, s, config);
//   if (!run.ok()) ...;
//   run->result   -- the qualifying (r, s) id pairs
//   run->stats    -- predicate counts / task counts
//   run->timing   -- prepare (index/partition build) vs execute seconds
//
// Prepare covers everything the paper's Table 2 prices separately from the
// join proper (bulk loads, partitioning) and returns it as an immutable
// PreparedPlan; ExecutePrepared is the join itself, i.e. the quantity
// Figures 8-12 plot, and may run against one plan any number of times, from
// any number of threads. ExecuteStreaming is the same join handing its
// results to a sink in batches while it runs -- the one entry point of the
// streaming layer (exec/streaming.h). The registry is how the cross-algorithm
// equivalence oracle in tests/join/equivalence_test.cc enumerates every
// implementation without naming them individually.
#ifndef SWIFTSPATIAL_JOIN_ENGINE_H_
#define SWIFTSPATIAL_JOIN_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "datagen/dataset.h"
#include "dist/placement.h"
#include "join/parallel_sync_traversal.h"
#include "join/result.h"
#include "join/tile_join.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace swiftspatial {

/// The axis pbsm's stripes divide (EngineConfig::num_partitions).
enum class Axis { kX, kY };

/// One configuration struct shared by every registered engine. Engines read
/// only the fields that apply to them and reject invalid values from
/// Prepare with Status::InvalidArgument; unknown-to-them fields are ignored.
struct EngineConfig {
  // --- Shared across engines. ---
  std::size_t num_threads = 1;
  /// Wave scheduling, read only by parallel_sync_traversal. The
  /// partitioned driver (partitioned, simd, pbsm) runs its cell groups as a
  /// dynamic wave; it ignores this field.
  Schedule schedule = Schedule::kDynamic;
  /// Reject-at-ingest policy for malformed geometry: when true (the
  /// default), Prepare fails with InvalidArgument if either dataset contains a
  /// box with a NaN/infinite coordinate or an inverted (min > max) extent.
  /// The predicate paths (geometry::Intersects and the SIMD filter kernel)
  /// agree on such inputs -- IEEE comparisons against NaN are false in both
  /// -- but engines must not rely on that quirk: indexes, partitioners, and
  /// the reference-point dedup rule all assume valid boxes. Disable only for
  /// experiments that guarantee validity out of band.
  bool validate_inputs = true;

  // --- R-tree engines (sync_traversal, parallel_sync_traversal). ---
  /// Maximum entries per R-tree node (paper optimum: 16).
  int node_capacity = 16;
  /// sync_traversal: traverse breadth-first [33] instead of depth-first.
  bool bfs = false;
  /// parallel_sync_traversal strategy.
  TraversalStrategy strategy = TraversalStrategy::kBfs;
  std::size_t dfs_switch_factor = 10;

  // --- Partition engines (pbsm, partitioned). ---
  /// pbsm's stripe grid (1-D PBSM, §5.1): `num_partitions` equal stripes
  /// along `axis` -- a num_partitions x 1 grid for Axis::kX, 1 x
  /// num_partitions for Axis::kY -- in [1, 16384] (the grid cap).
  /// big_data_framework also reads num_partitions as its partition count.
  int num_partitions = 1024;
  Axis axis = Axis::kX;
  /// Tile-level join inside each stripe / grid cell.
  TileJoin tile_join = TileJoin::kPlaneSweep;
  /// partitioned: grid resolution; 0 = auto-sized from the input cardinality.
  int grid_cols = 0;
  int grid_rows = 0;

  // --- cuspatial_like. ---
  int quadtree_leaf_capacity = 128;
  std::size_t batch_size = 20000;

  // --- System-style baselines (interpreted_engine, big_data_framework). ---
  int index_max_entries = 16;

  // --- Simulated accelerator engines (accel-bfs, accel-pbsm,
  // accel-pbsm-4x; see join/accel_engine.h). ---
  /// Join units instantiated on the simulated device; 0 = the
  /// AcceleratorConfig default (the paper's 16).
  int accel_join_units = 0;
  /// Hierarchical-partition tile cap for the accel PBSM flows.
  int accel_tile_cap = 16;
  /// accel-pbsm-4x: per-device memory budget in bytes (the U250's 64 GB by
  /// default; small values force finer sharding).
  uint64_t accel_device_memory_bytes = 64ULL << 30;

  // --- Distributed cluster engines (dist-pbsm, dist-accel; see
  // dist/dist_engine.h). ---
  /// Cluster size (simulated in-process nodes).
  int dist_nodes = 4;
  /// Shard -> node placement policy.
  dist::PlacementPolicy dist_placement =
      dist::PlacementPolicy::kCostBalanced;
  /// Worker threads per node; 0 = split num_threads evenly across the
  /// cluster (at least 1 per node).
  std::size_t dist_node_threads = 0;

  // --- Observability (src/obs/). ---
  /// Request-scoped trace context: set by JoinService per request (or by
  /// callers invoking engines directly) and propagated through producers,
  /// wave slots, and dist exchange messages. Deliberately EXCLUDED
  /// from ConfigFingerprint: two configs differing only in trace context
  /// plan identically and must share plan-cache entries.
  obs::TraceContext trace;
};

/// Per-stage wall-clock timings filled in by JoinEngine::Run.
struct StageTiming {
  /// Index builds / partitioning (Table 2's "construction" column).
  double plan_seconds = 0;
  /// The join itself (what Figures 8-12 plot).
  double execute_seconds = 0;

  double total_seconds() const { return plan_seconds + execute_seconds; }
};

/// Everything a finished join run reports.
struct JoinRun {
  JoinResult result;
  JoinStats stats;
  StageTiming timing;
};

/// The immutable output of Prepare, detached from the engine instance that
/// built it: packed R-trees, grid cell assignments, shard plans, device
/// images. A PreparedPlan pins the datasets it was planned over (shared
/// ownership), so a cached plan can outlive the request that built it, and
/// every engine reads its plan const, so one plan serves concurrent
/// executions. This is the seam the warm-serving plan cache
/// (exec/dataset_registry) stores.
class PreparedPlan {
 public:
  PreparedPlan(std::string engine, std::shared_ptr<const Dataset> r,
               std::shared_ptr<const Dataset> s)
      : r_(std::move(r)), s_(std::move(s)), engine_(std::move(engine)) {}
  virtual ~PreparedPlan() = default;

  /// The engine name the plan was prepared for; ExecutePrepared on any
  /// other engine rejects it.
  const std::string& engine() const { return engine_; }
  const Dataset& r() const { return *r_; }
  const Dataset& s() const { return *s_; }
  const std::shared_ptr<const Dataset>& r_ptr() const { return r_; }
  const std::shared_ptr<const Dataset>& s_ptr() const { return s_; }

  /// Rough resident footprint of the planned artifacts (excluding the
  /// datasets themselves), for cache byte accounting.
  virtual std::size_t MemoryBytes() const = 0;

 private:
  // Declared first so every subclass's artifacts (which may reference the
  // datasets) are destroyed before the datasets are released.
  std::shared_ptr<const Dataset> r_;
  std::shared_ptr<const Dataset> s_;
  std::string engine_;
};

/// The plan of an engine that builds nothing ahead of the join
/// (nested_loop, cuspatial_like, the system-style baselines,
/// accel-pbsm-4x): the pinned inputs and nothing else.
class InputsOnlyPlan final : public PreparedPlan {
 public:
  using PreparedPlan::PreparedPlan;
  std::size_t MemoryBytes() const override { return 0; }
};

/// Wraps a stack- or caller-owned Dataset in a non-owning shared_ptr for
/// Prepare. The dataset must outlive every plan prepared over it.
inline std::shared_ptr<const Dataset> BorrowDataset(const Dataset& d) {
  return std::shared_ptr<const Dataset>(std::shared_ptr<const Dataset>(),
                                        &d);
}

class GridSideStore;  // join/partitioned_driver.h

/// One side of a join as Prepare receives it. A bare dataset converts
/// implicitly (the borrowed path: RunJoin, BorrowDataset), and Prepare then
/// scans it and builds every artifact fresh. The warm-serving registry
/// (exec/dataset_registry) also hands over the facts its Put computed and
/// its store of the dataset's grid halves, so Prepare neither rescans the
/// data nor rebuilds a half it already holds.
struct JoinInput {
  JoinInput(std::shared_ptr<const Dataset> dataset)  // NOLINT(runtime/explicit)
      : data(std::move(dataset)) {}

  std::shared_ptr<const Dataset> data;
  /// data->Scan(), when already known; Prepare fills it otherwise.
  std::optional<DatasetStats> stats;
  /// Cache of this dataset version's grid halves, valid for the duration of
  /// Prepare; null builds them fresh.
  GridSideStore* grid_sides = nullptr;
};

/// Receives result batches from JoinEngine::ExecuteStreaming. Batches are
/// non-empty; over a successful run their concatenation is exactly the
/// ExecutePrepared result multiset.
using BatchSink = std::function<void(std::vector<ResultPair>)>;

/// Where ExecuteStreaming delivers, and what it runs under.
struct StreamTarget {
  /// May be called concurrently from wave slots.
  BatchSink sink;
  /// Pairs an engine stages before handing a batch to the sink; engines
  /// that produce in their own units (write-unit bursts, committed shards,
  /// a finished result) ignore it.
  std::size_t chunk_pairs = 8192;
  /// What the engine's waves run under: the pool (null: the process-wide
  /// one), the stream's cancellation (engines that observe it stop early
  /// and return Aborted, and the delivered batches stay a prefix) and the
  /// request's resource accounting. The trace is the engine's own
  /// (EngineConfig::trace).
  WaveContext wave;
};

/// Stable 64-bit fingerprint over every EngineConfig field, part of the
/// plan-cache key: two configs that could plan differently must fingerprint
/// differently. (New EngineConfig fields must be added to the hash -- see
/// the implementation's field list.)
uint64_t ConfigFingerprint(const EngineConfig& config);

/// A spatial-join algorithm behind the two-stage Prepare -> ExecutePrepared
/// interface.
///
/// Lifecycle: create (via EngineRegistry::Create), Prepare once, then
/// ExecutePrepared one or more times against the returned plan -- which is
/// what lets benchmarks time the join proper without re-paying index
/// builds, and the plan cache share one plan across requests. Prepare
/// validates the configuration and the input geometry and builds any
/// auxiliary structures (R-trees, grids, device images).
/// An engine instance is not thread-safe (the typed accel/dist handles keep
/// a per-instance last report); a plan is, so concurrent executions use one
/// engine instance each. Internally engines parallelise as waves
/// (common/thread_pool.h) of width `EngineConfig::num_threads`.
class JoinEngine {
 public:
  virtual ~JoinEngine() = default;

  /// The name the engine was registered under, e.g. "pbsm".
  virtual const std::string& name() const = 0;

  /// The engine's fail-fast configuration check: everything Prepare
  /// rejects without looking at the data (InvalidArgument). Prepare runs
  /// it first; the streaming factories run it before admitting a stream.
  virtual Status Validate() { return Status::OK(); }

  /// Validates config + inputs and builds indexes/partitions into an
  /// immutable plan that holds shared ownership of both datasets. Parallel
  /// builds run as waves on `wave.pool` (null: the process-wide pool),
  /// billed to `wave.usage`; Prepare never cancels, so a plan is built
  /// whole or not at all.
  virtual Result<std::shared_ptr<const PreparedPlan>> Prepare(
      JoinInput r, JoinInput s, const WaveContext& wave = {}) = 0;

  /// Runs the join against a plan this engine's name prepared
  /// (InvalidArgument otherwise). `*out` is overwritten; `*stats` (when
  /// non-null) accumulates across calls. Repeated executions of one plan
  /// yield the same multiset.
  virtual Status ExecutePrepared(const PreparedPlan& plan, JoinResult* out,
                                 JoinStats* stats) = 0;

  /// Runs the join against `plan`, handing results to `target.sink` in
  /// batches while it runs (InvalidArgument for a null sink). The default
  /// runs ExecutePrepared and hands over the finished result as one batch;
  /// engines with a native batch granularity override it. `*stats` (when
  /// non-null) accumulates.
  virtual Status ExecuteStreaming(const PreparedPlan& plan,
                                  const StreamTarget& target,
                                  JoinStats* stats);

  /// Convenience: Prepare over borrowed (r, s), then ExecutePrepared, with
  /// per-stage timing. `r` and `s` need only outlive the call.
  Result<JoinRun> Run(const Dataset& r, const Dataset& s);
};

/// Factory invoked by the registry; receives the caller's configuration.
using EngineFactory =
    std::function<std::unique_ptr<JoinEngine>(const EngineConfig&)>;

/// Name -> factory registry. `Global()` returns the process-wide instance,
/// pre-populated with every built-in engine (see kBuiltinEngines). New
/// engines (plugins, experiments) register at startup:
///
///   EngineRegistry::Global().Register("my_join", [](const EngineConfig& c) {
///     return std::make_unique<MyJoin>(c);
///   });
class EngineRegistry {
 public:
  /// The process-wide registry with all built-in engines registered.
  static EngineRegistry& Global();

  /// Registers a factory. Fails with InvalidArgument on empty names or
  /// AlreadyExists-style collisions (reported as InvalidArgument).
  Status Register(const std::string& name, EngineFactory factory)
      EXCLUDES(mu_);

  bool Contains(const std::string& name) const EXCLUDES(mu_);

  /// Instantiates engine `name`, or NotFound listing the known engines
  /// (Internal if its factory returns no engine).
  Result<std::unique_ptr<JoinEngine>> Create(
      const std::string& name, const EngineConfig& config = {}) const
      EXCLUDES(mu_);

  /// Sorted names of all registered engines.
  std::vector<std::string> Names() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, EngineFactory> factories_ GUARDED_BY(mu_);
};

/// One-call convenience: instantiate `engine` from the global registry, then
/// Run it (Prepare + ExecutePrepared) with timing.
Result<JoinRun> RunJoin(const std::string& engine, const Dataset& r,
                        const Dataset& s, const EngineConfig& config = {});

/// Builds a PreparedPlan for `engine` (a global-registry name) over (r, s):
/// instantiate, then Prepare. The returned plan is immutable, shareable
/// across threads, and holds shared ownership of both datasets.
Result<std::shared_ptr<const PreparedPlan>> PrepareJoin(
    const std::string& engine, JoinInput r, JoinInput s,
    const EngineConfig& config = {}, const WaveContext& wave = {});

/// Warm-path convenience: instantiate the plan's engine from the global
/// registry and ExecutePrepared with timing. plan_seconds is what the warm
/// path saves -- it covers only engine instantiation, not planning, and is
/// ~0 for every engine. Safe to call from many threads on one plan.
Result<JoinRun> RunPreparedJoin(const PreparedPlan& plan,
                                const EngineConfig& config = {});

// Built-in engine names (all registered in EngineRegistry::Global()).
inline constexpr const char* kNestedLoopEngine = "nested_loop";
inline constexpr const char* kPlaneSweepEngine = "plane_sweep";
inline constexpr const char* kPbsmEngine = "pbsm";
inline constexpr const char* kCuSpatialLikeEngine = "cuspatial_like";
inline constexpr const char* kSyncTraversalEngine = "sync_traversal";
inline constexpr const char* kParallelSyncTraversalEngine =
    "parallel_sync_traversal";
inline constexpr const char* kPartitionedEngine = "partitioned";
inline constexpr const char* kSimdEngine = "simd";
inline constexpr const char* kInterpretedEngineBaseline = "interpreted_engine";
inline constexpr const char* kBigDataFrameworkBaseline = "big_data_framework";
/// The simulated accelerator behind the same Prepare -> ExecutePrepared
/// interface:
/// BFS R-tree synchronous traversal (accel-bfs, §3.4.1), the tile-pair join
/// over a hierarchical partition (accel-pbsm, §3.4.2), and the sharded
/// multi-device PBSM variant (accel-pbsm-4x, §6). Declared in
/// join/accel_engine.h, which also exposes their device report.
inline constexpr const char* kAccelBfsEngine = "accel-bfs";
inline constexpr const char* kAccelPbsmEngine = "accel-pbsm";
inline constexpr const char* kAccelPbsmMultiEngine = "accel-pbsm-4x";
/// The in-process simulated cluster (src/dist/): grid shards placed on N
/// nodes, per-shard results streamed over bounded exchange links to a merge
/// coordinator, node failures recovered by shard re-execution. dist-pbsm
/// joins shards on CPU workers; dist-accel fronts one simulated device per
/// shard (accel-pbsm-4x generalised to N x M). Declared in
/// dist/dist_engine.h, which also exposes their run report.
inline constexpr const char* kDistPbsmEngine = "dist-pbsm";
inline constexpr const char* kDistAccelEngine = "dist-accel";

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_ENGINE_H_
