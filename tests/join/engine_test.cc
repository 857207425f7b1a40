// Tests for the unified JoinEngine API: registry lookup and registration,
// per-engine config validation through Status, stage timing, the
// Prepare -> ExecutePrepared lifecycle (repeated and concurrent executions
// of one plan, foreign plans), and the partitioned driver's plan functions
// (cross-cell duplicate elimination, thread-count determinism, lock-free
// merge).
#include "join/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "join/nested_loop.h"
#include "join/partitioned_driver.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(EngineRegistry, AllBuiltinsRegistered) {
  const std::vector<std::string> names = EngineRegistry::Global().Names();
  for (const char* expected :
       {kNestedLoopEngine, kPlaneSweepEngine, kPbsmEngine,
        kCuSpatialLikeEngine, kSyncTraversalEngine,
        kParallelSyncTraversalEngine, kPartitionedEngine, kSimdEngine,
        kAccelBfsEngine, kAccelPbsmEngine, kAccelPbsmMultiEngine,
        kDistPbsmEngine, kDistAccelEngine, kInterpretedEngineBaseline,
        kBigDataFrameworkBaseline}) {
    EXPECT_TRUE(std::count(names.begin(), names.end(), expected) == 1)
        << "missing builtin engine: " << expected;
    EXPECT_TRUE(EngineRegistry::Global().Contains(expected));
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(EngineRegistry, UnknownEngineIsNotFound) {
  const auto created = EngineRegistry::Global().Create("no_such_engine");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kNotFound);
  // The error lists the registered names so callers can self-diagnose.
  EXPECT_NE(created.status().message().find(kNestedLoopEngine),
            std::string::npos);

  const Dataset r = testutil::Uniform(8, 1);
  const auto run = RunJoin("no_such_engine", r, r);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
}

TEST(EngineRegistry, RejectsEmptyNameAndDuplicates) {
  EngineRegistry registry;
  EXPECT_EQ(registry
                .Register("", [](const EngineConfig&) {
                  return std::unique_ptr<JoinEngine>();
                })
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("x", nullptr).code(),
            StatusCode::kInvalidArgument);

  auto factory = [](const EngineConfig& config) {
    auto created = EngineRegistry::Global().Create(kNestedLoopEngine, config);
    return std::move(*created);
  };
  ASSERT_TRUE(registry.Register("x", factory).ok());
  EXPECT_EQ(registry.Register("x", factory).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(registry.Contains("x"));
}

TEST(EngineRegistry, CustomEngineRunsThroughRegistry) {
  EngineRegistry registry;
  ASSERT_TRUE(registry
                  .Register("alias_nested_loop",
                            [](const EngineConfig& config) {
                              auto created = EngineRegistry::Global().Create(
                                  kNestedLoopEngine, config);
                              return std::move(*created);
                            })
                  .ok());
  const Dataset r = testutil::Uniform(64, 7);
  const Dataset s = testutil::Uniform(64, 8);
  auto engine = registry.Create("alias_nested_loop");
  ASSERT_TRUE(engine.ok());
  auto run = (*engine)->Run(r, s);
  ASSERT_TRUE(run.ok());
  JoinResult expected = BruteForceJoin(r, s);
  EXPECT_TRUE(JoinResult::SameMultiset(expected, run->result));
}

// ---------------------------------------------------------------------------
// Config validation through Status.
// ---------------------------------------------------------------------------

TEST(EngineConfigValidation, RejectsBadConfigs) {
  const Dataset r = testutil::Uniform(16, 1);
  const Dataset s = testutil::Uniform(16, 2);

  struct Case {
    const char* engine;
    EngineConfig config;
  };
  std::vector<Case> cases;
  {
    EngineConfig c;
    c.num_threads = 0;  // every engine rejects this
    cases.push_back({kPartitionedEngine, c});
    cases.push_back({kPbsmEngine, c});
    cases.push_back({kNestedLoopEngine, c});
  }
  {
    EngineConfig c;
    c.num_partitions = 0;
    cases.push_back({kPbsmEngine, c});
    cases.push_back({kBigDataFrameworkBaseline, c});
  }
  {
    EngineConfig c;
    c.num_partitions = 16385;  // one past the grid cap
    cases.push_back({kPbsmEngine, c});
  }
  {
    EngineConfig c;
    c.node_capacity = 1;
    cases.push_back({kSyncTraversalEngine, c});
    cases.push_back({kParallelSyncTraversalEngine, c});
  }
  {
    EngineConfig c;
    c.dfs_switch_factor = 0;
    cases.push_back({kParallelSyncTraversalEngine, c});
  }
  {
    EngineConfig c;
    c.batch_size = 0;
    cases.push_back({kCuSpatialLikeEngine, c});
  }
  {
    EngineConfig c;
    c.grid_cols = 4;  // rows left 0: half-specified grid
    cases.push_back({kPartitionedEngine, c});
  }
  {
    EngineConfig c;
    c.grid_cols = c.grid_rows = 1 << 20;  // cols * rows would overflow int
    cases.push_back({kPartitionedEngine, c});
  }
  for (const Case& test_case : cases) {
    const auto run = RunJoin(test_case.engine, r, s, test_case.config);
    ASSERT_FALSE(run.ok()) << test_case.engine;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
        << test_case.engine << ": " << run.status().ToString();
  }
}

// Reject-at-ingest policy for malformed geometry: every engine refuses
// datasets containing NaN/infinite coordinates or inverted boxes at Plan
// time, instead of each algorithm (indexes, partitioners, dedup rule)
// meeting them with unspecified behaviour deep inside the join.
TEST(EngineConfigValidation, RejectsNonFiniteAndInvertedBoxes) {
  constexpr Coord kNaN = std::numeric_limits<Coord>::quiet_NaN();
  constexpr Coord kInf = std::numeric_limits<Coord>::infinity();
  const Dataset good("good", {Box(0, 0, 1, 1), Box(2, 2, 3, 3)});
  const std::vector<Dataset> bad = {
      Dataset("nan_min", {Box(0, 0, 1, 1), Box(kNaN, 0, 1, 1)}),
      Dataset("nan_max", {Box(0, 0, 1, kNaN)}),
      Dataset("pos_inf", {Box(0, 0, kInf, 1)}),
      Dataset("neg_inf", {Box(-kInf, 0, 1, 1)}),
      Dataset("inverted", {Box(5, 5, 3, 3)}),
  };
  for (const std::string& name : EngineRegistry::Global().Names()) {
    for (const Dataset& d : bad) {
      for (const bool bad_side_is_r : {true, false}) {
        const auto run = bad_side_is_r ? RunJoin(name, d, good)
                                       : RunJoin(name, good, d);
        ASSERT_FALSE(run.ok())
            << name << " accepted dataset " << d.name();
        EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
            << name << " on " << d.name() << ": " << run.status().ToString();
      }
    }
  }
}

TEST(EngineConfigValidation, ValidationCanBeDisabled) {
  // validate_inputs=false skips the scan; both the scalar predicate and the
  // SIMD kernel treat NaN comparisons as false (IEEE), so a NaN box simply
  // matches nothing in the predicate-only engines.
  constexpr Coord kNaN = std::numeric_limits<Coord>::quiet_NaN();
  const Dataset r("with_nan", {Box(0, 0, 1, 1), Box(kNaN, 0, 1, 1)});
  const Dataset s("good", {Box(0, 0, 2, 2)});
  EngineConfig config;
  config.validate_inputs = false;
  auto run = RunJoin(kNestedLoopEngine, r, s, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->result.size(), 1u);
  EXPECT_EQ(run->result.pairs()[0], (ResultPair{0, 0}));
}

TEST(EngineConfigValidation, CuSpatialRequiresPointR) {
  const Dataset rects = testutil::Uniform(32, 3);
  const auto run = RunJoin(kCuSpatialLikeEngine, rects, rects);
  ASSERT_FALSE(run.ok());
  // NotSupported (engine inapplicable to a well-formed input), which bench
  // harnesses treat as an expected skip rather than a failed row.
  EXPECT_EQ(run.status().code(), StatusCode::kNotSupported);
}

// ---------------------------------------------------------------------------
// ConfigFingerprint coverage.
// ---------------------------------------------------------------------------

// Converts to any type, so `T{AnyField{}, ...}` probes how many
// initializers aggregate initialization of T accepts: one per field.
struct AnyField {
  template <typename T>
  operator T() const;  // only named in unevaluated operands
};

template <typename T, typename... Fields>
constexpr std::size_t AggregateFieldCount(Fields... fields) {
  if constexpr (requires { T{fields..., AnyField{}}; }) {
    return AggregateFieldCount<T>(fields..., AnyField{});
  } else {
    return sizeof...(Fields);
  }
}

// Every EngineConfig field except `trace` is a planning input: changing it
// must change the fingerprint, or two configs that plan differently would
// share a plan-cache slot. The field count pins the list below, so adding
// a field fails here until it is both hashed and listed.
TEST(ConfigFingerprint, EveryPlanningFieldIsHashed) {
  const struct {
    const char* field;
    void (*mutate)(EngineConfig*);
  } kMutations[] = {
      {"num_threads", [](EngineConfig* c) { c->num_threads += 1; }},
      {"schedule", [](EngineConfig* c) { c->schedule = Schedule::kStatic; }},
      {"validate_inputs", [](EngineConfig* c) { c->validate_inputs = false; }},
      {"node_capacity", [](EngineConfig* c) { c->node_capacity += 1; }},
      {"bfs", [](EngineConfig* c) { c->bfs = true; }},
      {"strategy",
       [](EngineConfig* c) { c->strategy = TraversalStrategy::kBfsDfs; }},
      {"dfs_switch_factor", [](EngineConfig* c) { c->dfs_switch_factor += 1; }},
      {"num_partitions", [](EngineConfig* c) { c->num_partitions += 1; }},
      {"axis", [](EngineConfig* c) { c->axis = Axis::kY; }},
      {"tile_join", [](EngineConfig* c) { c->tile_join = TileJoin::kSimd; }},
      {"grid_cols", [](EngineConfig* c) { c->grid_cols += 1; }},
      {"grid_rows", [](EngineConfig* c) { c->grid_rows += 1; }},
      {"quadtree_leaf_capacity",
       [](EngineConfig* c) { c->quadtree_leaf_capacity += 1; }},
      {"batch_size", [](EngineConfig* c) { c->batch_size += 1; }},
      {"index_max_entries", [](EngineConfig* c) { c->index_max_entries += 1; }},
      {"accel_join_units", [](EngineConfig* c) { c->accel_join_units += 1; }},
      {"accel_tile_cap", [](EngineConfig* c) { c->accel_tile_cap += 1; }},
      {"accel_device_memory_bytes",
       [](EngineConfig* c) { c->accel_device_memory_bytes += 1; }},
      {"dist_nodes", [](EngineConfig* c) { c->dist_nodes += 1; }},
      {"dist_placement",
       [](EngineConfig* c) {
         c->dist_placement = dist::PlacementPolicy::kRoundRobin;
       }},
      {"dist_node_threads", [](EngineConfig* c) { c->dist_node_threads += 1; }},
  };
  constexpr std::size_t kFields = AggregateFieldCount<EngineConfig>();
  ASSERT_EQ(kFields, std::size(kMutations) + 1)  // + trace
      << "EngineConfig has " << kFields << " fields but " << std::size(kMutations)
      << " are listed: mix the new field into ConfigFingerprint and add its "
         "mutation here";

  const uint64_t base = ConfigFingerprint(EngineConfig{});
  std::set<uint64_t> fingerprints = {base};
  for (const auto& m : kMutations) {
    EngineConfig config;
    m.mutate(&config);
    const uint64_t fingerprint = ConfigFingerprint(config);
    EXPECT_NE(fingerprint, base) << m.field << " is not hashed";
    EXPECT_TRUE(fingerprints.insert(fingerprint).second)
        << m.field << " collides with another field's change";
  }

  // The trace context is request-scoped, not a planning input.
  obs::SpanBuffer buffer;
  EngineConfig traced;
  traced.trace = obs::TraceContext::StartTrace(&buffer);
  ASSERT_TRUE(traced.trace.active());
  EXPECT_EQ(ConfigFingerprint(traced), base);
}

// The R side engine `name` joins in the lifecycle tests: cuspatial_like
// gets a point R (the only orientation it supports).
const Dataset& RFor(const std::string& name, const Dataset& rects,
                    const Dataset& points) {
  return name == kCuSpatialLikeEngine ? points : rects;
}

// ExecutePrepared overwrites *out on every call: repeated executions of one
// plan must yield identical results for every engine, including the
// tile-join based ones whose implementations append into the output.
TEST(EngineLifecycle, RepeatedExecuteIsIdempotent) {
  const Dataset r = testutil::Uniform(128, 13);
  const Dataset points = testutil::UniformPoints(128, 15);
  const Dataset s = testutil::Uniform(128, 14);
  for (const std::string& name : EngineRegistry::Global().Names()) {
    auto engine = EngineRegistry::Global().Create(name);
    ASSERT_TRUE(engine.ok()) << name;
    auto plan =
        (*engine)->Prepare(BorrowDataset(RFor(name, r, points)),
                           BorrowDataset(s));
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    JoinResult first, second;
    ASSERT_TRUE((*engine)->ExecutePrepared(**plan, &second, nullptr).ok())
        << name;
    first = second;  // keep a copy; reuse `second` for the repeat call
    ASSERT_TRUE((*engine)->ExecutePrepared(**plan, &second, nullptr).ok())
        << name;
    EXPECT_TRUE(JoinResult::SameMultiset(first, second))
        << name << ": repeated ExecutePrepared diverged (" << first.size()
        << " vs " << second.size() << " pairs)";
  }
}

// One plan, four threads executing it at once (each through its own engine
// instance, as the plan cache's warm requests do): every result must equal
// the nested-loop multiset. Runs under TSan with the join_ suites.
TEST(EngineLifecycle, SharedPlanExecutesConcurrently) {
  const Dataset r = testutil::Uniform(200, 16);
  const Dataset points = testutil::UniformPoints(200, 18);
  const Dataset s = testutil::Skewed(200, 17);
  constexpr int kThreads = 4;
  for (const std::string& name : EngineRegistry::Global().Names()) {
    const Dataset& r_side = RFor(name, r, points);
    JoinResult expected = BruteForceJoin(r_side, s);
    EngineConfig config;
    config.num_threads = 2;
    auto plan =
        PrepareJoin(name, BorrowDataset(r_side), BorrowDataset(s), config);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();

    std::vector<Result<JoinRun>> runs(kThreads, Status::Internal("not run"));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { runs[t] = RunPreparedJoin(**plan, config); });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(runs[t].ok())
          << name << " thread " << t << ": " << runs[t].status().ToString();
      EXPECT_TRUE(JoinResult::SameMultiset(expected, runs[t]->result))
          << name << " thread " << t << ": expected " << expected.size()
          << " pairs, got " << runs[t]->result.size();
    }
  }
}

// A plan records the engine it was prepared for; every engine refuses a
// plan another engine prepared instead of misreading its artifacts.
TEST(EngineLifecycle, ForeignPlanIsRejected) {
  const Dataset r = testutil::Uniform(64, 19);
  const Dataset points = testutil::UniformPoints(64, 21);
  const Dataset s = testutil::Uniform(64, 20);
  const std::vector<std::string> names = EngineRegistry::Global().Names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    // The next engine in name order prepares the foreign plan.
    const std::string& preparer = names[(i + 1) % names.size()];
    auto foreign = PrepareJoin(
        preparer, BorrowDataset(RFor(preparer, r, points)), BorrowDataset(s));
    ASSERT_TRUE(foreign.ok()) << preparer << ": "
                              << foreign.status().ToString();
    auto engine = EngineRegistry::Global().Create(names[i]);
    ASSERT_TRUE(engine.ok()) << names[i];
    JoinResult out;
    const Status st = (*engine)->ExecutePrepared(**foreign, &out, nullptr);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << names[i] << " executing a plan prepared by " << preparer << ": "
        << st.ToString();
  }
}

TEST(EngineRun, ReportsStageTimingAndStats) {
  const Dataset r = testutil::Uniform(256, 11);
  const Dataset s = testutil::Uniform(256, 12);
  auto run = RunJoin(kSyncTraversalEngine, r, s);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->result.size(), 0u);
  EXPECT_GT(run->stats.predicate_evaluations, 0u);
  EXPECT_GE(run->timing.plan_seconds, 0.0);
  EXPECT_GE(run->timing.execute_seconds, 0.0);
  EXPECT_GE(run->timing.total_seconds(),
            run->timing.plan_seconds + run->timing.execute_seconds - 1e-12);
}

// ---------------------------------------------------------------------------
// PartitionedDriver: PlanPartitionedCells + ExecutePartitionedPlan.
// ---------------------------------------------------------------------------

// Plans (r, s) under `options` and executes the plan once.
JoinResult PlanAndExecute(const Dataset& r, const Dataset& s,
                          const PartitionedDriverOptions& options,
                          TileJoin tile_join = TileJoin::kPlaneSweep) {
  auto plan = PlanPartitionedCells(r, s, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return JoinResult();
  return ExecutePartitionedPlan(**plan, r, s, tile_join, options.num_threads,
                                nullptr);
}

// Objects spanning many cells must still be reported exactly once: the
// datasets use boxes large relative to the cell size so almost every pair is
// seen by several cells.
TEST(PartitionedDriver, EliminatesCrossCellDuplicates) {
  const Dataset r = testutil::Uniform(300, 21, /*map=*/100.0, /*max_edge=*/25.0);
  const Dataset s = testutil::Uniform(300, 22, /*map=*/100.0, /*max_edge=*/25.0);

  PartitionedDriverOptions options;
  options.grid_cols = 8;  // cell edge 12.5 < max box edge 25: heavy overlap
  options.grid_rows = 8;
  options.num_threads = 2;
  auto plan = PlanPartitionedCells(r, s, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->cols, 8);
  EXPECT_EQ((*plan)->rows, 8);
  EXPECT_GT((*plan)->cells.size(), 1u);

  JoinStats stats;
  JoinResult got = ExecutePartitionedPlan(**plan, r, s, TileJoin::kPlaneSweep,
                                          options.num_threads, &stats);
  EXPECT_GT(stats.tasks, 1u);

  // No pair may appear twice.
  got.Sort();
  const auto& pairs = got.pairs();
  EXPECT_TRUE(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end())
      << "duplicate pairs survived reference-point dedup";

  JoinResult expected = BruteForceJoin(r, s);
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
}

TEST(PartitionedDriver, MergeIsDeterministicAcrossThreadCounts) {
  const Dataset r = testutil::Uniform(500, 31, /*map=*/200.0, /*max_edge=*/8.0);
  const Dataset s = testutil::Uniform(500, 32, /*map=*/200.0, /*max_edge=*/8.0);

  std::vector<ResultPair> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    PartitionedDriverOptions options;
    options.num_threads = threads;
    JoinResult got = PlanAndExecute(r, s, options);
    got.Sort();
    if (reference.empty()) {
      reference = got.pairs();
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(got.pairs(), reference) << "threads=" << threads;
    }
  }
}

TEST(PartitionedDriver, TileJoinVariantsAgree) {
  const Dataset r = testutil::Uniform(400, 41);
  const Dataset s = testutil::Uniform(400, 42);
  JoinResult reference;
  for (const TileJoin tile_join :
       {TileJoin::kPlaneSweep, TileJoin::kNestedLoop, TileJoin::kSimd}) {
    PartitionedDriverOptions options;
    options.num_threads = 2;
    JoinResult got = PlanAndExecute(r, s, options, tile_join);
    if (tile_join == TileJoin::kPlaneSweep) {
      reference = std::move(got);
      EXPECT_GT(reference.size(), 0u);
    } else {
      EXPECT_TRUE(JoinResult::SameMultiset(reference, got))
          << TileJoinToString(tile_join);
    }
  }
}

TEST(PartitionedDriver, EmptyAndDisjointInputs) {
  const Dataset empty;
  const Dataset some = testutil::Uniform(10, 51);

  auto plan = PlanPartitionedCells(empty, some, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(PlanAndExecute(empty, some, {}).size(), 0u);
  EXPECT_EQ((*plan)->cells.size(), 0u);

  EXPECT_EQ(PlanAndExecute(some, empty, {}).size(), 0u);

  // Far-apart datasets: plenty of cells, zero co-populated ones.
  Dataset left("left", {Box(0, 0, 1, 1), Box(2, 2, 3, 3)});
  Dataset right("right", {Box(100, 100, 101, 101)});
  EXPECT_EQ(PlanAndExecute(left, right, {}).size(), 0u);
}

// The engine wrapper must agree with the nested-loop oracle and dedup under
// auto-sized grids too.
TEST(PartitionedEngine, AgreesWithOracleThroughRegistry) {
  const Dataset r = testutil::Uniform(600, 61);
  const Dataset s = testutil::Skewed(600, 62);
  EngineConfig config;
  config.num_threads = 4;
  auto run = RunJoin(kPartitionedEngine, r, s, config);
  ASSERT_TRUE(run.ok());
  JoinResult expected = BruteForceJoin(r, s);
  ASSERT_GT(expected.size(), 0u);  // the comparison must not be vacuous
  EXPECT_TRUE(JoinResult::SameMultiset(expected, run->result));
  EXPECT_GT(run->stats.tasks, 0u);
}

}  // namespace
}  // namespace swiftspatial
