// DatasetRegistry + plan-artifact cache: registration/versioning semantics,
// warm lookups returning the one shared PreparedPlan, version-bump
// invalidation (with in-flight plans pinning their data), byte-budget LRU
// eviction, and -- the tentpole correctness claim -- warm executions
// bit-identical to cold Plan+Execute across engine families, including
// under concurrent lookups (the TSan job runs this file).
#include "exec/dataset_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/dist_engine.h"
#include "grid/uniform_grid.h"
#include "join/engine.h"
#include "join/partitioned_driver.h"
#include "tests/test_util.h"

namespace swiftspatial::exec {
namespace {

Dataset Side(uint64_t seed) { return testutil::Uniform(300, seed); }

// Bytes of the grid half the default-configured grid planner builds for
// `d` in the join of (r, s) -- what the registry stores next to the plan.
std::size_t HalfBytes(const Dataset& d, const Dataset& r, const Dataset& s) {
  const JoinGridSpec spec = DeriveJoinGrid(r.Scan(), s.Scan(), 0, 0);
  const UniformGrid grid(spec.extent, spec.cols, spec.rows);
  return BuildGridSide(d, grid, 1)->MemoryBytes();
}

TEST(DatasetRegistry, PutGetRoundTripWithVersionBumpAndStats) {
  DatasetRegistry registry;
  const DatasetHandle h1 = registry.Put("roads", Side(1));
  EXPECT_EQ(h1.name, "roads");
  EXPECT_EQ(h1.version, 1u);

  auto resident = registry.Get("roads");
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ(resident->version, 1u);
  EXPECT_EQ(resident->dataset->size(), 300u);
  EXPECT_EQ(resident->stats.count, 300u);

  // Re-registration bumps the version; the handle pins the exact data.
  const DatasetHandle h2 = registry.Put("roads", Side(2));
  EXPECT_EQ(h2.version, 2u);
  auto updated = registry.Get("roads");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->version, 2u);

  EXPECT_EQ(registry.Names(), std::vector<std::string>{"roads"});
  auto missing = registry.Get("buildings");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(DatasetRegistry, GetOrPrepareCachesAndSharesOnePlan) {
  const Dataset r = Side(11);
  const Dataset s = Side(12);
  DatasetRegistry registry;
  registry.Put("r", r);
  registry.Put("s", s);
  EngineConfig config;
  config.num_threads = 2;

  auto cold = registry.GetOrPrepare(kPartitionedEngine, "r", "s", config);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = registry.GetOrPrepare(kPartitionedEngine, "r", "s", config);
  ASSERT_TRUE(warm.ok());
  // Warm lookups return the identical shared artifact, not a rebuild.
  EXPECT_EQ(cold->get(), warm->get());

  const PlanCacheStats stats = registry.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // The plan's cells plus the two halves it pairs, each counted once.
  EXPECT_EQ(stats.resident_bytes, (*cold)->MemoryBytes() +
                                      HalfBytes(r, r, s) + HalfBytes(s, r, s));
  EXPECT_EQ(stats.side_misses, 2u);
  EXPECT_EQ(stats.side_hits, 0u);

  auto unknown = registry.GetOrPrepare(kPartitionedEngine, "r", "nope");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

// A half holds 12 bytes per entry and one offset per tile boundary, with no
// per-tile vectors and no spare capacity, and the registry charges exactly
// that, so registry.plan_bytes counts what the halves hold.
TEST(DatasetRegistry, HalfBytesAreTwelvePerEntryPlusOffsets) {
  const Dataset r = Side(13);
  const Dataset s = Side(14);
  const JoinGridSpec spec = DeriveJoinGrid(r.Scan(), s.Scan(), 0, 0);
  const UniformGrid grid(spec.extent, spec.cols, spec.rows);
  const auto exact_bytes = [&grid](const Dataset& d) {
    std::size_t entries = 0;
    for (const std::vector<ObjectId>& ids : grid.Assign(d)) {
      entries += ids.size();
    }
    const auto tiles = static_cast<std::size_t>(grid.num_tiles());
    return sizeof(GridSide) + entries * 12 + (tiles + 1) * sizeof(std::size_t);
  };
  EXPECT_EQ(BuildGridSide(r, grid, 2)->MemoryBytes(), exact_bytes(r));
  EXPECT_EQ(BuildGridSide(s, grid, 1)->MemoryBytes(), exact_bytes(s));

  DatasetRegistry registry;
  registry.Put("r", r);
  registry.Put("s", s);
  auto plan = registry.GetOrPrepare(kPartitionedEngine, "r", "s");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(registry.plan_cache_stats().resident_bytes,
            (*plan)->MemoryBytes() + exact_bytes(r) + exact_bytes(s));
}

// The tentpole oracle: for every engine family -- native prepared plans
// (grid, R-tree, stripes, shards) and the generic planned-engine fallback
// -- executing the cached plan warm produces the identical result multiset
// as a cold Plan+Execute, and repeat warm executions stay identical
// (repeated-Execute idempotence through the prepared seam).
TEST(DatasetRegistry, WarmExecutionBitIdenticalToColdAcrossEngines) {
  const Dataset r = Side(21);
  const Dataset s = testutil::Skewed(300, 22);
  DatasetRegistry registry;
  registry.Put("r", r);
  registry.Put("s", s);
  EngineConfig config;
  config.num_threads = 2;
  config.num_partitions = 8;

  for (const char* engine :
       {kPartitionedEngine, kPbsmEngine, kSyncTraversalEngine,
        kParallelSyncTraversalEngine, kNestedLoopEngine, kDistPbsmEngine}) {
    auto cold = RunJoin(engine, r, s, config);
    ASSERT_TRUE(cold.ok()) << engine << ": " << cold.status().ToString();

    auto plan = registry.GetOrPrepare(engine, "r", "s", config);
    ASSERT_TRUE(plan.ok()) << engine << ": " << plan.status().ToString();
    for (int round = 0; round < 2; ++round) {
      auto warm = RunPreparedJoin(**plan, config);
      ASSERT_TRUE(warm.ok()) << engine << ": " << warm.status().ToString();
      EXPECT_TRUE(JoinResult::SameMultiset(cold->result, warm->result))
          << engine << " round " << round << ": cold " << cold->result.size()
          << " pairs, warm " << warm->result.size();
      // The warm path's entire point: plan_seconds covers only engine
      // instantiation, not planning.
      EXPECT_LT(warm->timing.plan_seconds, 0.05) << engine;
    }
  }
}

TEST(DatasetRegistry, VersionBumpInvalidatesButInFlightPlansStayUsable) {
  const Dataset r = Side(31);
  const Dataset old_s = Side(32);
  DatasetRegistry registry;
  registry.Put("r", r);
  registry.Put("s", old_s);
  EngineConfig config;
  config.num_threads = 2;

  auto old_plan = registry.GetOrPrepare(kPartitionedEngine, "r", "s", config);
  ASSERT_TRUE(old_plan.ok());
  auto old_cold = RunJoin(kPartitionedEngine, Side(31), old_s, config);
  ASSERT_TRUE(old_cold.ok());

  // Re-register "s": the cached plan is invalidated immediately...
  const Dataset new_s = Side(33);
  registry.Put("s", new_s);
  PlanCacheStats stats = registry.plan_cache_stats();
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(stats.entries, 0u);
  // Only r's half, which the new version of s does not touch, stays.
  EXPECT_EQ(stats.resident_bytes, HalfBytes(r, r, old_s));

  // ...so the next lookup is a miss that plans over the new version...
  auto new_plan = registry.GetOrPrepare(kPartitionedEngine, "r", "s", config);
  ASSERT_TRUE(new_plan.ok());
  EXPECT_NE(old_plan->get(), new_plan->get());
  auto new_cold = RunJoin(kPartitionedEngine, Side(31), new_s, config);
  ASSERT_TRUE(new_cold.ok());
  auto new_warm = RunPreparedJoin(**new_plan, config);
  ASSERT_TRUE(new_warm.ok());
  EXPECT_TRUE(JoinResult::SameMultiset(new_cold->result, new_warm->result));

  // ...while the plan a request already holds keeps working and still
  // joins the data it was planned over (shared_ptr pinning).
  auto old_warm = RunPreparedJoin(**old_plan, config);
  ASSERT_TRUE(old_warm.ok());
  EXPECT_TRUE(JoinResult::SameMultiset(old_cold->result, old_warm->result));
}

TEST(DatasetRegistry, ConfigAndEngineKeySeparateCacheEntries) {
  DatasetRegistry registry;
  registry.Put("r", Side(41));
  registry.Put("s", Side(42));
  EngineConfig a;
  a.num_threads = 2;
  EngineConfig b = a;
  b.grid_cols = 7;
  b.grid_rows = 7;

  ASSERT_TRUE(registry.GetOrPrepare(kPartitionedEngine, "r", "s", a).ok());
  ASSERT_TRUE(registry.GetOrPrepare(kPartitionedEngine, "r", "s", b).ok());
  ASSERT_TRUE(registry.GetOrPrepare(kPbsmEngine, "r", "s", a).ok());
  const PlanCacheStats stats = registry.plan_cache_stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(DatasetRegistry, ByteBudgetEvictsLeastRecentlyUsed) {
  DatasetRegistryOptions options;
  options.max_plan_bytes = 1;  // pathologically small: keep-newest only
  DatasetRegistry registry(options);
  registry.Put("r", Side(51));
  registry.Put("s", Side(52));
  EngineConfig a;
  a.num_threads = 1;
  EngineConfig b = a;
  b.grid_cols = 5;
  b.grid_rows = 5;

  auto first = registry.GetOrPrepare(kPartitionedEngine, "r", "s", a);
  ASSERT_TRUE(first.ok());
  auto second = registry.GetOrPrepare(kPartitionedEngine, "r", "s", b);
  ASSERT_TRUE(second.ok());
  const PlanCacheStats stats = registry.plan_cache_stats();
  EXPECT_EQ(stats.entries, 1u);  // never below one entry
  EXPECT_EQ(stats.evictions, 1u);

  // The evicted artifact a caller still holds remains fully usable.
  auto run = RunPreparedJoin(**first, a);
  ASSERT_TRUE(run.ok());

  // Re-requesting the evicted key is a fresh miss, not a corrupt hit.
  auto again = registry.GetOrPrepare(kPartitionedEngine, "r", "s", a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(registry.plan_cache_stats().misses, 3u);
}

// Pins a dataset's extent to the [0, 1000]^2 map, so every version of R
// spans the same joint extent with S and the join keeps one grid spec.
Dataset Anchored(uint64_t seed) {
  Dataset d = Side(seed);
  d.mutable_boxes().push_back(Box(0, 0, 0, 0));
  d.mutable_boxes().push_back(Box(1000, 1000, 1000, 1000));
  return d;
}

// The update_osm shape: a new version of R re-plans R's half only; S's half
// is reused, and the re-planned join is the fresh join of the new data.
TEST(DatasetRegistry, PutOfOneSideReusesTheOtherSidesHalf) {
  const Dataset r1 = Anchored(101);
  const Dataset r2 = Anchored(102);
  const Dataset s = Anchored(103);
  DatasetRegistry registry;
  registry.Put("r", r1);
  registry.Put("s", s);
  EngineConfig config;
  config.num_threads = 2;
  ASSERT_TRUE(registry.GetOrPrepare(kPartitionedEngine, "r", "s", config).ok());
  PlanCacheStats stats = registry.plan_cache_stats();
  EXPECT_EQ(stats.side_misses, 2u);
  EXPECT_EQ(stats.side_hits, 0u);

  registry.Put("r", r2);
  auto plan = registry.GetOrPrepare(kPartitionedEngine, "r", "s", config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  stats = registry.plan_cache_stats();
  EXPECT_EQ(stats.side_misses, 3u);  // R v2's half only
  EXPECT_EQ(stats.side_hits, 1u);    // S's half, reused
  auto warm = RunPreparedJoin(**plan, config);
  ASSERT_TRUE(warm.ok());
  auto cold = RunJoin(kPartitionedEngine, r2, s, config);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(JoinResult::SameMultiset(cold->result, warm->result));

  // Halves are in sweep order for every tile join, so simd pairs the same
  // two halves instead of building its own.
  auto simd = registry.GetOrPrepare(kSimdEngine, "r", "s", config);
  ASSERT_TRUE(simd.ok()) << simd.status().ToString();
  stats = registry.plan_cache_stats();
  EXPECT_EQ(stats.side_misses, 3u);
  EXPECT_EQ(stats.side_hits, 3u);
  auto simd_run = RunPreparedJoin(**simd, config);
  ASSERT_TRUE(simd_run.ok());
  EXPECT_TRUE(JoinResult::SameMultiset(cold->result, simd_run->result));
}

// The dist engines shard the same cell plan, so they take their halves from
// the registry too: a new version of R re-plans dist-pbsm with S's half
// reused, and the plan's bytes hold no copy of the halves' id lists.
TEST(DatasetRegistry, DistEnginesShareTheRegistryHalves) {
  const Dataset r1 = Anchored(121);
  const Dataset r2 = Anchored(122);
  const Dataset s = Anchored(123);
  DatasetRegistry registry;
  registry.Put("r", r1);
  registry.Put("s", s);
  EngineConfig config;
  config.num_threads = 2;
  ASSERT_TRUE(registry.GetOrPrepare(kDistPbsmEngine, "r", "s", config).ok());
  PlanCacheStats stats = registry.plan_cache_stats();
  EXPECT_EQ(stats.side_misses, 2u);
  EXPECT_EQ(stats.side_hits, 0u);

  registry.Put("r", r2);
  auto plan = registry.GetOrPrepare(kDistPbsmEngine, "r", "s", config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  stats = registry.plan_cache_stats();
  EXPECT_EQ(stats.side_misses, 3u);  // R v2's half only
  EXPECT_EQ(stats.side_hits, 1u);    // S's half, reused
  EXPECT_EQ(stats.resident_bytes, (*plan)->MemoryBytes() +
                                      HalfBytes(r2, r2, s) +
                                      HalfBytes(s, r2, s));
  auto warm = RunPreparedJoin(**plan, config);
  ASSERT_TRUE(warm.ok());
  auto cold = RunJoin(kPartitionedEngine, r2, s, config);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(JoinResult::SameMultiset(cold->result, warm->result));

  // dist-accel pairs the same two halves.
  auto accel = registry.GetOrPrepare(kDistAccelEngine, "r", "s", config);
  ASSERT_TRUE(accel.ok()) << accel.status().ToString();
  EXPECT_EQ(registry.plan_cache_stats().side_hits, 3u);
  auto accel_run = RunPreparedJoin(**accel, config);
  ASSERT_TRUE(accel_run.ok());
  EXPECT_TRUE(JoinResult::SameMultiset(cold->result, accel_run->result));
}

TEST(DatasetRegistry, VersionBumpDropsOnlyThatDatasetsHalves) {
  const Dataset r = Anchored(111);
  const Dataset s = Anchored(112);
  const Dataset t = Anchored(113);
  DatasetRegistry registry;
  registry.Put("r", r);
  registry.Put("s", s);
  registry.Put("t", t);
  EngineConfig config;
  config.num_threads = 2;
  auto rs = registry.GetOrPrepare(kPartitionedEngine, "r", "s", config);
  auto ts = registry.GetOrPrepare(kPartitionedEngine, "t", "s", config);
  ASSERT_TRUE(rs.ok() && ts.ok());
  // (t, s) spans the same extent as (r, s): s's half is shared.
  PlanCacheStats stats = registry.plan_cache_stats();
  EXPECT_EQ(stats.side_misses, 3u);
  EXPECT_EQ(stats.side_hits, 1u);
  const std::size_t rs_bytes = (*rs)->MemoryBytes();
  const std::size_t ts_bytes = (*ts)->MemoryBytes();
  EXPECT_EQ(stats.resident_bytes, rs_bytes + ts_bytes + HalfBytes(r, r, s) +
                                      HalfBytes(s, r, s) + HalfBytes(t, t, s));

  // Re-registering r drops r's half and the (r, s) plan; the (t, s) plan
  // and both halves it pairs stay.
  registry.Put("r", Anchored(114));
  stats = registry.plan_cache_stats();
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes,
            ts_bytes + HalfBytes(s, r, s) + HalfBytes(t, t, s));
  ASSERT_TRUE(registry.GetOrPrepare(kPartitionedEngine, "t", "s", config).ok());
  EXPECT_EQ(registry.plan_cache_stats().hits, 1u);
}

// Halves share the plans' budget. A half is evicted once no resident plan
// or running request holds it (dropping a held one would free nothing).
TEST(DatasetRegistry, ByteBudgetEvictsHalves) {
  const Dataset r = Side(121);
  const Dataset s = Side(122);
  DatasetRegistryOptions options;
  options.max_plan_bytes = 1;  // keep-newest only
  EngineConfig a;
  a.num_threads = 1;
  EngineConfig b = a;
  b.grid_cols = 5;
  b.grid_rows = 5;

  {
    // Nothing holds the first plan: the second evicts it and then its
    // halves, so re-planning the first spec builds both halves again.
    DatasetRegistry registry(options);
    registry.Put("r", r);
    registry.Put("s", s);
    ASSERT_TRUE(registry.GetOrPrepare(kPartitionedEngine, "r", "s", a).ok());
    ASSERT_TRUE(registry.GetOrPrepare(kPartitionedEngine, "r", "s", b).ok());
    auto again = registry.GetOrPrepare(kSimdEngine, "r", "s", a);
    ASSERT_TRUE(again.ok());
    const PlanCacheStats stats = registry.plan_cache_stats();
    EXPECT_EQ(stats.side_misses, 6u);
    EXPECT_EQ(stats.side_hits, 0u);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.entries, 1u);
    // Left: the newest plan and the two halves it pairs.
    EXPECT_EQ(stats.resident_bytes, (*again)->MemoryBytes() +
                                        HalfBytes(r, r, s) +
                                        HalfBytes(s, r, s));
  }
  {
    // A caller holds the first plan: the second still evicts the plan, but
    // its halves stay stored and the next plan on that spec reuses them.
    DatasetRegistry registry(options);
    registry.Put("r", r);
    registry.Put("s", s);
    auto held = registry.GetOrPrepare(kPartitionedEngine, "r", "s", a);
    ASSERT_TRUE(held.ok());
    ASSERT_TRUE(registry.GetOrPrepare(kPartitionedEngine, "r", "s", b).ok());
    EXPECT_EQ(registry.plan_cache_stats().evictions, 1u);
    ASSERT_TRUE(registry.GetOrPrepare(kSimdEngine, "r", "s", a).ok());
    const PlanCacheStats stats = registry.plan_cache_stats();
    EXPECT_EQ(stats.side_misses, 4u);
    EXPECT_EQ(stats.side_hits, 2u);
  }
}

// Put scans once and keeps the validity verdict; Prepare enforces it with
// the same status a borrowed join gets.
TEST(DatasetRegistry, InvalidBoxFailsGetOrPrepareWithTheScanStatus) {
  const Dataset bad("bad", {Box(0, 0, 1, 1), Box(5, 5, 1, 1)});
  DatasetRegistry registry;
  registry.Put("bad", bad);
  registry.Put("s", Side(131));
  auto plan = registry.GetOrPrepare(kPartitionedEngine, "bad", "s");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.status().message(),
            "dataset \"bad\": box 1 is inverted (min > max): " +
                Box(5, 5, 1, 1).ToString());
  auto borrowed = RunJoin(kPartitionedEngine, bad, Side(131));
  ASSERT_FALSE(borrowed.ok());
  EXPECT_EQ(borrowed.status().ToString(), plan.status().ToString());

  // The policy stays the request's: opting out skips the check.
  EngineConfig unchecked;
  unchecked.validate_inputs = false;
  EXPECT_TRUE(
      registry.GetOrPrepare(kNestedLoopEngine, "bad", "s", unchecked).ok());
}

// Put scans outside the registry lock: a writer re-registering a 1M-box
// dataset in a loop must not hold up warm lookups of an unrelated pair. The
// bound is relative to the measured Put, so it holds under sanitizers too;
// a scan under the lock makes the lookups' p95 about a whole Put.
TEST(DatasetRegistry, PutDoesNotBlockWarmLookups) {
  DatasetRegistry registry;
  registry.Put("r", Side(141));
  registry.Put("s", Side(142));
  ASSERT_TRUE(registry.GetOrPrepare(kPartitionedEngine, "r", "s").ok());
  const Dataset big = testutil::Uniform(1'000'000, 143);

  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // One round: 8 Puts against open-loop lookups, one due every 100 us and
  // each timed from when it was due -- a lookup stuck behind a scan under
  // the lock makes every arrival during the scan late, not just the one
  // that hit it. Lateness that arose outside the lookups (this thread
  // preempted while it waited for the next arrival) is not the registry's:
  // the schedule restarts there. Returns lookup p95 / median Put.
  const auto round = [&]() -> double {
    std::atomic<bool> done{false};
    std::vector<double> put_s;
    std::thread writer([&] {
      for (int i = 0; i < 8; ++i) {
        Dataset copy = big;
        const auto start = Clock::now();
        registry.Put("big", std::move(copy));
        put_s.push_back(seconds_since(start));
      }
      done = true;
    });
    std::vector<double> lookup_s;
    bool lookups_ok = true;
    Clock::time_point due = Clock::now();
    Clock::time_point last_end = due;
    while (!done) {
      due += std::chrono::microseconds(100);
      while (Clock::now() < due) {
      }
      if (last_end <= due) due = Clock::now();
      lookups_ok &= registry.GetOrPrepare(kPartitionedEngine, "r", "s").ok();
      last_end = Clock::now();
      lookup_s.push_back(seconds_since(due));
    }
    writer.join();
    EXPECT_TRUE(lookups_ok);
    EXPECT_GE(lookup_s.size(), 20u);
    std::sort(put_s.begin(), put_s.end());
    std::sort(lookup_s.begin(), lookup_s.end());
    return lookup_s[lookup_s.size() * 95 / 100] / put_s[put_s.size() / 2];
  };
  // The best of three rounds: a lock held across the scan slows every
  // round, while preemption inside a lookup slows only some.
  double best = round();
  for (int i = 0; i < 2; ++i) best = std::min(best, round());
  EXPECT_LT(best, 0.25) << "lookup p95 / median Put";
}

// Race coverage for the TSan job: concurrent warm lookups and executions of
// one cached plan, overlapping a cold miss, must be data-race-free and all
// produce the identical multiset.
TEST(DatasetRegistry, ConcurrentWarmLookupsAndExecutionsAreRaceFree) {
  const Dataset r = Side(61);
  const Dataset s = Side(62);
  DatasetRegistry registry;
  registry.Put("r", r);
  registry.Put("s", s);
  EngineConfig config;
  config.num_threads = 2;
  auto cold = RunJoin(kPartitionedEngine, r, s, config);
  ASSERT_TRUE(cold.ok());

  constexpr int kThreads = 8;
  std::vector<JoinRun> runs(kThreads);
  std::vector<Status> statuses(kThreads, Status::OK());
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto plan = registry.GetOrPrepare(kPartitionedEngine, "r", "s", config);
      if (!plan.ok()) {
        statuses[i] = plan.status();
        return;
      }
      auto run = RunPreparedJoin(**plan, config);
      if (!run.ok()) {
        statuses[i] = run.status();
        return;
      }
      runs[i] = std::move(*run);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
    EXPECT_TRUE(JoinResult::SameMultiset(cold->result, runs[i].result)) << i;
  }
  // However the misses raced, exactly one plan won the insert.
  EXPECT_EQ(registry.plan_cache_stats().entries, 1u);
}

// TSan stress: GetOrPrepare racing byte-budget LRU eviction AND version
// bumps, all at maximum churn (a budget that evicts on every insert, and a
// writer re-registering "s" mid-flight). Invariants under fire: every
// returned plan stays fully usable regardless of being invalidated or
// evicted while held (shared_ptr pinning), every execution produces the
// exact cold multiset (the bumper re-Puts identical data, so results must
// never change), and once the race quiesces exactly one insert owns each
// key -- a repeat lookup shares the winner pointer instead of replanning.
TEST(DatasetRegistry, StressGetOrPrepareRacingEvictionAndVersionBump) {
  const Dataset r = Side(81);
  const Dataset s = Side(82);
  EngineConfig config;
  config.num_threads = 1;
  auto cold = RunJoin(kPartitionedEngine, r, s, config);
  ASSERT_TRUE(cold.ok());

  DatasetRegistryOptions options;
  options.max_plan_bytes = 1;  // keep-newest only: every insert evicts
  DatasetRegistry registry(options);
  registry.Put("r", r);
  registry.Put("s", s);

  constexpr int kThreads = 6;
  constexpr int kIterations = 8;
  std::vector<Status> statuses(kThreads, Status::OK());
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Private copy of the oracle: SameMultiset sorts both sides in place,
      // so sharing one reference across threads would race in the test.
      JoinResult oracle = cold->result;
      // Two alternating configs per thread: distinct cache keys contending
      // for a one-entry budget, so lookups constantly evict each other.
      EngineConfig mine = config;
      for (int iter = 0; iter < kIterations; ++iter) {
        mine.grid_cols = (iter % 2 == 0) ? 0 : 4 + i;
        mine.grid_rows = mine.grid_cols;
        auto plan = registry.GetOrPrepare(kPartitionedEngine, "r", "s", mine);
        if (!plan.ok()) {
          statuses[i] = plan.status();
          return;
        }
        // Execute while eviction/invalidation may have already dropped the
        // cache entry: the held plan must keep working and keep joining the
        // data it was planned over.
        auto run = RunPreparedJoin(**plan, mine);
        if (!run.ok()) {
          statuses[i] = run.status();
          return;
        }
        if (!JoinResult::SameMultiset(oracle, run->result)) {
          statuses[i] = Status::Internal("stress run diverged from cold");
          return;
        }
      }
    });
  }
  // The version bumper: re-registers "s" with identical data while lookups
  // and executions are in flight. Every bump invalidates all cached plans
  // mentioning "s", so misses, insert races, eviction, and invalidation all
  // overlap.
  std::thread bumper([&] {
    for (int b = 0; b < 5; ++b) registry.Put("s", s);
  });
  for (auto& t : threads) t.join();
  bumper.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
  }

  // Quiescent: one miss re-plans at the final version, then a repeat lookup
  // must share that exact winner (one insert per key, no silent replans).
  auto final_plan = registry.GetOrPrepare(kPartitionedEngine, "r", "s", config);
  ASSERT_TRUE(final_plan.ok());
  auto repeat = registry.GetOrPrepare(kPartitionedEngine, "r", "s", config);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(final_plan->get(), repeat->get());
  EXPECT_EQ(registry.plan_cache_stats().entries, 1u);
}

TEST(DatasetRegistry, EmptyDatasetsPrepareAndExecuteSafely) {
  DatasetRegistry registry;
  registry.Put("empty", Dataset());
  registry.Put("s", Side(71));

  for (const char* engine :
       {kPartitionedEngine, kPbsmEngine, kSyncTraversalEngine,
        kNestedLoopEngine}) {
    auto plan = registry.GetOrPrepare(engine, "empty", "s");
    ASSERT_TRUE(plan.ok()) << engine << ": " << plan.status().ToString();
    auto run = RunPreparedJoin(**plan);
    ASSERT_TRUE(run.ok()) << engine << ": " << run.status().ToString();
    EXPECT_EQ(run->result.size(), 0u) << engine;
  }
}

}  // namespace
}  // namespace swiftspatial::exec
