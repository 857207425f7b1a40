// Cross-algorithm equivalence property test: every join implementation in
// the library -- CPU algorithms, system-style baselines, and the simulated
// accelerator in both modes -- must produce the identical result multiset on
// the same inputs, across dataset shapes and sizes. This is the library's
// strongest integration invariant.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "grid/hierarchical_partition.h"
#include "hw/accelerator.h"
#include "join/engine.h"
#include "join/engine_baselines.h"
#include "join/nested_loop.h"
#include "join/parallel_sync_traversal.h"
#include "join/sync_traversal.h"
#include "rtree/bulk_load.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

enum class Shape { kUniform, kSkewed, kMixed };

std::string ShapeName(Shape s) {
  switch (s) {
    case Shape::kUniform:
      return "Uniform";
    case Shape::kSkewed:
      return "Skewed";
    case Shape::kMixed:
      return "Mixed";
  }
  return "?";
}

class JoinEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Shape, int>> {
 protected:
  void SetUp() override {
    const auto [shape, scale] = GetParam();
    switch (shape) {
      case Shape::kUniform:
        r_ = testutil::Uniform(scale, 1000 + scale);
        s_ = testutil::Uniform(scale, 2000 + scale);
        break;
      case Shape::kSkewed:
        r_ = testutil::Skewed(scale, 3000 + scale);
        s_ = testutil::Skewed(scale, 4000 + scale);
        break;
      case Shape::kMixed:
        r_ = testutil::UniformPoints(scale, 5000 + scale);
        s_ = testutil::Skewed(scale, 6000 + scale);
        break;
    }
    expected_ = BruteForceJoin(r_, s_);
  }

  void Check(JoinResult got, const std::string& label) {
    EXPECT_TRUE(JoinResult::SameMultiset(expected_, got))
        << label << " diverges: expected " << expected_.size() << " pairs, got "
        << got.size();
  }

  Dataset r_, s_;
  JoinResult expected_;
};

TEST_P(JoinEquivalenceTest, AllAlgorithmsAgree) {
  BulkLoadOptions bl;
  bl.max_entries = 8;
  const PackedRTree rt = StrBulkLoad(r_, bl);
  const PackedRTree st = StrBulkLoad(s_, bl);

  Check(SyncTraversalDfs(rt, st), "SyncTraversalDfs");
  Check(SyncTraversalBfs(rt, st), "SyncTraversalBfs");

  ParallelSyncTraversalOptions pst;
  pst.num_threads = 2;
  Check(ParallelSyncTraversal(rt, st, pst), "ParallelSyncTraversal");

  EngineConfig pbsm;
  pbsm.num_partitions = 32;
  pbsm.num_threads = 2;
  auto pbsm_run = RunJoin(kPbsmEngine, r_, s_, pbsm);
  ASSERT_TRUE(pbsm_run.ok()) << pbsm_run.status().ToString();
  Check(std::move(pbsm_run->result), "pbsm");

  Check(InterpretedEngineJoin(r_, s_, {}), "InterpretedEngineJoin");

  BigDataFrameworkOptions bdf;
  bdf.num_partitions = 16;
  Check(BigDataFrameworkJoin(r_, s_, bdf), "BigDataFrameworkJoin");

  // Hilbert-loaded trees must agree with STR-loaded ones.
  BulkLoadOptions hil;
  hil.max_entries = 16;
  Check(SyncTraversalDfs(HilbertBulkLoad(r_, hil), HilbertBulkLoad(s_, hil)),
        "Hilbert trees");

  // Simulated accelerator, both control flows.
  hw::AcceleratorConfig acfg;
  acfg.num_join_units = 4;
  hw::Accelerator acc(acfg);
  JoinResult acc_sync;
  acc.RunSyncTraversal(rt, st, &acc_sync);
  Check(std::move(acc_sync), "Accelerator sync traversal");

  HierarchicalPartitionOptions hp;
  hp.tile_cap = 8;
  JoinResult acc_pbsm;
  acc.RunPbsm(r_, s_, PartitionHierarchical(r_, s_, hp), &acc_pbsm);
  Check(std::move(acc_pbsm), "Accelerator PBSM");
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndScales, JoinEquivalenceTest,
    ::testing::Combine(::testing::Values(Shape::kUniform, Shape::kSkewed,
                                         Shape::kMixed),
                       ::testing::Values(64, 512, 1500)),
    [](const ::testing::TestParamInfo<JoinEquivalenceTest::ParamType>& info) {
      return ShapeName(std::get<0>(info.param)) +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Registry-driven property oracle: every engine in the global registry is
// checked pair-wise against the nested-loop reference on random datasets at
// several densities, across thread counts 1/2/8. New engines registered in
// EngineRegistry::Global() are picked up automatically -- registering an
// algorithm is what opts it into the oracle.
// ---------------------------------------------------------------------------

/// cuSpatial's structure only supports point-in-polygon joins; every other
/// engine handles the general rectangle-rectangle case.
bool IsPointOnlyEngine(const std::string& name) {
  return name == kCuSpatialLikeEngine;
}

struct DensityCase {
  const char* label;
  double map_size;
  double max_edge;  // larger edges on the same map = denser joins
};

class EngineOracleTest : public ::testing::TestWithParam<DensityCase> {};

TEST_P(EngineOracleTest, EveryRegisteredEngineMatchesNestedLoop) {
  const DensityCase density = GetParam();
  const uint64_t scale = 400;
  const Dataset rects_r =
      testutil::Uniform(scale, 71, density.map_size, density.max_edge);
  const Dataset rects_s =
      testutil::Skewed(scale, 72, density.map_size);
  const Dataset points_r = testutil::UniformPoints(scale, 73, density.map_size);

  JoinResult rect_oracle = BruteForceJoin(rects_r, rects_s);
  JoinResult point_oracle = BruteForceJoin(points_r, rects_s);

  for (const std::string& name : EngineRegistry::Global().Names()) {
    const bool point_only = IsPointOnlyEngine(name);
    const Dataset& r = point_only ? points_r : rects_r;
    JoinResult& oracle = point_only ? point_oracle : rect_oracle;

    for (const std::size_t threads : {1u, 2u, 8u}) {
      EngineConfig config;
      config.num_threads = threads;
      config.num_partitions = 16;  // small stripes stress dedup at test scale
      auto run = RunJoin(name, r, rects_s, config);
      ASSERT_TRUE(run.ok()) << name << " threads=" << threads << ": "
                            << run.status().ToString();
      EXPECT_TRUE(JoinResult::SameMultiset(oracle, run->result))
          << name << " threads=" << threads << " density=" << density.label
          << ": expected " << oracle.size() << " pairs, got "
          << run->result.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Densities, EngineOracleTest,
    ::testing::Values(DensityCase{"Sparse", 4000.0, 4.0},
                      DensityCase{"Medium", 1000.0, 10.0},
                      DensityCase{"Dense", 300.0, 20.0}),
    [](const ::testing::TestParamInfo<DensityCase>& info) {
      return std::string(info.param.label);
    });

// Empty inputs and single-element datasets must be handled by every engine
// -- no crashes, no spurious pairs, and the one qualifying pair found.
TEST(EngineOracleEdgeCases, EmptyAndSingleElementInputs) {
  const Dataset empty;
  const Dataset one_rect("one", {Box(10, 10, 20, 20)});
  const Dataset touching("touch", {Box(20, 20, 30, 30)});  // shares a corner
  const Dataset disjoint("far", {Box(100, 100, 101, 101)});
  const Dataset one_point("pt", {Box(15, 15, 15, 15)});

  for (const std::string& name : EngineRegistry::Global().Names()) {
    const bool point_only = IsPointOnlyEngine(name);
    const Dataset& single_r = point_only ? one_point : one_rect;

    // Empty on either (or both) sides joins to the empty set.
    for (const auto& [r, s] : std::vector<std::pair<const Dataset*, const Dataset*>>{
             {&empty, &one_rect}, {&single_r, &empty}, {&empty, &empty}}) {
      auto run = RunJoin(name, *r, *s);
      ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
      EXPECT_EQ(run->result.size(), 0u) << name;
    }

    // Single overlapping pair: exactly one result, ids (0, 0).
    {
      auto run = RunJoin(name, single_r, one_rect);
      ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
      ASSERT_EQ(run->result.size(), 1u) << name;
      EXPECT_EQ(run->result.pairs()[0], (ResultPair{0, 0})) << name;
    }

    // Corner-touching rectangles intersect under closed-boundary semantics.
    if (!point_only) {
      auto run = RunJoin(name, one_rect, touching);
      ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
      EXPECT_EQ(run->result.size(), 1u) << name;
    }

    // Disjoint single elements: nothing.
    {
      auto run = RunJoin(name, single_r, disjoint);
      ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
      EXPECT_EQ(run->result.size(), 0u) << name;
    }
  }
}

// The warm half of the oracle: every engine's cached-plan path
// (PrepareJoin -> a fresh instance's ExecutePrepared, which is exactly what
// a DatasetRegistry cache hit runs) must reproduce the cold Plan+Execute
// multiset -- and keep reproducing it on repeat executions of the one
// shared plan. This is the proof that warm serving changes latency, never
// answers.
TEST(EngineOracleWarm, PreparedPlansMatchColdRunsForEveryEngine) {
  const uint64_t scale = 400;
  const Dataset rects_r = testutil::Uniform(scale, 81, 1000.0, 10.0);
  const Dataset rects_s = testutil::Skewed(scale, 82, 1000.0);
  const Dataset points_r = testutil::UniformPoints(scale, 83, 1000.0);

  for (const std::string& name : EngineRegistry::Global().Names()) {
    const bool point_only = IsPointOnlyEngine(name);
    const Dataset& r = point_only ? points_r : rects_r;

    for (const std::size_t threads : {1u, 4u}) {
      EngineConfig config;
      config.num_threads = threads;
      config.num_partitions = 16;
      auto cold = RunJoin(name, r, rects_s, config);
      ASSERT_TRUE(cold.ok()) << name << " threads=" << threads << ": "
                             << cold.status().ToString();

      auto plan =
          PrepareJoin(name, BorrowDataset(r), BorrowDataset(rects_s), config);
      ASSERT_TRUE(plan.ok()) << name << " threads=" << threads << ": "
                             << plan.status().ToString();
      for (int round = 0; round < 2; ++round) {
        auto warm = RunPreparedJoin(**plan, config);
        ASSERT_TRUE(warm.ok()) << name << " threads=" << threads << ": "
                               << warm.status().ToString();
        EXPECT_TRUE(JoinResult::SameMultiset(cold->result, warm->result))
            << name << " threads=" << threads << " round=" << round
            << ": cold " << cold->result.size() << " pairs, warm "
            << warm->result.size();
      }
    }
  }
}

}  // namespace
}  // namespace swiftspatial
