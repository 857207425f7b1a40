// Accelerator-engine adapter tests: registration, functional equivalence
// with the oracle, the Prepare-phase transfer accounting, the device report,
// and the streaming execute whose batches must concatenate to exactly the
// collected result. (The cross-algorithm equivalence oracle additionally
// covers all three engines because they are registered.)
#include "join/accel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "join/nested_loop.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

TEST(AccelEngine, AllThreeRegistered) {
  const std::vector<std::string> names = EngineRegistry::Global().Names();
  for (const char* expected :
       {kAccelBfsEngine, kAccelPbsmEngine, kAccelPbsmMultiEngine}) {
    EXPECT_EQ(std::count(names.begin(), names.end(), expected), 1)
        << "missing accelerator engine: " << expected;
    EXPECT_TRUE(IsAccelEngine(expected));
  }
  EXPECT_FALSE(IsAccelEngine(kPartitionedEngine));
}

TEST(AccelEngine, MakeAccelEngineRejectsNonAccelNames) {
  auto engine = MakeAccelEngine(kNestedLoopEngine, {});
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
}

TEST(AccelEngine, MatchesNestedLoopThroughRegistry) {
  const Dataset r = testutil::Uniform(300, 501);
  const Dataset s = testutil::Skewed(300, 502);
  JoinResult expected = BruteForceJoin(r, s);
  for (const char* name :
       {kAccelBfsEngine, kAccelPbsmEngine, kAccelPbsmMultiEngine}) {
    EngineConfig config;
    config.accel_join_units = 4;
    auto run = RunJoin(name, r, s, config);
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    EXPECT_TRUE(JoinResult::SameMultiset(expected, run->result)) << name;
    EXPECT_GT(run->stats.predicate_evaluations, 0u) << name;
  }
}

TEST(AccelEngine, ReportAndPlanAccounting) {
  const Dataset r = testutil::Uniform(400, 503);
  const Dataset s = testutil::Uniform(400, 504);
  for (const char* name : {kAccelBfsEngine, kAccelPbsmEngine}) {
    EngineConfig config;
    config.accel_join_units = 4;
    auto engine = MakeAccelEngine(name, config);
    ASSERT_TRUE(engine.ok());
    auto plan = (*engine)->Prepare(BorrowDataset(r), BorrowDataset(s));
    ASSERT_TRUE(plan.ok()) << name;
    // The plan already knows what the host must ship.
    const auto& image = dynamic_cast<const AccelPreparedPlan&>(**plan);
    EXPECT_GT(image.bytes_to_device, 0u) << name;

    JoinResult out;
    JoinStats stats;
    ASSERT_TRUE((*engine)->ExecutePrepared(**plan, &out, &stats).ok()) << name;
    const hw::AcceleratorReport& report = (*engine)->last_report();
    EXPECT_EQ(report.bytes_to_device, image.bytes_to_device)
        << name << ": Prepare-time transfer accounting must match the device "
        << "image the run actually shipped";
    EXPECT_EQ(report.num_results, out.size()) << name;
    EXPECT_GT(report.kernel_cycles, 0u) << name;
    EXPECT_GT(report.total_seconds, 0.0) << name;
    EXPECT_EQ(report.bytes_from_device, out.size() * sizeof(ResultPair))
        << name;
  }
}

TEST(AccelEngine, MultiDeviceShardsAcrossDevices) {
  // Uniform data spans all four quadrants of the 2x2 forced grid.
  const Dataset r = testutil::Uniform(500, 505);
  const Dataset s = testutil::Uniform(500, 506);
  EngineConfig config;
  config.accel_join_units = 4;
  auto engine = MakeAccelEngine(kAccelPbsmMultiEngine, config);
  ASSERT_TRUE(engine.ok());
  auto plan = (*engine)->Prepare(BorrowDataset(r), BorrowDataset(s));
  ASSERT_TRUE(plan.ok());
  JoinResult out;
  ASSERT_TRUE((*engine)->ExecutePrepared(**plan, &out, nullptr).ok());

  JoinResult expected = BruteForceJoin(r, s);
  EXPECT_TRUE(JoinResult::SameMultiset(expected, out));
  const hw::AcceleratorReport& report = (*engine)->last_report();
  EXPECT_EQ(report.num_results, out.size());
  // Aggregated over >1 shard: summed transfers exceed the largest shard's
  // in-use footprint, and concurrent kernels overlap (max, not sum).
  EXPECT_GT(report.bytes_to_device, report.device_bytes_used);
}

TEST(AccelEngine, ExecuteStreamingConcatenatesToExecuteResult) {
  const Dataset r = testutil::Uniform(400, 507, /*map=*/500.0,
                                      /*max_edge=*/15.0);
  const Dataset s = testutil::Uniform(400, 508, /*map=*/500.0,
                                      /*max_edge=*/15.0);
  for (const char* name :
       {kAccelBfsEngine, kAccelPbsmEngine, kAccelPbsmMultiEngine}) {
    EngineConfig config;
    config.accel_join_units = 4;
    auto engine = MakeAccelEngine(name, config);
    ASSERT_TRUE(engine.ok());
    auto plan = (*engine)->Prepare(BorrowDataset(r), BorrowDataset(s));
    ASSERT_TRUE(plan.ok()) << name;

    JoinResult collected;
    ASSERT_TRUE((*engine)->ExecutePrepared(**plan, &collected, nullptr).ok())
        << name;

    JoinResult streamed;
    std::size_t batches = 0;
    StreamTarget target;
    target.sink = [&](std::vector<ResultPair> batch) {
      EXPECT_FALSE(batch.empty()) << name;
      ++batches;
      auto& pairs = streamed.mutable_pairs();
      pairs.insert(pairs.end(), batch.begin(), batch.end());
    };
    Status st = (*engine)->ExecuteStreaming(**plan, target, nullptr);
    ASSERT_TRUE(st.ok()) << name << ": " << st.ToString();
    EXPECT_GT(batches, 1u) << name << ": expected multiple write-unit "
                           << "flushes at this result cardinality";
    EXPECT_TRUE(JoinResult::SameMultiset(collected, streamed)) << name;
  }
}

TEST(AccelEngine, ConfigValidationAtPlan) {
  const Dataset d = testutil::Uniform(20, 509);
  {
    EngineConfig config;
    config.accel_tile_cap = 0;
    auto run = RunJoin(kAccelPbsmEngine, d, d, config);
    EXPECT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;
    config.node_capacity = 1;
    auto run = RunJoin(kAccelBfsEngine, d, d, config);
    EXPECT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;
    config.accel_join_units = -1;
    auto run = RunJoin(kAccelBfsEngine, d, d, config);
    EXPECT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;
    config.accel_device_memory_bytes = 0;
    auto run = RunJoin(kAccelPbsmMultiEngine, d, d, config);
    EXPECT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AccelEngine, ExecuteStreamingRequiresSinkAndPlan) {
  const Dataset d = testutil::Uniform(20, 510);
  auto engine = MakeAccelEngine(kAccelPbsmEngine, {});
  ASSERT_TRUE(engine.ok());
  auto foreign = PrepareJoin(kAccelBfsEngine, BorrowDataset(d),
                             BorrowDataset(d));
  ASSERT_TRUE(foreign.ok());
  StreamTarget target;
  target.sink = [](std::vector<ResultPair>) {};
  EXPECT_EQ((*engine)->ExecuteStreaming(**foreign, target, nullptr).code(),
            StatusCode::kInvalidArgument);  // another engine's plan
  auto plan = (*engine)->Prepare(BorrowDataset(d), BorrowDataset(d));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*engine)->ExecuteStreaming(**plan, StreamTarget(), nullptr)
                .code(),
            StatusCode::kInvalidArgument);  // null sink
}

}  // namespace
}  // namespace swiftspatial
