// Distributed join correctness: every node count x placement policy must
// reproduce the brute-force multiset (cross-node reference-point dedup),
// including at ULP-collided grid edges (the determinism_test regime ported
// to the cluster); node failure mid-join must re-execute shards on
// survivors with dedup-identical results; cancellation mid-exchange must
// leave a well-defined delivered prefix of whole shards; and the dist-*
// engines must behave through the registry and the async streaming layer.
#include "dist/dist_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "dist/dist_engine.h"
#include "exec/streaming.h"
#include "join/engine.h"
#include "join/nested_loop.h"
#include "tests/test_util.h"

namespace swiftspatial::dist {
namespace {

using ShardMap = std::map<int, std::vector<ResultPair>>;

ShardSink CollectInto(ShardMap* map) {
  return [map](int shard_id, std::vector<ResultPair> pairs) {
    auto& dst = (*map)[shard_id];
    dst.insert(dst.end(), pairs.begin(), pairs.end());
  };
}

TEST(DistributedJoin, EveryNodeCountAndPolicyMatchesBruteForce) {
  const Dataset r = testutil::Uniform(600, 51);
  const Dataset s = testutil::Skewed(600, 52);
  JoinResult expected = BruteForceJoin(r, s);

  for (const int nodes : {1, 2, 4, 8}) {
    for (const PlacementPolicy policy :
         {PlacementPolicy::kRoundRobin, PlacementPolicy::kCostBalanced,
          PlacementPolicy::kLocality}) {
      DistJoinOptions options;
      options.num_nodes = nodes;
      options.placement = policy;
      options.node_worker_threads = 2;
      JoinResult got;
      auto report = DistributedJoin(r, s, options, &got);
      ASSERT_TRUE(report.ok())
          << nodes << " nodes, " << PlacementPolicyToString(policy) << ": "
          << report.status().ToString();
      EXPECT_TRUE(JoinResult::SameMultiset(expected, got))
          << nodes << " nodes, " << PlacementPolicyToString(policy)
          << ": expected " << expected.size() << " pairs, got "
          << got.size();
      EXPECT_EQ(report->num_results, got.size());
      EXPECT_EQ(report->nodes, static_cast<std::size_t>(nodes));
      EXPECT_EQ(report->failed_nodes, 0u);
      EXPECT_EQ(report->retried_shards, 0u);
    }
  }
}

TEST(DistributedJoin, AccelNodesMatchBruteForce) {
  const Dataset r = testutil::Uniform(300, 53);
  const Dataset s = testutil::Uniform(300, 54);
  JoinResult expected = BruteForceJoin(r, s);

  DistJoinOptions options;
  options.num_nodes = 3;
  options.use_accel = true;
  options.accel_join_units = 2;
  JoinResult got;
  JoinStats stats;
  auto report = DistributedJoin(r, s, options, &got, &stats);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
  EXPECT_GT(stats.predicate_evaluations, 0u);
  // Every node that executed shards reports modelled device time.
  double device_seconds = 0;
  for (const NodeStats& ns : report->node_stats) {
    device_seconds += ns.device_seconds;
  }
  EXPECT_GT(device_seconds, 0.0);
}

// The [2^24, 2^24+8] edge-collapse regime from tests/hw/determinism_test.cc
// ported to the cluster: a 16x16 grid over an 8-wide extent collapses runs
// of ~4 tile edges onto one representable float, and those collapsed-edge
// shards land on *different nodes*. Multi-assignment plus the shared
// CloseLastTile reference-point convention must still claim every
// boundary pair exactly once across the cluster, under every placement.
TEST(DistributedJoin, UlpCollidedGridEdgesClaimBoundaryPairsOnceAcrossNodes) {
  const Coord base = 16777216.0f;  // 2^24
  std::vector<Box> boxes;
  for (int i = 0; i <= 4; ++i) {
    const Coord gx = base + static_cast<Coord>(2 * i);
    for (int j = 0; j <= 4; ++j) {
      const Coord gy = base + static_cast<Coord>(2 * j);
      boxes.push_back(Box(gx, gy, gx, gy));
    }
    boxes.push_back(Box(gx, base + 1, gx, base + 3));  // vertical straddler
    boxes.push_back(Box(base + 1, gx, base + 3, gx));  // horizontal
  }
  const Dataset r("ulp_r", std::vector<Box>(boxes));
  const Dataset s("ulp_s", std::move(boxes));
  JoinResult expected = BruteForceJoin(r, s);
  ASSERT_GT(expected.size(), r.size());  // edge-touching pairs exist

  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kCostBalanced,
        PlacementPolicy::kLocality}) {
    DistJoinOptions options;
    options.num_nodes = 4;
    options.placement = policy;
    options.grid_cols = 16;  // forces the collapsed-edge grid
    options.grid_rows = 16;
    JoinResult got;
    auto report = DistributedJoin(r, s, options, &got);
    ASSERT_TRUE(report.ok()) << PlacementPolicyToString(policy) << ": "
                             << report.status().ToString();
    EXPECT_TRUE(JoinResult::SameMultiset(expected, got))
        << PlacementPolicyToString(policy) << ": expected "
        << expected.size() << " pairs, got " << got.size()
        << " (double-claim or drop at a collapsed edge)";
  }
}

// Node failure mid-join: the dead node's uncommitted shards re-execute on
// survivors and the merged multiset is identical to a failure-free run --
// no duplicated pairs from the partially-transmitted shard, nothing lost.
TEST(DistributedJoin, NodeFailureRetriesAreDedupIdenticalToFailureFreeRun) {
  const Dataset r = testutil::Uniform(800, 55);
  const Dataset s = testutil::Uniform(800, 56);

  DistJoinOptions options;
  options.num_nodes = 4;
  options.grid_cols = 6;
  options.grid_rows = 6;
  options.chunk_pairs = 16;  // several chunks per shard: partial delivery

  JoinResult clean;
  auto clean_report = DistributedJoin(r, s, options, &clean);
  ASSERT_TRUE(clean_report.ok());
  ASSERT_GT(clean_report->shards, 8u);

  options.fault.fail_node = 0;
  options.fault.fail_after_shards = 2;  // dies mid-transmission of shard 3
  ShardMap delivered;
  JoinResult faulty;
  auto report =
      DistributedJoin(r, s, options, &faulty, nullptr,
                      CollectInto(&delivered));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->failed_nodes, 1u);
  EXPECT_GT(report->retried_shards, 0u);
  ASSERT_TRUE(report->node_stats[0].failed);
  EXPECT_TRUE(JoinResult::SameMultiset(clean, faulty))
      << "retried shards diverged: clean " << clean.size() << " pairs, "
      << "with failure " << faulty.size();

  // Retries actually ran on survivors, and each shard id was delivered to
  // the sink exactly once (the ShardMap would have merged duplicates, so
  // cross-check the total).
  std::size_t retried_on_survivors = 0;
  for (std::size_t n = 1; n < report->node_stats.size(); ++n) {
    retried_on_survivors += report->node_stats[n].shards_retried;
  }
  EXPECT_EQ(retried_on_survivors, report->retried_shards);
  std::size_t sink_pairs = 0;
  for (const auto& [id, pairs] : delivered) sink_pairs += pairs.size();
  EXPECT_EQ(sink_pairs, faulty.size());
}

TEST(DistributedJoin, FailureOnAccelNodesIsAlsoExact) {
  const Dataset r = testutil::Uniform(300, 57);
  const Dataset s = testutil::Uniform(300, 58);
  JoinResult expected = BruteForceJoin(r, s);

  DistJoinOptions options;
  options.num_nodes = 3;
  options.use_accel = true;
  options.accel_join_units = 2;
  options.grid_cols = 4;
  options.grid_rows = 4;
  options.fault.fail_node = 1;
  options.fault.fail_after_shards = 1;
  JoinResult got;
  auto report = DistributedJoin(r, s, options, &got);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->failed_nodes, 1u);
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
}

TEST(DistributedJoin, EveryNodeFailingIsAnError) {
  const Dataset r = testutil::Uniform(200, 59);
  const Dataset s = testutil::Uniform(200, 60);
  DistJoinOptions options;
  options.num_nodes = 1;
  options.fault.fail_node = 0;
  options.fault.fail_after_shards = 0;  // dies on its first shard
  JoinResult got;
  auto report = DistributedJoin(r, s, options, &got);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal)
      << report.status().ToString();
}

// Cancellation mid-exchange: the sink's delivered shards are a well-defined
// prefix -- whole shards only, each bit-identical to the same shard of an
// uncancelled run, no partial or duplicated shard delivery -- and the run
// reports Aborted.
TEST(DistributedJoin, CancellationMidExchangeDeliversWholeShardPrefix) {
  const Dataset r = testutil::Uniform(1000, 61, /*map=*/500.0,
                                      /*max_edge=*/15.0);
  const Dataset s = testutil::Uniform(1000, 62, /*map=*/500.0,
                                      /*max_edge=*/15.0);

  DistJoinOptions options;
  options.num_nodes = 4;
  options.grid_cols = 8;
  options.grid_rows = 8;

  ShardMap full;
  auto full_report =
      DistributedJoin(r, s, options, nullptr, nullptr, CollectInto(&full));
  ASSERT_TRUE(full_report.ok());
  ASSERT_GT(full.size(), 8u);

  exec::CancellationSource cancel;
  ShardMap delivered;
  std::size_t commits_seen = 0;
  const ShardSink cancelling_sink = [&](int shard_id,
                                        std::vector<ResultPair> pairs) {
    CollectInto(&delivered)(shard_id, std::move(pairs));
    if (++commits_seen == 3) cancel.Cancel();  // mid-exchange
  };
  auto report = DistributedJoin(r, s, options, nullptr, nullptr,
                                cancelling_sink, cancel.token());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kAborted)
      << report.status().ToString();

  EXPECT_GE(delivered.size(), 3u);
  EXPECT_LT(delivered.size(), full.size());
  for (auto& [shard_id, pairs] : delivered) {
    ASSERT_TRUE(full.count(shard_id)) << "shard " << shard_id;
    auto& reference = full[shard_id];
    std::sort(pairs.begin(), pairs.end());
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(pairs, reference)
        << "shard " << shard_id << " delivered partially or duplicated";
  }
}

TEST(DistributedJoin, EmptyInputsAndValidation) {
  const Dataset empty;
  const Dataset some = testutil::Uniform(50, 63);
  DistJoinOptions options;
  JoinResult got;
  auto report = DistributedJoin(empty, some, options, &got);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(got.size(), 0u);
  EXPECT_EQ(report->shards, 0u);

  options.num_nodes = 0;
  EXPECT_FALSE(DistributedJoin(some, some, options, &got).ok());
  options.num_nodes = 2;
  const Dataset bad("bad", {Box(5, 5, 3, 3)});  // inverted
  auto rejected = DistributedJoin(bad, some, options, &got);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// The dist-* engines through the registry and the streaming layer.
// ---------------------------------------------------------------------------

TEST(DistEngine, TypedHandleReportsClusterOutcome) {
  const Dataset r = testutil::Uniform(500, 64);
  const Dataset s = testutil::Uniform(500, 65);

  EngineConfig config;
  config.num_threads = 4;
  config.dist_nodes = 4;
  auto engine = MakeDistEngine(kDistPbsmEngine, config);
  ASSERT_TRUE(engine.ok());
  auto plan = (*engine)->Prepare(BorrowDataset(r), BorrowDataset(s));
  ASSERT_TRUE(plan.ok());
  const ShardPlan& shard_plan =
      dynamic_cast<const DistPreparedPlan&>(**plan).shard_plan;
  EXPECT_GT(shard_plan.shards.size(), 0u);

  JoinResult out;
  ASSERT_TRUE((*engine)->ExecutePrepared(**plan, &out, nullptr).ok());
  const DistReport& report = (*engine)->last_report();
  EXPECT_EQ(report.nodes, 4u);
  EXPECT_EQ(report.shards, shard_plan.shards.size());
  EXPECT_EQ(report.num_results, out.size());
  EXPECT_GT(report.makespan_seconds, 0.0);
  EXPECT_GE(report.straggler_gap, 1.0);
  EXPECT_GT(report.exchange_messages, 0u);

  // Execution is repeatable over one plan (fresh cluster per run).
  JoinResult again;
  ASSERT_TRUE((*engine)->ExecutePrepared(**plan, &again, nullptr).ok());
  EXPECT_TRUE(JoinResult::SameMultiset(out, again));

  EXPECT_FALSE(MakeDistEngine("partitioned", config).ok());
}

// dist-accel and accel-pbsm-4x run their cells through one device recipe
// (hw::RunCellOnDevice): one node on the 2x2 grid is accel-pbsm-4x with
// ample memory, pair for pair and predicate for predicate.
TEST(DistEngine, OneNodeAccelOnTwoByTwoGridIsAccelPbsm4x) {
  const Dataset r = testutil::Uniform(900, 70, /*map=*/500.0,
                                      /*max_edge=*/15.0);
  const Dataset s = testutil::Skewed(900, 71, /*map=*/500.0);

  EngineConfig config;
  config.num_threads = 2;
  config.accel_join_units = 4;
  auto multi = RunJoin(kAccelPbsmMultiEngine, r, s, config);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();

  config.dist_nodes = 1;
  config.grid_cols = 2;
  config.grid_rows = 2;
  auto dist = RunJoin(kDistAccelEngine, r, s, config);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();

  EXPECT_GT(multi->result.size(), 0u);
  EXPECT_TRUE(JoinResult::SameMultiset(multi->result, dist->result));
  EXPECT_EQ(multi->stats.predicate_evaluations,
            dist->stats.predicate_evaluations);
  EXPECT_GT(dist->stats.predicate_evaluations, 0u);
}

TEST(DistEngine, StreamsNativelyThroughRunJoinAsync) {
  // Dense enough for several hundred result pairs -> a multi-chunk stream.
  const Dataset r = testutil::Uniform(700, 66, /*map=*/500.0,
                                      /*max_edge=*/15.0);
  const Dataset s = testutil::Uniform(700, 67, /*map=*/500.0,
                                      /*max_edge=*/15.0);

  EngineConfig config;
  config.num_threads = 4;
  auto sync = RunJoin(kDistPbsmEngine, r, s, config);
  ASSERT_TRUE(sync.ok());

  exec::StreamOptions stream;
  stream.chunk_pairs = 64;  // force multi-chunk delivery
  auto handle = exec::RunJoinAsync(kDistPbsmEngine, r, s, config, stream);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  exec::StreamSummary summary = handle->Collect();
  ASSERT_TRUE(summary.status.ok()) << summary.status.ToString();
  EXPECT_TRUE(
      JoinResult::SameMultiset(sync->result, summary.run.result));
  EXPECT_GT(summary.chunks, 1u);
  EXPECT_LE(summary.max_queue_depth, stream.queue_capacity);
}

TEST(DistEngine, CancellingTheStreamStopsTheCluster) {
  const Dataset r = testutil::Uniform(1500, 68, /*map=*/400.0,
                                      /*max_edge=*/15.0);
  const Dataset s = testutil::Uniform(1500, 69, /*map=*/400.0,
                                      /*max_edge=*/15.0);

  EngineConfig config;
  config.num_threads = 4;
  auto sync = RunJoin(kDistPbsmEngine, r, s, config);
  ASSERT_TRUE(sync.ok());

  exec::StreamOptions stream;
  stream.chunk_pairs = 32;
  stream.queue_capacity = 2;
  auto handle = exec::RunJoinAsync(kDistPbsmEngine, r, s, config, stream);
  ASSERT_TRUE(handle.ok());
  exec::ResultChunk chunk;
  std::vector<ResultPair> delivered;
  uint64_t expected_sequence = 0;
  for (int i = 0; i < 2 && handle->Next(&chunk); ++i) {
    EXPECT_EQ(chunk.sequence, expected_sequence++);
    delivered.insert(delivered.end(), chunk.pairs.begin(),
                     chunk.pairs.end());
  }
  handle->Cancel();
  while (handle->Next(&chunk)) {
    EXPECT_EQ(chunk.sequence, expected_sequence++);
    delivered.insert(delivered.end(), chunk.pairs.begin(),
                     chunk.pairs.end());
  }
  EXPECT_EQ(handle->Wait().code(), StatusCode::kAborted);

  // The delivered prefix is a genuine sub-multiset of the full join.
  JoinResult full = sync->result;
  full.Sort();
  std::sort(delivered.begin(), delivered.end());
  EXPECT_TRUE(std::includes(full.pairs().begin(), full.pairs().end(),
                            delivered.begin(), delivered.end()));
  EXPECT_LT(delivered.size(), full.size());
}

}  // namespace
}  // namespace swiftspatial::dist
