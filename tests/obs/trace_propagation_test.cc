// End-to-end trace propagation: one served distributed join produces a
// single connected span tree -- request -> queued/plan/execute -> merge ->
// shard -> commit -- with every committed shard appearing exactly once,
// parent links intact across thread and simulated-node boundaries, retried
// shards showing up under bumped attempt spans after an injected node
// failure, and every span closed even when a stream is cancelled mid-run.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dist/dist_join.h"
#include "exec/service.h"
#include "join/engine.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

using obs::ScopedSpan;
using obs::SpanBuffer;
using obs::SpanRecord;
using obs::TraceContext;

std::string Attr(const SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return v;
  }
  return "";
}

// Owns a snapshot, grouping it by span name and indexing every span by id.
struct SpanIndex {
  std::vector<SpanRecord> spans;
  std::map<std::string, std::vector<const SpanRecord*>> by_name;
  std::map<uint64_t, const SpanRecord*> by_id;

  explicit SpanIndex(std::vector<SpanRecord> snapshot)
      : spans(std::move(snapshot)) {
    for (const SpanRecord& s : spans) {
      by_name[s.name].push_back(&s);
      by_id[s.span_id] = &s;
    }
  }
  std::size_t count(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.size();
  }
};

TEST(TracePropagationTest, ServedDistJoinFormsOneConnectedSpanTree) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  SpanBuffer buffer;
  exec::JoinServiceOptions options;
  options.worker_threads = 2;
  options.max_concurrent = 1;
  options.span_buffer = &buffer;
  exec::JoinService service(options);
  service.RegisterDataset("r", testutil::Uniform(500, 71));
  service.RegisterDataset("s", testutil::Uniform(500, 72));

  EngineConfig config;
  config.num_threads = 2;
  config.dist_nodes = 2;
  config.grid_cols = 4;
  config.grid_rows = 4;
  auto handle =
      service.SubmitNamed("tenant-a", kDistPbsmEngine, "r", "s", config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  exec::StreamSummary summary = handle->Collect();
  ASSERT_TRUE(summary.status.ok()) << summary.status.ToString();
  service.Drain();

  EXPECT_EQ(buffer.open_spans(), 0u);
  const SpanIndex idx(buffer.Snapshot());
  ASSERT_EQ(idx.count("request"), 1u);
  ASSERT_EQ(idx.count("queued"), 1u);
  ASSERT_EQ(idx.count("plan"), 1u);
  ASSERT_EQ(idx.count("execute"), 1u);
  ASSERT_EQ(idx.count("merge"), 1u);
  ASSERT_GE(idx.count("shard"), 1u);
  ASSERT_GE(idx.count("commit"), 1u);

  const SpanRecord* request = idx.by_name.at("request")[0];
  EXPECT_EQ(request->parent_id, 0u);
  EXPECT_EQ(Attr(*request, "tenant"), "tenant-a");
  EXPECT_EQ(Attr(*request, "engine"), kDistPbsmEngine);
  // Service and producer stages hang directly off the request.
  for (const char* stage : {"queued", "plan", "execute", "merge"}) {
    const SpanRecord* span = idx.by_name.at(stage)[0];
    EXPECT_EQ(span->parent_id, request->span_id) << stage;
    EXPECT_EQ(span->trace_id, request->trace_id) << stage;
  }
  const SpanRecord* merge = idx.by_name.at("merge")[0];

  // Every node-side shard execution parents on the merge span and runs on
  // that node's track (node id + 1, never the coordinator's track 0).
  std::set<std::string> executed_shards;
  for (const SpanRecord* shard : idx.by_name.at("shard")) {
    EXPECT_EQ(shard->parent_id, merge->span_id);
    EXPECT_EQ(shard->trace_id, request->trace_id);
    EXPECT_GT(shard->track, 0);
    EXPECT_EQ(Attr(*shard, "attempt"), "0");  // fault-free run
    EXPECT_TRUE(executed_shards.insert(Attr(*shard, "shard")).second)
        << "shard executed twice without a failure";
  }
  // Every committed shard appears exactly once, parented on the node-side
  // execution that produced it -- the cross-node link rides the exchange
  // messages.
  std::set<std::string> committed_shards;
  for (const SpanRecord* commit : idx.by_name.at("commit")) {
    EXPECT_TRUE(committed_shards.insert(Attr(*commit, "shard")).second)
        << "shard committed twice";
    const auto parent = idx.by_id.find(commit->parent_id);
    ASSERT_NE(parent, idx.by_id.end()) << "commit with dangling parent";
    EXPECT_EQ(parent->second->name, "shard");
    EXPECT_EQ(Attr(*parent->second, "shard"), Attr(*commit, "shard"));
  }
  EXPECT_EQ(committed_shards, executed_shards);
}

// Pins a dataset's extent to the [0, 1000]^2 map, so every version of R
// keeps the join on one grid spec.
Dataset Anchored(uint64_t seed) {
  Dataset d = testutil::Uniform(800, seed);
  d.mutable_boxes().push_back(Box(0, 0, 0, 0));
  d.mutable_boxes().push_back(Box(1000, 1000, 1000, 1000));
  return d;
}

// An update request re-plans only the side that changed: the trace of the
// request after a put of R shows one grid-half build, for R, and the cache
// stats show S's half reused.
TEST(TracePropagationTest, UpdateRequestBuildsOnlyTheChangedSide) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  SpanBuffer buffer;
  exec::JoinServiceOptions options;
  options.worker_threads = 2;
  options.span_buffer = &buffer;
  exec::JoinService service(options);
  service.RegisterDataset("r", Anchored(91));
  service.RegisterDataset("s", Anchored(92));
  EngineConfig config;
  config.num_threads = 2;

  std::vector<uint64_t> traces;
  for (const uint64_t r_seed : {93, 94}) {
    if (r_seed == 94) service.RegisterDataset("r", Anchored(r_seed));
    auto handle = service.SubmitNamed("t", kPartitionedEngine, "r", "s",
                                      config);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    const exec::StreamSummary summary = handle->Collect();
    ASSERT_TRUE(summary.status.ok()) << summary.status.ToString();
    service.Drain();
    const SpanIndex idx(buffer.Snapshot());
    traces.push_back(idx.by_name.at("request").back()->trace_id);
  }

  const SpanIndex idx(buffer.Snapshot());
  std::map<uint64_t, std::vector<std::string>> sides_by_trace;
  for (const SpanRecord* span : idx.by_name.at("plan.grid_side")) {
    sides_by_trace[span->trace_id].push_back(Attr(*span, "side"));
  }
  EXPECT_EQ(sides_by_trace[traces[0]], (std::vector<std::string>{"r", "s"}));
  EXPECT_EQ(sides_by_trace[traces[1]], (std::vector<std::string>{"r"}));
  const exec::PlanCacheStats cache = service.Snapshot().plan_cache;
  EXPECT_EQ(cache.side_misses, 3u);
  EXPECT_EQ(cache.side_hits, 1u);
  const std::string text = service.MetricsText();
  EXPECT_NE(text.find("swiftspatial_cache_side_hits_total"), std::string::npos);
  EXPECT_NE(text.find("swiftspatial_cache_side_misses_total"),
            std::string::npos);
}

TEST(TracePropagationTest, RetriedShardsCommitUnderBumpedAttemptSpans) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  const Dataset r = testutil::Uniform(800, 73);
  const Dataset s = testutil::Uniform(800, 74);
  SpanBuffer buffer;
  ScopedSpan root(TraceContext::StartTrace(&buffer), "request");

  dist::DistJoinOptions options;
  options.num_nodes = 4;
  options.grid_cols = 6;
  options.grid_rows = 6;
  options.fault.fail_node = 0;
  options.fault.fail_after_shards = 2;
  options.trace = root.context();
  JoinResult result;
  auto report = dist::DistributedJoin(r, s, options, &result);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->retried_shards, 0u);
  root.End();

  EXPECT_EQ(buffer.open_spans(), 0u);
  const SpanIndex idx(buffer.Snapshot());

  // Committed exactly once per shard, commit count == planned shards.
  std::set<std::string> committed_shards;
  for (const SpanRecord* commit : idx.by_name.at("commit")) {
    EXPECT_TRUE(committed_shards.insert(Attr(*commit, "shard")).second)
        << "shard committed twice despite the node failure";
    const auto parent = idx.by_id.find(commit->parent_id);
    ASSERT_NE(parent, idx.by_id.end());
    EXPECT_EQ(parent->second->name, "shard");
    EXPECT_EQ(Attr(*parent->second, "shard"), Attr(*commit, "shard"));
  }
  EXPECT_EQ(committed_shards.size(), report->shards);

  // The re-executions show up as attempt-1 shard spans, and exactly the
  // retried shards have one.
  std::set<std::string> retried;
  for (const SpanRecord* shard : idx.by_name.at("shard")) {
    if (Attr(*shard, "attempt") != "0") {
      EXPECT_EQ(Attr(*shard, "attempt"), "1");
      retried.insert(Attr(*shard, "shard"));
    }
  }
  EXPECT_EQ(retried.size(), report->retried_shards);
}

TEST(TracePropagationTest, CancelledStreamClosesEverySpan) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  SpanBuffer buffer;
  {
    exec::JoinServiceOptions options;
    options.worker_threads = 2;
    options.max_concurrent = 1;
    // A tiny queue so the dense join's producer stalls on backpressure
    // mid-stream, guaranteeing the cancel lands while spans are open.
    options.stream.queue_capacity = 1;
    options.stream.chunk_pairs = 64;
    options.span_buffer = &buffer;
    exec::JoinService service(options);

    const Dataset r = testutil::Uniform(900, 75, /*map=*/300.0,
                                        /*max_edge=*/20.0);
    const Dataset s = testutil::Uniform(900, 76, /*map=*/300.0,
                                        /*max_edge=*/20.0);
    EngineConfig config;
    config.num_threads = 2;
    auto handle =
        service.Submit("tenant-b", kPartitionedEngine, r, s, config);
    ASSERT_TRUE(handle.ok());
    exec::ResultChunk chunk;
    ASSERT_TRUE(handle->Next(&chunk));  // stream is live
    handle->Cancel();
    const Status status = handle->Wait();
    EXPECT_FALSE(status.ok());
    service.Drain();
  }  // ~JoinService waits for the dispatcher, ending the request span
  EXPECT_EQ(buffer.open_spans(), 0u);
  EXPECT_GT(buffer.size(), 0u);
}

}  // namespace
}  // namespace swiftspatial
