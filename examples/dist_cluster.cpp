// Distributed execution through the unified engine API: the in-process
// simulated cluster is just another engine name.
//
//   1. join on one machine ("partitioned") and on an 8-node cluster
//      ("dist-pbsm") through the same RunJoin call, compare results,
//   2. inspect the cluster report through the typed handle: per-node load,
//      straggler gap, exchange traffic, placement quality,
//   3. survive a node failure mid-join: shard re-execution on survivors
//      yields the identical result,
//   4. stream committed shards with exec::RunJoinAsync while the cluster
//      is still joining.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/dist_cluster [--metrics] [--trace-file=PATH]
//
// --metrics dumps the swiftspatial_dist_* Prometheus exposition at the end;
// --trace-file writes a Chrome trace_event JSON of the traced cluster run
// (merge/shard/commit spans, one track per node) for chrome://tracing or
// https://ui.perfetto.dev.
#include <cstdio>
#include <fstream>
#include <string>

#include "common/flags.h"
#include "datagen/generator.h"
#include "dist/dist_engine.h"
#include "exec/streaming.h"
#include "join/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace swiftspatial;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const bool dump_metrics = flags.GetBool("metrics", false);
  const std::string trace_file = flags.GetString("trace-file", "");
  OsmLikeConfig config;  // spatially skewed: placement policy matters
  config.count = 30000;
  config.seed = 21;
  const Dataset r = GenerateOsmLike(config);
  config.seed = 22;
  const Dataset s = GenerateOsmLike(config);
  std::printf("datasets: %zu x %zu skewed rectangles\n", r.size(), s.size());

  // 1. Same entry point, one machine vs a cluster.
  EngineConfig ecfg;
  ecfg.num_threads = 8;
  ecfg.dist_nodes = 8;
  ecfg.dist_placement = dist::PlacementPolicy::kCostBalanced;
  auto local = RunJoin(kPartitionedEngine, r, s, ecfg);
  auto cluster = RunJoin(kDistPbsmEngine, r, s, ecfg);
  if (!local.ok() || !cluster.ok()) {
    std::printf("ERROR: %s\n",
                (!local.ok() ? local : cluster).status().ToString().c_str());
    return 1;
  }
  if (!JoinResult::SameMultiset(local->result, cluster->result)) {
    std::printf("ERROR: cluster result differs from single-machine join!\n");
    return 1;
  }
  std::printf("single machine: %zu pairs in %.1f ms; 8-node cluster agrees\n",
              local->result.size(), local->timing.total_seconds() * 1e3);

  // 2. The cluster report through the typed handle; with --trace-file this
  // run is traced end to end (merge span, per-node shard spans, commits).
  obs::ScopedSpan root;
  if (!trace_file.empty()) {
    root = obs::ScopedSpan(
        obs::TraceContext::StartTrace(&obs::SpanBuffer::Global()), "request");
    ecfg.trace = root.context();
  }
  auto engine = dist::MakeDistEngine(kDistPbsmEngine, ecfg);
  if (!engine.ok()) return 1;
  auto plan = (*engine)->Prepare(BorrowDataset(r), BorrowDataset(s));
  JoinResult out;
  if (!plan.ok() || !(*engine)->ExecutePrepared(**plan, &out, nullptr).ok()) {
    return 1;
  }
  root.End();
  const dist::DistReport& report = (*engine)->last_report();
  std::printf(
      "cluster: %zu shards on %zu nodes, makespan %.2f ms, straggler gap "
      "%.2f, exchange %.1f KB in %llu messages, %zu boundary replicas\n",
      report.shards, report.nodes, report.makespan_seconds * 1e3,
      report.straggler_gap,
      static_cast<double>(report.exchange_payload_bytes) / 1024.0,
      static_cast<unsigned long long>(report.exchange_messages),
      report.replicated_objects);
  for (std::size_t n = 0; n < report.node_stats.size(); ++n) {
    const dist::NodeStats& ns = report.node_stats[n];
    std::printf("  node %zu: %zu shards, %llu pairs, busy %.2f ms\n", n,
                ns.shards_executed,
                static_cast<unsigned long long>(ns.pairs_emitted),
                ns.busy_seconds * 1e3);
  }

  // 3. Fault tolerance: node 2 dies mid-join; survivors re-execute its
  // shards and the merged result is identical.
  dist::DistJoinOptions options;
  options.num_nodes = 8;
  options.fault.fail_node = 2;
  options.fault.fail_after_shards = 3;
  JoinResult with_failure;
  auto faulty = dist::DistributedJoin(r, s, options, &with_failure);
  if (!faulty.ok()) {
    std::printf("ERROR: %s\n", faulty.status().ToString().c_str());
    return 1;
  }
  if (!JoinResult::SameMultiset(cluster->result, with_failure)) {
    std::printf("ERROR: result after node failure diverged!\n");
    return 1;
  }
  std::printf(
      "node 2 failed after 3 shards: %zu shards re-executed on survivors, "
      "result identical\n",
      faulty->retried_shards);

  // 4. Streaming: committed shards surface while the cluster still joins.
  exec::StreamOptions stream;
  stream.chunk_pairs = 4096;
  auto handle = exec::RunJoinAsync(kDistPbsmEngine, r, s, ecfg, stream);
  if (!handle.ok()) return 1;
  exec::ResultChunk chunk;
  std::size_t chunks = 0, pairs = 0;
  while (handle->Next(&chunk)) {
    ++chunks;
    pairs += chunk.pairs.size();
  }
  if (!handle->Wait().ok()) return 1;
  std::printf("streamed the cluster join: %zu pairs in %zu chunks\n", pairs,
              chunks);

  if (dump_metrics) {
    std::printf("--- metrics ---\n%s",
                obs::MetricsRegistry::Global().TextExposition().c_str());
  }
  if (!trace_file.empty()) {
    std::ofstream trace_out(trace_file);
    trace_out << obs::SpanBuffer::Global().ChromeTraceJson();
    std::printf("wrote %zu spans to %s (open in chrome://tracing)\n",
                obs::SpanBuffer::Global().size(), trace_file.c_str());
  }
  return 0;
}
