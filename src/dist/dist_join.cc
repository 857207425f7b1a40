#include "dist/dist_join.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "hw/multi_device.h"
#include "obs/log.h"

namespace swiftspatial::dist {

namespace {

Status ValidateOptions(const DistJoinOptions& options) {
  if (options.num_nodes < 1) {
    return Status::InvalidArgument("num_nodes must be >= 1");
  }
  if (options.chunk_pairs < 1) {
    return Status::InvalidArgument("chunk_pairs must be >= 1");
  }
  if (options.use_accel && options.accel_tile_cap < 1) {
    return Status::InvalidArgument("accel_tile_cap must be >= 1");
  }
  if (options.use_accel && options.accel_join_units < 0) {
    return Status::InvalidArgument("accel_join_units must be >= 0");
  }
  return Status::OK();
}

// CPU shard execution: the same tile-join dispatch every partition driver
// uses, with the shard's dedup tile enforcing the cross-node convention.
ShardExecutor MakeCpuExecutor(const Dataset& r, const Dataset& s,
                              TileJoin tile_join) {
  return [&r, &s, tile_join](const Shard& shard,
                             std::vector<ResultPair>* pairs, JoinStats* stats,
                             double* device_seconds) -> Status {
    (void)device_seconds;
    JoinResult local;
    RunTileJoin(tile_join, r, s, shard.cell->r, shard.cell->s,
                shard.cell->dedup_tile, &local, stats);
    *pairs = std::move(local.mutable_pairs());
    return Status::OK();
  };
}

// Accelerator shard execution: the node fronts a simulated device and runs
// the shard's cell through hw::RunCellOnDevice, the per-partition recipe
// hw::PartitionedJoin runs too.
ShardExecutor MakeAccelExecutor(const Dataset& r, const Dataset& s,
                                const DistJoinOptions& options) {
  hw::AcceleratorConfig device;
  if (options.accel_join_units > 0) {
    device.num_join_units = options.accel_join_units;
  }
  const int tile_cap = options.accel_tile_cap;
  return [&r, &s, device, tile_cap](const Shard& shard,
                                    std::vector<ResultPair>* pairs,
                                    JoinStats* stats,
                                    double* device_seconds) -> Status {
    const hw::AcceleratorReport report =
        hw::RunCellOnDevice(device, tile_cap, r, s, *shard.cell, pairs);
    if (device_seconds != nullptr) *device_seconds += report.total_seconds;
    if (stats != nullptr) *stats += report.stats;
    return Status::OK();
  };
}

}  // namespace

Result<DistReport> RunPlannedJoin(const Dataset& r, const Dataset& s,
                                  const ShardPlan& plan,
                                  const DistJoinOptions& options,
                                  JoinResult* result, JoinStats* stats,
                                  const ShardSink& sink,
                                  exec::CancellationToken cancel) {
  SWIFT_RETURN_IF_ERROR(ValidateOptions(options));
  if (result != nullptr) *result = JoinResult();

  // Coordinator wall clock (satellite: wall_seconds). Spans the whole run
  // -- cluster spin-up, merge loop, drain, join -- unlike the modelled
  // makespan, which only sums node work.
  Stopwatch wall;
  // The merge span parents every node shard span and commit span.
  obs::ScopedSpan merge_span(options.trace, "merge");

  DistReport report;
  report.grid_cols = plan.grid_cols;
  report.grid_rows = plan.grid_rows;
  report.shards = plan.shards.size();
  report.nodes = static_cast<std::size_t>(options.num_nodes);
  report.placement = plan.placement;
  report.replicated_objects = plan.replicated_objects;
  report.input_bytes = plan.input_bytes;
  report.node_stats.resize(report.nodes);
  report.link_stats.resize(report.nodes);
  if (plan.shards.empty()) {
    report.wall_seconds = wall.ElapsedSeconds();
    return report;
  }

  Exchange exchange(report.nodes, options.link, cancel, options.metrics);
  NodeOptions node_options;
  node_options.worker_threads =
      std::max<std::size_t>(1, options.node_worker_threads);
  node_options.trace = merge_span.context();
  node_options.metrics = options.metrics;
  ShardExecutor executor = options.use_accel
                               ? MakeAccelExecutor(r, s, options)
                               : MakeCpuExecutor(r, s, options.tile_join);
  Cluster cluster(report.nodes, node_options, &plan.shards, &exchange,
                  std::move(executor), options.chunk_pairs, options.fault,
                  cancel);

  // Initial placement.
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    cluster.node(static_cast<std::size_t>(plan.owner[i]))
        .Enqueue(ShardRef{static_cast<int>(i), 0});
  }

  // --- Merge coordinator. ---
  // Concurrency note (checked by the thread-safety analysis by absence):
  // every piece of coordinator state below -- the committed[] set,
  // expected_attempt[], the per-shard chunk buffers, owner/load/alive
  // bookkeeping -- is function-local and touched only by this thread.
  // Nodes never share it; their results arrive as messages through the
  // Exchange (whose own queue is mutex-guarded), and the per-link FIFO
  // order makes the committed set exact at the moment a failure message is
  // processed. Single ownership, not locks, is the invariant here; keep it
  // that way rather than annotating this state into a lock hierarchy.
  const std::size_t num_shards = plan.shards.size();
  std::vector<uint64_t> expected_attempt(num_shards, 0);
  std::vector<bool> committed(num_shards, false);
  std::vector<std::vector<ResultPair>> buffer(num_shards);
  std::vector<int> owner = plan.owner;            // retries move shards
  std::vector<uint64_t> node_load = plan.node_cost;
  std::vector<bool> node_alive(report.nodes, true);
  std::size_t committed_count = 0;
  Status fatal;

  Message msg;
  while (committed_count < num_shards && fatal.ok() && exchange.Recv(&msg)) {
    const auto shard_index = static_cast<std::size_t>(std::max(0, msg.shard));
    switch (msg.kind) {
      case Message::Kind::kShardChunk: {
        if (committed[shard_index] ||
            msg.attempt != expected_attempt[shard_index]) {
          break;  // stale attempt: a failed node's orphaned transmission
        }
        auto& buf = buffer[shard_index];
        if (buf.empty()) {
          buf = std::move(msg.pairs);
        } else {
          buf.insert(buf.end(), msg.pairs.begin(), msg.pairs.end());
        }
        break;
      }
      case Message::Kind::kShardDone: {
        if (committed[shard_index] ||
            msg.attempt != expected_attempt[shard_index]) {
          break;
        }
        committed[shard_index] = true;
        ++committed_count;
        // Commit span: parented to the sending shard-attempt span through
        // the message's trace context, so the tree stays connected across
        // the node boundary. Covers the merge + sink delivery work.
        obs::ScopedSpan commit(msg.trace, "commit");
        commit.AddAttr("shard", std::to_string(plan.shards[shard_index].id));
        std::vector<ResultPair> pairs = std::move(buffer[shard_index]);
        report.num_results += pairs.size();
        if (result != nullptr) {
          auto& out = result->mutable_pairs();
          out.insert(out.end(), pairs.begin(), pairs.end());
        }
        if (sink && !pairs.empty()) {
          sink(plan.shards[shard_index].id, std::move(pairs));
        }
        break;
      }
      case Message::Kind::kNodeFailed: {
        const auto dead = static_cast<std::size_t>(msg.node);
        node_alive[dead] = false;
        ++report.failed_nodes;
        SWIFT_LOG(Warn, "dist", "cluster node failed; rerouting its uncommitted shards").With("node", msg.node).With("committed_shards", committed_count).With("total_shards", num_shards);
        // Re-execute every uncommitted shard the dead node owned --
        // including retries routed to it before this message arrived -- on
        // the least-loaded survivor. FIFO ordering guarantees the
        // committed[] set is exact at this point.
        for (std::size_t i = 0; i < num_shards && fatal.ok(); ++i) {
          if (committed[i] || owner[i] != msg.node) continue;
          buffer[i].clear();
          ++expected_attempt[i];
          std::size_t survivor = report.nodes;
          uint64_t best = std::numeric_limits<uint64_t>::max();
          for (std::size_t n = 0; n < report.nodes; ++n) {
            if (node_alive[n] && node_load[n] < best) {
              best = node_load[n];
              survivor = n;
            }
          }
          if (survivor == report.nodes) {
            SWIFT_LOG(Error, "dist", "every cluster node failed; aborting join").With("uncommitted_shard", plan.shards[i].id);
            fatal = Status::Internal(
                "every cluster node failed before shard " +
                std::to_string(plan.shards[i].id) + " committed");
            break;
          }
          owner[i] = static_cast<int>(survivor);
          node_load[survivor] += plan.shards[i].EstimatedCost();
          ++report.retried_shards;
          SWIFT_LOG(Info, "dist", "shard rerouted to survivor").With("shard", plan.shards[i].id).With("survivor", static_cast<uint64_t>(survivor)).With("attempt", expected_attempt[i]);
          cluster.node(survivor).Enqueue(
              ShardRef{static_cast<int>(i), expected_attempt[i]});
        }
        break;
      }
      case Message::Kind::kNodeDone:
        break;
    }
  }

  const bool was_cancelled = cancel.cancelled() || exchange.cancelled();
  if (fatal.ok() && !was_cancelled && committed_count < num_shards) {
    fatal = Status::Internal(
        "cluster retired with " +
        std::to_string(num_shards - committed_count) +
        " uncommitted shards");
  }

  // Shutdown: stop feeding nodes, unblock anything in flight, drain the
  // remaining terminal messages so node runtimes retire, then join.
  cluster.CloseAllInputs();
  if (!fatal.ok() || was_cancelled) {
    exchange.Cancel();
  }
  while (exchange.Recv(&msg)) {
  }
  cluster.JoinAll();

  for (std::size_t n = 0; n < report.nodes; ++n) {
    report.node_stats[n] = cluster.node(n).stats();
    report.link_stats[n] = exchange.link_stats(n);
    if (stats != nullptr) *stats += cluster.node(n).join_stats();
  }
  if (was_cancelled) {
    return Status::Aborted("distributed join cancelled mid-exchange");
  }
  if (!fatal.ok()) return fatal;

  double total_busy = 0;
  for (const NodeStats& ns : report.node_stats) {
    report.makespan_seconds = std::max(report.makespan_seconds,
                                       ns.busy_seconds);
    total_busy += ns.busy_seconds;
  }
  report.mean_busy_seconds = total_busy / static_cast<double>(report.nodes);
  report.straggler_gap = report.mean_busy_seconds > 0
                             ? report.makespan_seconds /
                                   report.mean_busy_seconds
                             : 0;
  report.exchange_payload_bytes = exchange.total_payload_bytes();
  report.exchange_messages = exchange.total_messages();
  report.exchange_modelled_seconds = exchange.max_link_seconds();
  report.wall_seconds = wall.ElapsedSeconds();

  // Export the run-level signals. Gauges reflect the latest run; counters
  // accumulate across runs.
  auto& metrics = options.metrics != nullptr ? *options.metrics
                                             : obs::MetricsRegistry::Global();
  metrics.GetGauge("swiftspatial_dist_wall_seconds", {}, "End-to-end coordinator wall seconds of the last distributed run")->Set(report.wall_seconds);
  metrics.GetGauge("swiftspatial_dist_makespan_seconds", {}, "Modelled makespan (max node busy seconds) of the last distributed run")->Set(report.makespan_seconds);
  metrics.GetGauge("swiftspatial_dist_straggler_gap", {}, "Makespan / mean node busy seconds of the last distributed run")->Set(report.straggler_gap);
  metrics.GetCounter("swiftspatial_dist_runs_total", {}, "Completed distributed joins")->Increment();
  metrics.GetCounter("swiftspatial_dist_failed_nodes_total", {}, "Node failures observed by the merge coordinator")->Increment(report.failed_nodes);
  metrics.GetCounter("swiftspatial_dist_retried_shards_total", {}, "Shard re-executions scheduled by fault recovery")->Increment(report.retried_shards);
  for (std::size_t n = 0; n < report.nodes; ++n) {
    metrics.GetGauge("swiftspatial_dist_node_busy_seconds", {{"node", std::to_string(n)}}, "Busy seconds per node in the last distributed run")->Set(report.node_stats[n].busy_seconds);
  }
  return report;
}

Result<DistReport> DistributedJoin(const Dataset& r, const Dataset& s,
                                   const DistJoinOptions& options,
                                   JoinResult* result, JoinStats* stats,
                                   const ShardSink& sink,
                                   exec::CancellationToken cancel) {
  SWIFT_RETURN_IF_ERROR(ValidateOptions(options));
  JoinInput r_input = BorrowDataset(r);
  JoinInput s_input = BorrowDataset(s);
  r_input.stats = r.Scan();
  s_input.stats = s.Scan();
  if (options.validate_inputs) {
    SWIFT_RETURN_IF_ERROR(r_input.stats->validity);
    SWIFT_RETURN_IF_ERROR(s_input.stats->validity);
  }
  auto plan = PlanShards(r_input, s_input, options.grid_cols,
                         options.grid_rows, options.num_nodes,
                         options.placement);
  if (!plan.ok()) return plan.status();
  return RunPlannedJoin(r, s, *plan, options, result, stats, sink, cancel);
}

}  // namespace swiftspatial::dist
