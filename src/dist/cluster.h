// The in-process simulated cluster runtime: N dist::Nodes, each owning a
// worker budget (its own ThreadPool slice) and one Exchange link to the
// merge coordinator.
//
// A Node is driven by shard assignments (ShardRef = plan index + attempt)
// arriving on its command queue -- the initial placement up front, fault-
// recovery retries later. Its runtime thread fans each assignment out to
// the node pool, so a node joins as many shards concurrently as it has
// workers; every shard's result ships over the node's link as bounded
// chunk messages followed by a completion marker.
//
// Failure model (test/bench hook): a node configured to fail after K
// completed shards sends the *first* chunk of its (K+1)-th shard and then
// goes silent -- the partial transmission a real crash leaves behind --
// finally emitting kNodeFailed once its in-flight tasks have drained, so
// the failure message is ordered after everything the node ever sent
// (the Exchange FIFO invariant fault recovery relies on).
#ifndef SWIFTSPATIAL_DIST_CLUSTER_H_
#define SWIFTSPATIAL_DIST_CLUSTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>  // std::once_flag / std::call_once (not a banned primitive)
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "dist/exchange.h"
#include "dist/shard_planner.h"
#include "exec/cancellation.h"
#include "join/result.h"

namespace swiftspatial::dist {

/// One shard assignment on a node's command queue.
struct ShardRef {
  int shard_index = 0;  // index into the ShardPlan's shard array
  uint64_t attempt = 0;
};

struct NodeOptions {
  /// The node's worker budget: its private ThreadPool size.
  std::size_t worker_threads = 1;
  /// Trace context for shard-attempt spans (typically the coordinator's
  /// merge span); inactive = untraced. Shard spans land on track id+1.
  obs::TraceContext trace;
  /// Metrics sink for the swiftspatial_dist_shard* series; nullptr selects
  /// obs::MetricsRegistry::Global().
  obs::MetricsRegistry* metrics = nullptr;
};

/// Failure injection for fault-recovery tests and the resilience bench.
struct FaultPlan {
  /// Node index that fails, or -1 for a failure-free run.
  int fail_node = -1;
  /// The node completes this many shards, then dies mid-transmission of the
  /// next one.
  std::size_t fail_after_shards = 0;
};

/// Per-node outcome accounting.
struct NodeStats {
  /// Shards whose results this node shipped completely (committed work).
  std::size_t shards_executed = 0;
  /// Of those, how many were fault-recovery retries (attempt > 0).
  std::size_t shards_retried = 0;
  uint64_t pairs_emitted = 0;
  /// Sum of per-shard execute wall seconds -- the node's busy time, the
  /// makespan/straggler unit (max over nodes = modelled cluster makespan,
  /// valid on any host because it sums work rather than timing overlap).
  double busy_seconds = 0;
  /// dist-accel: modelled simulated-device seconds (kernel + transfer).
  double device_seconds = 0;
  bool failed = false;
};

/// Joins one shard, appending the shard's deduplicated global-id pairs.
/// `device_seconds` accumulates modelled accelerator time (0 for CPU
/// execution). Must be thread-safe across concurrent shards.
using ShardExecutor =
    std::function<Status(const Shard& shard, std::vector<ResultPair>* pairs,
                         JoinStats* stats, double* device_seconds)>;

/// One cluster node. Construction starts the runtime thread; Enqueue feeds
/// assignments; CloseInput ends the stream; Join waits for retirement (the
/// node sends its terminal message and closes its link on the way out).
class Node {
 public:
  Node(int id, const NodeOptions& options, const std::vector<Shard>* shards,
       Exchange* exchange, ShardExecutor executor, std::size_t chunk_pairs,
       const FaultPlan& fault, exec::CancellationToken cancel);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Thread-safe; no-op after CloseInput.
  void Enqueue(ShardRef ref) EXCLUDES(mu_);
  void CloseInput() EXCLUDES(mu_);
  /// Blocks until the runtime thread has retired. Idempotent and safe to
  /// call concurrently (e.g. Cluster::JoinAll racing ~Node): exactly one
  /// caller performs the underlying thread join, the rest wait on it.
  void Join();

  int id() const { return id_; }
  NodeStats stats() const EXCLUDES(mu_);
  /// Work counters from every shard this node executed (including attempts
  /// whose results were dropped by failure injection -- work happened).
  JoinStats join_stats() const EXCLUDES(mu_);

 private:
  void RuntimeLoop() EXCLUDES(mu_);
  void RunShard(ShardRef ref) EXCLUDES(mu_);

  const int id_;
  const std::vector<Shard>* shards_;
  Exchange* exchange_;
  const ShardExecutor executor_;
  const std::size_t chunk_pairs_;
  const bool fault_injected_;
  const std::size_t fail_after_;
  exec::CancellationToken cancel_;
  const obs::TraceContext trace_;
  // Pre-resolved metric handles (lock-free to update).
  obs::Histogram* const m_shard_seconds_;
  obs::Counter* const m_shards_executed_;
  obs::Counter* const m_shards_retried_;

  ThreadPool pool_;

  mutable Mutex mu_;
  CondVar cv_cmd_;
  std::deque<ShardRef> commands_ GUARDED_BY(mu_);
  bool input_closed_ GUARDED_BY(mu_) = false;
  bool failed_ GUARDED_BY(mu_) = false;
  NodeStats stats_ GUARDED_BY(mu_);
  JoinStats join_stats_ GUARDED_BY(mu_);

  std::thread runtime_;
  /// Serializes the runtime_.join() so concurrent Join() calls (JoinAll
  /// racing ~Node) cannot double-join or return before retirement. A plain
  /// guarded flag is not enough: the "already joined" fast path would have
  /// to read it without blocking on the slow path's join.
  std::once_flag join_once_;
};

/// Owns the node set over one shared Exchange. The merge coordinator keeps
/// running the show: it assigns shards (initial placement + retries), and
/// closes inputs once every shard has committed.
class Cluster {
 public:
  Cluster(std::size_t num_nodes, const NodeOptions& node_options,
          const std::vector<Shard>* shards, Exchange* exchange,
          ShardExecutor executor, std::size_t chunk_pairs,
          const FaultPlan& fault, exec::CancellationToken cancel);

  std::size_t num_nodes() const { return nodes_.size(); }
  Node& node(std::size_t i) { return *nodes_[i]; }

  void CloseAllInputs();
  void JoinAll();

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace swiftspatial::dist

#endif  // SWIFTSPATIAL_DIST_CLUSTER_H_
