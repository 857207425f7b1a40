// Streaming join execution: the asynchronous face of the JoinEngine API.
//
//   auto handle = exec::RunJoinAsync("partitioned", r, s, config);
//   if (!handle.ok()) ...;
//   exec::ResultChunk chunk;
//   while (handle->Next(&chunk)) Consume(chunk.pairs);   // backpressured
//   Status final = handle->Wait();
//
// Result pairs arrive as bounded-queue ResultChunks while the join is still
// running: the producer blocks once `queue_capacity` chunks are buffered
// (backpressure bounds memory no matter how large the join), and
// Cancel() cooperatively stops the join mid-stream -- chunks already
// delivered form a well-defined prefix (consecutive sequence numbers, every
// pair a genuine result, no duplicates) and Wait()/Collect() report
// Aborted.
//
// Two producers sit behind one handle type:
//  - Partition-family engines ("partitioned", "simd", "async") stream
//    natively: the grid is split into row bands, each band's cell
//    assignment runs as a TaskGraph *plan task* that dynamically spawns
//    that band's cell-join tasks, so planning of band k+1 overlaps joining
//    of band k and the first chunks surface long before the last shard is
//    even partitioned.
//  - Every other engine, and every warm (registered-dataset) request, runs
//    Prepare -> ExecutePrepared on the producer thread: the plan comes from
//    the engine's own Prepare (cold) or the registry's plan cache (warm).
//    The accelerator engines ("accel-bfs", "accel-pbsm", "accel-pbsm-4x")
//    and the distributed engines ("dist-pbsm", "dist-accel") execute
//    through their typed ExecuteStreaming, so each write-unit flush or
//    committed shard surfaces as chunks while the simulated device or the
//    other nodes still run, and a cancelled consumer stops the whole
//    cluster (join/accel_engine.h, dist/dist_engine.h). The rest stream
//    their finished result out in chunks, so the streaming contract
//    (chunks, backpressure, cancellation, Collect) is uniform across the
//    whole registry.
//
// Collect() folds a stream back into a JoinRun, which is how the
// "async" engine (registered in EngineRegistry::Global()) proves the
// streaming path bit-identical to the synchronous one: the cross-algorithm
// equivalence oracle in tests/join/equivalence_test.cc covers it like any
// other engine.
#ifndef SWIFTSPATIAL_EXEC_STREAMING_H_
#define SWIFTSPATIAL_EXEC_STREAMING_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/dataset.h"
#include "exec/dataset_registry.h"
#include "exec/task_graph.h"
#include "join/engine.h"
#include "join/result.h"
#include "obs/metrics.h"
#include "obs/resource.h"

namespace swiftspatial::exec {

namespace internal {
class StreamState;
}  // namespace internal

/// One batch of result pairs. Sequence numbers are consecutive from 0 in
/// delivery order; a consumer that saw sequences 0..k holds a well-defined
/// prefix of the stream even if the join is cancelled afterwards.
struct ResultChunk {
  uint64_t sequence = 0;
  std::vector<ResultPair> pairs;
};

/// Streaming knobs, orthogonal to the join configuration (EngineConfig).
struct StreamOptions {
  /// Target pairs per chunk (chunks flush once they reach this size; the
  /// final chunk may be smaller).
  std::size_t chunk_pairs = 8192;
  /// Maximum buffered chunks before the producer blocks (backpressure).
  std::size_t queue_capacity = 8;
  /// Row bands for the native streaming planner; 0 = auto
  /// (min(grid rows, max(2, num_threads))). Ignored by the other producer.
  int num_shards = 0;
  /// Sink for the swiftspatial_stream_* series (per-engine plan/execute
  /// latency, chunk counts), observed once per stream after the producer
  /// closes it; nullptr selects obs::MetricsRegistry::Global().
  obs::MetricsRegistry* metrics = nullptr;
};

/// Everything Collect() reports: the final stream status, the collected
/// pairs folded into a JoinRun (the full join result iff status.ok(); the
/// delivered prefix under cancellation), and stream-level accounting.
struct StreamSummary {
  Status status;
  JoinRun run;
  std::size_t chunks = 0;
  /// High-water mark of buffered chunks -- bounded by queue_capacity, which
  /// tests assert to pin the backpressure contract.
  std::size_t max_queue_depth = 0;
};

class AsyncJoinHandle;
struct DeferredStream;
namespace internal {
/// Wraps a producer body that closes `state` into a DeferredStream:
/// fault containment, metrics, and the drop/abandon/cancel closures.
DeferredStream MakeDeferredStream(const std::string& engine,
                                  const StreamOptions& stream,
                                  std::shared_ptr<StreamState> state,
                                  std::function<void()> body);
}  // namespace internal
Result<AsyncJoinHandle> RunJoinAsync(const std::string& engine,
                                     const Dataset& r, const Dataset& s,
                                     const EngineConfig& config,
                                     const StreamOptions& stream);
Result<AsyncJoinHandle> RunJoinAsync(DatasetRegistry& registry,
                                     const std::string& engine,
                                     const std::string& r_name,
                                     const std::string& s_name,
                                     const EngineConfig& config,
                                     const StreamOptions& stream);

/// Consumer handle for one asynchronous join. Movable, not copyable; the
/// destructor cancels and drains an unfinished stream, so dropping a handle
/// never leaks the producer. All methods are safe to call from one consumer
/// thread while the producer runs; Cancel() may be called from any thread.
class AsyncJoinHandle {
 public:
  AsyncJoinHandle(AsyncJoinHandle&&) noexcept = default;
  /// Tears down the current stream first (cancel, drain, join) -- a
  /// defaulted move-assign would std::terminate via std::thread when
  /// overwriting a handle whose producer still runs.
  AsyncJoinHandle& operator=(AsyncJoinHandle&& other) noexcept;
  AsyncJoinHandle(const AsyncJoinHandle&) = delete;
  AsyncJoinHandle& operator=(const AsyncJoinHandle&) = delete;
  ~AsyncJoinHandle();

  /// Pops the next chunk, blocking while the stream is open but empty.
  /// Returns false at end-of-stream (the join finished, failed, or was
  /// cancelled and every buffered chunk has been delivered) -- nodiscard:
  /// ignoring it means spinning past end-of-stream on stale chunk data.
  [[nodiscard]] bool Next(ResultChunk* out);

  /// Requests cooperative cancellation: unstarted tile tasks are skipped,
  /// blocked producers unblock, and the stream closes after the tasks
  /// already running retire. Idempotent.
  void Cancel();

  /// Discards any unconsumed chunks and blocks until the producer has fully
  /// retired, returning the final status: OK, Aborted after Cancel(), or
  /// the planning/execution error.
  Status Wait();

  /// Drains the remaining stream into a StreamSummary and waits for the
  /// producer. After Collect() the stream is exhausted.
  StreamSummary Collect();

  /// High-water mark of buffered chunks so far (see StreamSummary).
  std::size_t max_queue_depth() const;

 private:
  friend Result<AsyncJoinHandle> RunJoinAsync(const std::string&,
                                              const Dataset&, const Dataset&,
                                              const EngineConfig&,
                                              const StreamOptions&);
  friend DeferredStream internal::MakeDeferredStream(
      const std::string&, const StreamOptions&,
      std::shared_ptr<internal::StreamState>, std::function<void()>);
  friend Result<AsyncJoinHandle> RunJoinAsync(DatasetRegistry&,
                                              const std::string&,
                                              const std::string&,
                                              const std::string&,
                                              const EngineConfig&,
                                              const StreamOptions&);

  AsyncJoinHandle(std::shared_ptr<internal::StreamState> state,
                  std::thread producer);

  /// Destructor body: cancel, drain, wait for close, join. Leaves the
  /// handle in the moved-from state.
  void Teardown();

  std::shared_ptr<internal::StreamState> state_;
  std::thread producer_;
};

/// Starts `engine` (a name in the global EngineRegistry) on (r, s)
/// asynchronously on a dedicated producer thread and returns the consumer
/// handle. Fails fast (NotFound / InvalidArgument) for unknown engines or
/// configurations rejectable without touching the data; data-dependent
/// planning errors surface through Wait()/Collect(). `r` and `s` must
/// outlive the stream.
Result<AsyncJoinHandle> RunJoinAsync(const std::string& engine,
                                     const Dataset& r, const Dataset& s,
                                     const EngineConfig& config = {},
                                     const StreamOptions& stream = {});

/// A stream whose producer has not been started: the serving layer
/// (exec::JoinService) admits requests by queueing the `producer` body and
/// running it on its own dispatcher threads against a shared worker pool.
struct DeferredStream {
  AsyncJoinHandle handle;
  /// Runs the join to completion (blocking) and closes the stream. Run
  /// exactly once, or not at all if `abandon` is called instead.
  std::function<void()> producer;
  /// Closes the stream with `status` without running the join (e.g. the
  /// request was cancelled or the service shut down while it queued).
  std::function<void(Status)> abandon;
  /// Cooperative mid-run cancellation that stamps the stream's terminal
  /// status: the join stops like Cancel(), but instead of the generic
  /// Aborted the stream closes with `status` -- DeadlineExceeded for
  /// deadline enforcement, or OK to degrade gracefully (the delivered
  /// prefix becomes the official, partial, result). First stamp wins;
  /// no-op once the stream already closed.
  std::function<void(Status)> cancel_with;
  /// Observes the handle's cancellation flag, letting a scheduler abandon
  /// queued work whose consumer already gave up.
  CancellationToken cancel;
  /// Per-request resource accounting, fed by the producer as it runs
  /// (task CPU/queue wait from the TaskGraph, chunks/pairs/bytes from the
  /// stream queue, wall time stamped at close) and read by the serving
  /// layer at completion. Aliases the stream's shared state, so it stays
  /// valid as long as any of the stream's closures or handles live.
  std::shared_ptr<obs::ResourceAccumulator> usage;
};

/// Like RunJoinAsync but defers producer execution to the caller and, when
/// `pool` is non-null, schedules the native path's tile tasks on that pool
/// instead of a private one (several streams may share one pool; each
/// stream's graph is tracked independently).
Result<DeferredStream> MakeJoinStream(const std::string& engine,
                                      const Dataset& r, const Dataset& s,
                                      const EngineConfig& config = {},
                                      const StreamOptions& stream = {},
                                      ThreadPool* pool = nullptr);

/// The warm-path variant of MakeJoinStream: `r_name`/`s_name` name datasets
/// resident in `registry` instead of shipping boxes. The producer fetches
/// the cached PreparedPlan (DatasetRegistry::GetOrPrepare) and streams
/// its execution -- on a cache hit the stream's plan_seconds is just engine
/// instantiation plus the cache lookup, effectively zero, which is the
/// measurable warm-serving win. Fails fast with NotFound for unknown engines or
/// unregistered dataset names. `registry` must outlive the stream.
Result<DeferredStream> MakeRegisteredJoinStream(
    DatasetRegistry* registry, const std::string& engine,
    const std::string& r_name, const std::string& s_name,
    const EngineConfig& config = {}, const StreamOptions& stream = {});

/// Warm-path RunJoinAsync: like the dataset-reference overload but over
/// registered datasets, skipping Prepare on every cache hit.
Result<AsyncJoinHandle> RunJoinAsync(DatasetRegistry& registry,
                                     const std::string& engine,
                                     const std::string& r_name,
                                     const std::string& s_name,
                                     const EngineConfig& config = {},
                                     const StreamOptions& stream = {});

/// Factory behind the "async" engine registered in EngineRegistry::Global():
/// ExecutePrepared runs the native banded streaming path and Collect()s it,
/// so the equivalence oracle checks streaming output against every other
/// engine.
std::unique_ptr<JoinEngine> MakeAsyncJoinEngine(const EngineConfig& config);

}  // namespace swiftspatial::exec

#endif  // SWIFTSPATIAL_EXEC_STREAMING_H_
