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
// Backpressure follows one rule for every stream: only the producer thread
// -- the caller of every wave the join runs -- blocks on a full queue. A
// pool worker whose hand-over finds the queue full restages its batch and
// stops claiming work (YieldWaveSlot), and the producer claims the rest. No
// worker ever parks on one consumer, so streams sharing a pool cannot
// deadlock each other, and pairs staged ahead of the queue stay within
// about one batch per wave slot (StreamSummary::max_staged_pairs). A push
// that wakes a consumer blocked on an empty queue hands it the pusher's
// core (a yield), so the consumer need not wait out a busy core's slice.
//
// One producer sits behind every handle: it instantiates the engine, takes
// the plan from the engine's own Prepare (cold: RunJoinAsync over datasets,
// JoinService::Submit) or from the registry's plan cache (warm:
// RunJoinAsync over a DatasetRegistry, JoinService::SubmitNamed), and runs
// one JoinEngine::ExecuteStreaming whose sink feeds the chunk queue. Engines
// with a native batch granularity ship while they run: the partitioned,
// simd and pbsm engines hand over each worker's staged pairs per chunk and
// per cell group (join/partitioned_driver.h), the accelerator engines each
// write-unit flush, the distributed engines each committed shard (a
// cancelled consumer stops the whole cluster). Every other engine's
// finished result is shipped in chunk-sized copies. The streaming contract
// (chunks, backpressure, cancellation, Collect) is therefore uniform across
// the whole registry, and Collect() folds a stream back into a JoinRun,
// which tests/exec/streaming_test.cc checks against the synchronous run of
// every registered engine, cold and warm.
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
#include "exec/cancellation.h"
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
  /// High-water mark of pairs staged ahead of the queue: about
  /// width x (chunk_pairs + one cell's output) at most, however large the
  /// join (see the backpressure rule above).
  std::size_t max_staged_pairs = 0;
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
/// Runs a deferred stream's producer on a thread of its own (RunJoinAsync).
Result<AsyncJoinHandle> StartProducer(Result<DeferredStream> deferred);
}  // namespace internal

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

  /// Requests cooperative cancellation: waves stop claiming work, blocked
  /// producers unblock, and the stream closes after the claims already
  /// running retire. Idempotent.
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
  friend DeferredStream internal::MakeDeferredStream(
      const std::string&, const StreamOptions&,
      std::shared_ptr<internal::StreamState>, std::function<void()>);
  friend Result<AsyncJoinHandle> internal::StartProducer(
      Result<DeferredStream>);

  AsyncJoinHandle(std::shared_ptr<internal::StreamState> state,
                  std::thread producer);

  /// Destructor body: cancel, drain, wait for close, join. Leaves the
  /// handle in the moved-from state.
  void Teardown();

  std::shared_ptr<internal::StreamState> state_;
  std::thread producer_;
};

/// Starts `engine` (a name in the global EngineRegistry) on (r, s)
/// asynchronously on a dedicated producer thread, whose waves run on the
/// process-wide pool, and returns the consumer handle. Fails fast (NotFound
/// / InvalidArgument) for unknown engines or configurations rejectable
/// without touching the data; data-dependent
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
  /// (CPU from the producer and every wave slot, slot queue waits,
  /// chunks/pairs/bytes from the stream queue, wall time stamped at close)
  /// and read by the serving layer at completion. Aliases the stream's shared state, so it stays
  /// valid as long as any of the stream's closures or handles live.
  std::shared_ptr<obs::ResourceAccumulator> usage;
};

/// Like RunJoinAsync but defers producer execution to the caller. Every wave
/// of the stream -- Prepare's and the join's -- runs on `pool` (null: the
/// process-wide pool, ThreadPool::Shared), at the config's num_threads,
/// with the producer's thread as the caller; several streams may share one
/// pool. Fails fast with NotFound for unknown engines and with the engine's
/// own Validate() error for configurations it rejects without the data.
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
/// measurable warm-serving win. Runs its waves on `pool` and fails fast like
/// MakeJoinStream, and with NotFound for unregistered dataset names.
/// `registry` must outlive the stream.
Result<DeferredStream> MakeRegisteredJoinStream(
    DatasetRegistry* registry, const std::string& engine,
    const std::string& r_name, const std::string& s_name,
    const EngineConfig& config = {}, const StreamOptions& stream = {},
    ThreadPool* pool = nullptr);

/// Warm-path RunJoinAsync: like the dataset-reference overload but over
/// registered datasets, skipping Prepare on every cache hit.
Result<AsyncJoinHandle> RunJoinAsync(DatasetRegistry& registry,
                                     const std::string& engine,
                                     const std::string& r_name,
                                     const std::string& s_name,
                                     const EngineConfig& config = {},
                                     const StreamOptions& stream = {});

}  // namespace swiftspatial::exec

#endif  // SWIFTSPATIAL_EXEC_STREAMING_H_
