#include "exec/streaming.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/sync.h"
#include "obs/log.h"

namespace swiftspatial::exec {

namespace internal {

// Bounded chunk queue plus the stream's terminal state. Producer side calls
// Push (blocking once `capacity` chunks are buffered) and finally Close;
// consumer side calls Pop until it returns false. Cancel unblocks both
// sides and makes every token observer stop cooperatively.
class StreamState {
 public:
  explicit StreamState(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  CancellationToken token() const { return cancel_.token(); }
  bool cancelled() const { return cancel_.cancelled(); }

  enum class PushResult { kPushed, kFull, kCancelled };

  /// Enqueues one chunk (taking `*pairs`; empty sets are not enqueued).
  /// On a full queue it blocks when `may_block`, else returns kFull and
  /// leaves the caller holding the pairs -- pool workers must not block on
  /// one stream's backpressure, which could starve (and with sequential
  /// consumers, deadlock) every other stream on the pool. kCancelled (the
  /// chunk dropped) once the stream is cancelled.
  PushResult Push(std::vector<ResultPair>* pairs, bool may_block)
      EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      while (may_block && queue_.size() >= capacity_ &&
             !cancel_.cancelled()) {
        cv_space_.Wait(&mu_);
      }
      if (cancel_.cancelled()) return PushResult::kCancelled;
      if (pairs->empty()) return PushResult::kPushed;
      if (queue_.size() >= capacity_) return PushResult::kFull;
      PushLocked(std::move(*pairs));
      pairs->clear();
      if (waiting_consumers_ == 0) return PushResult::kPushed;
    }
    // Hand the core to the consumer this chunk just woke: while the join
    // keeps every core busy, a woken consumer otherwise waits out the
    // pusher's time slice (about 2 ms of time-to-first-chunk on a 4-vCPU
    // host).
    std::this_thread::yield();
    return PushResult::kPushed;
  }

  /// Dequeues the next chunk; false at end-of-stream. Buffered chunks are
  /// still delivered after Close/Cancel -- the delivered prefix stays
  /// well-defined.
  bool Pop(ResultChunk* out) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    ++waiting_consumers_;
    while (queue_.empty() && !closed_) cv_data_.Wait(&mu_);
    --waiting_consumers_;
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    cv_space_.NotifyOne();
    return true;
  }

  void Cancel() EXCLUDES(mu_) {
    cancel_.Cancel();
    MutexLock lock(&mu_);
    cv_space_.NotifyAll();
  }

  /// Cancel() that also stamps the terminal status: when the producer
  /// subsequently closes with the generic cancellation Aborted, the stamp
  /// replaces it -- DeadlineExceeded for deadline kills, OK for graceful
  /// degradation (the delivered prefix becomes the official result). First
  /// stamp wins; a stream that already closed is left untouched.
  void CancelWith(Status status) EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (!closed_ && !status_override_.has_value()) {
        status_override_ = std::move(status);
      }
    }
    Cancel();
  }

  /// Marks the stream finished. Called exactly once, by the producer (or by
  /// DeferredStream::abandon when the producer never ran).
  void Close(Status status, const JoinStats& stats,
             const StageTiming& timing) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    SWIFT_CHECK(!closed_);
    CloseLocked(std::move(status), stats, timing);
  }

  /// Safety-net variant for abandon paths that may race a normal Close.
  void CloseIfOpen(Status status) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (closed_) return;
    CloseLocked(std::move(status), JoinStats{}, StageTiming{});
  }

  void WaitClosed() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (!closed_) cv_closed_.Wait(&mu_);
  }

  Status status() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return status_;
  }
  JoinStats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  StageTiming timing() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return timing_;
  }
  std::size_t max_depth() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return max_depth_;
  }
  /// High-water mark of pairs staged ahead of the queue (ChunkStager),
  /// recorded by the producer before it closes the stream.
  std::size_t max_staged_pairs() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return max_staged_pairs_;
  }
  void set_max_staged_pairs(std::size_t pairs) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    max_staged_pairs_ = pairs;
  }
  /// Chunks pushed over the stream's lifetime (the sequence counter).
  uint64_t chunks_pushed() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_sequence_;
  }

  /// The stream's resource accounting; producers and the serving layer
  /// feed it, DeferredStream::usage exposes it (aliased to this state).
  obs::ResourceAccumulator* usage() { return &usage_; }

 private:
  void PushLocked(std::vector<ResultPair> pairs) REQUIRES(mu_) {
    ResultChunk chunk;
    chunk.sequence = next_sequence_++;
    chunk.pairs = std::move(pairs);
    usage_.AddChunk(chunk.pairs.size(),
                    chunk.pairs.size() * sizeof(ResultPair));
    queue_.push_back(std::move(chunk));
    max_depth_ = std::max(max_depth_, queue_.size());
    cv_data_.NotifyOne();
  }

  void CloseLocked(Status status, const JoinStats& stats,
                   const StageTiming& timing) REQUIRES(mu_) {
    closed_ = true;
    // A CancelWith stamp overrides the generic cancellation status (every
    // producer flavour closes a cancelled stream with kAborted). Genuine
    // errors and normal completion pass through untouched.
    if (status_override_.has_value() &&
        status.code() == StatusCode::kAborted) {
      status = std::move(*status_override_);
    }
    status_ = std::move(status);
    stats_ = stats;
    timing_ = timing;
    cv_data_.NotifyAll();
    cv_closed_.NotifyAll();
  }

  const std::size_t capacity_;
  CancellationSource cancel_;
  obs::ResourceAccumulator usage_;

  mutable Mutex mu_;
  CondVar cv_data_;    // consumer waits: data or closed
  CondVar cv_space_;   // producer waits: space or cancelled
  CondVar cv_closed_;  // Wait/Collect wait: closed
  std::deque<ResultChunk> queue_ GUARDED_BY(mu_);
  uint64_t next_sequence_ GUARDED_BY(mu_) = 0;
  std::size_t max_depth_ GUARDED_BY(mu_) = 0;
  std::size_t max_staged_pairs_ GUARDED_BY(mu_) = 0;
  int waiting_consumers_ GUARDED_BY(mu_) = 0;  // blocked in Pop
  bool closed_ GUARDED_BY(mu_) = false;
  Status status_ GUARDED_BY(mu_);
  /// Terminal-status stamp from CancelWith; applied by CloseLocked when the
  /// producer closes with the generic cancellation kAborted.
  std::optional<Status> status_override_ GUARDED_BY(mu_);
  JoinStats stats_ GUARDED_BY(mu_);
  StageTiming timing_ GUARDED_BY(mu_);
};

}  // namespace internal

namespace {

using internal::StreamState;

// Coalesces the engine's result batches into bounded chunks for the stream
// queue. Batches may arrive concurrently from worker threads and in any size
// (write-unit bursts, committed shards, cell-group buffers, a finished
// result): they accumulate in one staging buffer and full chunks are carved
// from the back (order across chunks is irrelevant -- the result is a
// multiset; carving the front would shift the residue on every carve).
//
// Backpressure, one rule for every stream: only the wave's caller (the
// producer or dispatcher thread, never a pool worker) blocks on a full
// queue. A pool worker must never park on one consumer's backpressure (with
// sequential consumers that deadlocks every stream on the pool), so it
// tries once, restages on a full queue and yields its wave slot
// (YieldWaveSlot): it stops claiming work and the caller joins the rest,
// blocking as needed; Finish, on the producer thread, ships the remainder.
// Staged pairs therefore stay within about one batch per slot (chunk_pairs
// plus one cell's output) however large the join. The stager's lock guards
// only the staging buffer and is never held across a push.
class ChunkStager {
 public:
  ChunkStager(std::size_t chunk_pairs, StreamState* state)
      : chunk_pairs_(std::max<std::size_t>(1, chunk_pairs)), state_(state) {}

  /// Adds one producer batch, shipping any full chunks. Batches are
  /// dropped once a push has failed (the consumer cancelled).
  void Add(std::vector<ResultPair> batch) EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (push_failed_) return;
      if (staged_.empty()) {
        staged_ = std::move(batch);
      } else {
        staged_.insert(staged_.end(), batch.begin(), batch.end());
      }
      max_staged_ = std::max(max_staged_, staged_.size());
    }
    Ship(/*may_block=*/!ThreadPool::OnWorkerThread(), /*tail=*/false);
  }

  /// Ships everything still staged, blocking on backpressure; called on the
  /// producer thread once the engine returned. Returns false when any push
  /// failed (the stream should close Aborted).
  bool Finish() EXCLUDES(mu_) {
    return Ship(/*may_block=*/true, /*tail=*/true);
  }

  /// High-water mark of the staging buffer, in pairs.
  std::size_t max_staged() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return max_staged_;
  }

 private:
  // Carves and pushes full chunks (with `tail`, also the partial rest) one
  // at a time, pushing outside the lock so other threads keep staging.
  // Stops when none remain, a push fails (returns false), or a
  // non-blocking push finds the queue full (the chunk is restaged and the
  // pool slot yields).
  bool Ship(bool may_block, bool tail) EXCLUDES(mu_) {
    for (;;) {
      std::vector<ResultPair> chunk;
      {
        MutexLock lock(&mu_);
        if (push_failed_) return false;
        if (staged_.size() < chunk_pairs_ && !(tail && !staged_.empty())) {
          return true;
        }
        chunk = CarveLocked();
      }
      const StreamState::PushResult result = state_->Push(&chunk, may_block);
      if (result == StreamState::PushResult::kPushed) continue;
      MutexLock lock(&mu_);
      if (result == StreamState::PushResult::kCancelled) {
        push_failed_ = true;
        return false;
      }
      staged_.insert(staged_.end(), chunk.begin(), chunk.end());
      YieldWaveSlot();
      return true;
    }
  }

  // Takes up to chunk_pairs_ pairs off the back of the staging buffer.
  std::vector<ResultPair> CarveLocked() REQUIRES(mu_) {
    std::vector<ResultPair> chunk;
    if (staged_.size() <= chunk_pairs_) {
      chunk = std::move(staged_);
      staged_.clear();
    } else {
      chunk.assign(staged_.end() - chunk_pairs_, staged_.end());
      staged_.resize(staged_.size() - chunk_pairs_);
    }
    if (staged_.capacity() > 2 * chunk_pairs_ &&
        staged_.size() < chunk_pairs_) {
      // The residue of a large batch (a finished result) moves to a
      // right-sized buffer, so the batch's buffer is freed now instead of
      // riding the queue as the last chunk.
      staged_ = std::vector<ResultPair>(staged_.begin(), staged_.end());
    }
    return chunk;
  }

  const std::size_t chunk_pairs_;
  StreamState* const state_;
  mutable Mutex mu_;
  std::vector<ResultPair> staged_ GUARDED_BY(mu_);
  std::size_t max_staged_ GUARDED_BY(mu_) = 0;
  bool push_failed_ GUARDED_BY(mu_) = false;
};

// Where a producer's plan comes from: the engine's own Prepare over
// borrowed datasets (cold), or the registry's plan cache (warm, where a hit
// makes the plan stage just the cache lookup). A plan built here runs its
// waves under the given context.
using PlanSource = std::function<Result<std::shared_ptr<const PreparedPlan>>(
    JoinEngine&, const WaveContext&)>;

// The one producer: instantiate the engine and fetch its plan (both billed
// to plan_seconds, as RunPreparedJoin bills instantiation), then execute it
// streaming into the chunk stager. Every wave of both stages runs on `pool`
// (null: the process-wide pool) at the request's num_threads, with this
// thread as the caller; the thread bills its own CPU to the request, and
// each wave slot its own. The fetched plan pins its datasets for the whole
// execution, so a concurrent re-Put of a registered name cannot pull the
// data out from under the join.
void RunPreparedProducer(const std::string& engine_name,
                         const EngineConfig& config, const PlanSource& source,
                         StreamOptions opts, ThreadPool* pool,
                         std::shared_ptr<StreamState> state) {
  obs::ScopedCpuCharge charge(state->usage());
  const WaveContext wave{pool, state->token(), config.trace, state->usage()};
  StageTiming timing;
  Stopwatch sw;
  obs::ScopedSpan plan_span(config.trace, "plan");
  auto engine = EngineRegistry::Global().Create(engine_name, config);
  Result<std::shared_ptr<const PreparedPlan>> plan =
      engine.ok() ? source(**engine, wave)
                  : Result<std::shared_ptr<const PreparedPlan>>(
                        engine.status());
  timing.plan_seconds = sw.ElapsedSeconds();
  plan_span.End();
  if (!plan.ok()) {
    state->Close(plan.status(), JoinStats{}, timing);
    return;
  }
  if (state->cancelled()) {
    state->Close(Status::Aborted("join cancelled mid-stream"), JoinStats{},
                 timing);
    return;
  }
  // The execute span is a sibling of the engine's own spans (tile tasks, the
  // cluster coordinator's merge), all parented on the request: engines
  // froze their trace context at creation, before this span existed.
  obs::ScopedSpan exec_span(config.trace, "execute");
  sw.Reset();
  JoinStats stats;
  ChunkStager stager(opts.chunk_pairs, state.get());
  StreamTarget target;
  target.sink = [&stager](std::vector<ResultPair> batch) {
    stager.Add(std::move(batch));
  };
  target.chunk_pairs = opts.chunk_pairs;
  target.wave = wave;
  Status st = (*engine)->ExecuteStreaming(**plan, target, &stats);
  if (st.ok() && (!stager.Finish() || state->cancelled())) {
    st = Status::Aborted("join cancelled mid-stream");
  }
  state->set_max_staged_pairs(stager.max_staged());
  timing.execute_seconds = sw.ElapsedSeconds();
  exec_span.End();
  state->Close(std::move(st), stats, timing);
}

// Fault containment for every producer flavour: a producer that throws
// (misbehaving engine code, bad_alloc under pressure) must still close the
// stream with a non-OK status -- the alternative is an uncaught exception
// tearing the process down, or (if swallowed carelessly) consumers blocked
// in Next()/Wait() forever on a stream nobody will ever close.
std::function<void()> ContainFaults(std::function<void()> body,
                                    std::shared_ptr<StreamState> state) {
  return [body = std::move(body), state = std::move(state)] {
    try {
      body();
    } catch (const std::exception& e) {
      SWIFT_LOG(Error, "stream", "join producer threw")
          .With("what", e.what());
      state->CloseIfOpen(
          Status::Internal(std::string("join producer threw: ") + e.what()));
    } catch (...) {
      SWIFT_LOG(Error, "stream",
                "join producer threw a non-standard exception");
      state->CloseIfOpen(
          Status::Internal("join producer threw a non-standard exception"));
    }
  };
}

// Observes the per-engine swiftspatial_stream_* series once the producer
// has closed the stream: stage timings from the stream's own StageTiming
// (so the metrics agree with StreamSummary by construction) plus the chunk
// count. Runs on the producer thread after the close -- never on the hot
// chunk path -- so per-request registry lookups are fine here.
std::function<void()> InstrumentProducer(std::string engine,
                                         obs::MetricsRegistry* metrics,
                                         std::function<void()> body,
                                         std::shared_ptr<StreamState> state) {
  return [engine = std::move(engine), metrics, body = std::move(body),
          state = std::move(state)] {
    Stopwatch wall;
    body();
    // Producer wall time (dispatcher pickup / thread start to close): the
    // denominator for the request's CPU-vs-wall parallelism ratio.
    state->usage()->SetWallSeconds(wall.ElapsedSeconds());
    obs::MetricsRegistry& reg =
        metrics != nullptr ? *metrics : obs::MetricsRegistry::Global();
    const StageTiming timing = state->timing();
    reg.GetHistogram("swiftspatial_stream_plan_seconds", {{"engine", engine}}, {}, "Stream producer plan-stage wall time")->Observe(timing.plan_seconds);
    reg.GetHistogram("swiftspatial_stream_execute_seconds", {{"engine", engine}}, {}, "Stream producer execute-stage wall time")->Observe(timing.execute_seconds);
    reg.GetCounter("swiftspatial_stream_chunks_total", {{"engine", engine}}, "Chunks pushed to bounded stream queues")->Increment(state->chunks_pushed());
  };
}

}  // namespace

AsyncJoinHandle::AsyncJoinHandle(std::shared_ptr<internal::StreamState> state,
                                 std::thread producer)
    : state_(std::move(state)), producer_(std::move(producer)) {}

void AsyncJoinHandle::Teardown() {
  if (state_ == nullptr) return;  // moved-from
  // Cancel so a blocked producer unblocks, drain so buffered chunks free
  // their memory, then wait for the stream to close -- either our own
  // producer thread finishing, or the serving layer running/abandoning a
  // deferred job (every created stream is guaranteed one of the two; see
  // the abandon guard in MakeJoinStream).
  state_->Cancel();
  ResultChunk sink;
  while (state_->Pop(&sink)) {
  }
  state_->WaitClosed();
  if (producer_.joinable()) producer_.join();
  state_.reset();
}

AsyncJoinHandle::~AsyncJoinHandle() { Teardown(); }

AsyncJoinHandle& AsyncJoinHandle::operator=(AsyncJoinHandle&& other) noexcept {
  if (this != &other) {
    // Retire the stream this handle currently owns exactly as the
    // destructor would, then adopt the other's.
    Teardown();
    state_ = std::move(other.state_);
    producer_ = std::move(other.producer_);
  }
  return *this;
}

bool AsyncJoinHandle::Next(ResultChunk* out) { return state_->Pop(out); }

void AsyncJoinHandle::Cancel() { state_->Cancel(); }

Status AsyncJoinHandle::Wait() {
  ResultChunk sink;
  while (state_->Pop(&sink)) {
  }
  state_->WaitClosed();
  if (producer_.joinable()) producer_.join();
  return state_->status();
}

StreamSummary AsyncJoinHandle::Collect() {
  StreamSummary summary;
  ResultChunk chunk;
  while (state_->Pop(&chunk)) {
    ++summary.chunks;
    auto& pairs = summary.run.result.mutable_pairs();
    if (pairs.empty()) {
      pairs = std::move(chunk.pairs);
    } else {
      pairs.insert(pairs.end(), chunk.pairs.begin(), chunk.pairs.end());
    }
  }
  state_->WaitClosed();
  if (producer_.joinable()) producer_.join();
  summary.status = state_->status();
  summary.run.stats = state_->stats();
  summary.run.timing = state_->timing();
  summary.max_queue_depth = state_->max_depth();
  summary.max_staged_pairs = state_->max_staged_pairs();
  return summary;
}

std::size_t AsyncJoinHandle::max_queue_depth() const {
  return state_->max_depth();
}

namespace internal {

DeferredStream MakeDeferredStream(const std::string& engine,
                                  const StreamOptions& stream,
                                  std::shared_ptr<StreamState> state,
                                  std::function<void()> body) {
  // Safety net owned by the producer/abandon closures: if a caller drops
  // both without invoking either (an early-return error path), the last
  // closure's destruction closes the stream so consumers blocked in
  // Next()/Wait() -- including ~AsyncJoinHandle -- never hang.
  auto guard = std::shared_ptr<void>(nullptr, [state](void*) {
    state->CloseIfOpen(
        Status::Aborted("stream dropped without running the producer"));
  });
  std::function<void()> producer =
      [guard, run = InstrumentProducer(engine, stream.metrics,
                                       ContainFaults(std::move(body), state),
                                       state)] { run(); };
  auto abandon = [state, guard](Status status) {
    state->CloseIfOpen(std::move(status));
  };
  // Deliberately does NOT co-own the abandon guard: a caller that drops the
  // producer and abandon closures must close the stream even while a
  // watchdog still holds cancel_with (cancelling a closed stream is a
  // no-op).
  auto cancel_with = [state](Status status) {
    state->CancelWith(std::move(status));
  };
  auto usage =
      std::shared_ptr<obs::ResourceAccumulator>(state, state->usage());
  return DeferredStream{AsyncJoinHandle(state, std::thread()),
                        std::move(producer), std::move(abandon),
                        std::move(cancel_with), state->token(),
                        std::move(usage)};
}

Result<AsyncJoinHandle> StartProducer(Result<DeferredStream> deferred) {
  if (!deferred.ok()) return deferred.status();
  deferred->handle.producer_ = std::thread(std::move(deferred->producer));
  return std::move(deferred->handle);
}

}  // namespace internal

namespace {

// Fail-fast admission check shared by both stream factories: the thread
// count, then the engine's own config check (JoinEngine::Validate), so a
// request Prepare would reject without the data fails before a producer --
// or a serving slot -- exists.
Status ValidateRequest(const std::string& engine, const EngineConfig& config) {
  if (config.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (!EngineRegistry::Global().Contains(engine)) {
    return Status::NotFound("no registered engine: " + engine);
  }
  // An engine whose factory fails is reported by the producer's plan stage,
  // with the time it took to find out.
  auto created = EngineRegistry::Global().Create(engine, config);
  return created.ok() ? (*created)->Validate() : Status::OK();
}

}  // namespace

Result<DeferredStream> MakeJoinStream(const std::string& engine,
                                      const Dataset& r, const Dataset& s,
                                      const EngineConfig& config,
                                      const StreamOptions& stream,
                                      ThreadPool* pool) {
  SWIFT_RETURN_IF_ERROR(ValidateRequest(engine, config));
  auto state = std::make_shared<StreamState>(stream.queue_capacity);
  PlanSource source = [&r, &s](JoinEngine& e, const WaveContext& wave) {
    return e.Prepare(BorrowDataset(r), BorrowDataset(s), wave);
  };
  std::function<void()> body = [engine, config, source, stream, pool, state] {
    RunPreparedProducer(engine, config, source, stream, pool, state);
  };
  return internal::MakeDeferredStream(engine, stream, std::move(state),
                                      std::move(body));
}

Result<AsyncJoinHandle> RunJoinAsync(const std::string& engine,
                                     const Dataset& r, const Dataset& s,
                                     const EngineConfig& config,
                                     const StreamOptions& stream) {
  return internal::StartProducer(MakeJoinStream(engine, r, s, config, stream));
}

Result<DeferredStream> MakeRegisteredJoinStream(
    DatasetRegistry* registry, const std::string& engine,
    const std::string& r_name, const std::string& s_name,
    const EngineConfig& config, const StreamOptions& stream,
    ThreadPool* pool) {
  if (registry == nullptr) {
    return Status::InvalidArgument(
        "MakeRegisteredJoinStream requires a registry");
  }
  // Fail fast on bad configs, unknown engines and unregistered names, so
  // admission-time callers (JoinService::SubmitNamed) can reject bad
  // requests before queueing them. The producer re-resolves at run time and
  // uses whatever version is then current.
  SWIFT_RETURN_IF_ERROR(ValidateRequest(engine, config));
  for (const std::string* name : {&r_name, &s_name}) {
    auto resident = registry->Get(*name);
    if (!resident.ok()) return resident.status();
  }
  auto state = std::make_shared<StreamState>(stream.queue_capacity);
  PlanSource source = [registry, engine, r_name, s_name, config](
                          JoinEngine&, const WaveContext& wave) {
    return registry->GetOrPrepare(engine, r_name, s_name, config, wave);
  };
  std::function<void()> body = [engine, config, source, stream, pool, state] {
    RunPreparedProducer(engine, config, source, stream, pool, state);
  };
  return internal::MakeDeferredStream(engine, stream, std::move(state),
                                      std::move(body));
}

Result<AsyncJoinHandle> RunJoinAsync(DatasetRegistry& registry,
                                     const std::string& engine,
                                     const std::string& r_name,
                                     const std::string& s_name,
                                     const EngineConfig& config,
                                     const StreamOptions& stream) {
  return internal::StartProducer(MakeRegisteredJoinStream(
      &registry, engine, r_name, s_name, config, stream));
}

}  // namespace swiftspatial::exec
