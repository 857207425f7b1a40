#include "exec/streaming.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/sync.h"
#include "common/stopwatch.h"
#include "obs/log.h"
#include "dist/dist_engine.h"
#include "exec/task_graph.h"
#include "grid/uniform_grid.h"
#include "join/accel_engine.h"
#include "join/engine_base.h"
#include "join/partitioned_driver.h"
#include "join/pbsm.h"

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

  /// Enqueues one chunk, blocking while the queue is full. Returns false
  /// (dropping the chunk) once the stream is cancelled. Empty pair sets are
  /// not enqueued.
  bool Push(std::vector<ResultPair> pairs) EXCLUDES(mu_) {
    if (pairs.empty()) return !cancel_.cancelled();
    MutexLock lock(&mu_);
    while (queue_.size() >= capacity_ && !cancel_.cancelled()) {
      cv_space_.Wait(&mu_);
    }
    if (cancel_.cancelled()) return false;
    PushLocked(std::move(pairs));
    return true;
  }

  /// Non-blocking variant: kFull leaves the caller holding the pairs. Used
  /// by tile tasks on a *shared* pool, where blocking a worker on one
  /// stream's backpressure could starve (and with sequential consumers,
  /// deadlock) every other stream on the pool.
  PushResult TryPush(std::vector<ResultPair>* pairs) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (cancel_.cancelled()) return PushResult::kCancelled;
    if (pairs->empty()) return PushResult::kPushed;
    if (queue_.size() >= capacity_) return PushResult::kFull;
    PushLocked(std::move(*pairs));
    pairs->clear();
    return PushResult::kPushed;
  }

  /// Dequeues the next chunk; false at end-of-stream. Buffered chunks are
  /// still delivered after Close/Cancel -- the delivered prefix stays
  /// well-defined.
  bool Pop(ResultChunk* out) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (queue_.empty() && !closed_) cv_data_.Wait(&mu_);
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

// Per-worker chunk staging: each pool worker owns one slot and appends cell
// outputs there lock-free (one worker thread = one running task at a time,
// and slots belong to a single stream even when several streams share a
// pool). Full chunks are carved off the back -- O(chunk) with no front
// shifting; chunk order across workers is irrelevant, the result is a
// multiset -- and pushed to the bounded queue, where a full queue blocks
// only the pushing worker.
struct WorkerSlot {
  JoinResult buffer;
  JoinStats stats;
};

// Carves full chunks out of `slot` and ships them. Returns false once the
// stream is cancelled. With flush_tail, also ships the final partial chunk.
//
// may_block selects the backpressure mode. Streams on their own private
// pool (RunJoinAsync) block the pushing worker when the queue is full --
// the hard memory bound. Streams on a *shared* pool (JoinService) must
// never park a pool worker on one consumer's backpressure (with sequential
// consumers that deadlocks every stream on the pool), so a full queue
// leaves the pairs staged in the slot; the producer's final drain, which
// runs on a dispatcher thread and may safely block, ships the remainder.
bool FlushSlot(WorkerSlot* slot, StreamState* state, std::size_t chunk_pairs,
               bool flush_tail, bool may_block) {
  std::vector<ResultPair>& pairs = slot->buffer.mutable_pairs();
  for (;;) {
    if (pairs.size() < chunk_pairs && !(flush_tail && !pairs.empty())) {
      return true;
    }
    // Carve from the back: O(chunk), no front shifting; chunk order across
    // workers is irrelevant, the result is a multiset.
    std::vector<ResultPair> chunk;
    if (pairs.size() <= chunk_pairs) {
      chunk = std::move(pairs);
      pairs.clear();
    } else {
      chunk.assign(pairs.end() - chunk_pairs, pairs.end());
      pairs.resize(pairs.size() - chunk_pairs);
    }
    if (may_block) {
      if (!state->Push(std::move(chunk))) return false;
    } else {
      const auto result = state->TryPush(&chunk);
      if (result == StreamState::PushResult::kCancelled) return false;
      if (result == StreamState::PushResult::kFull) {
        // Restage and stop: a later flush or the final drain ships it.
        pairs.insert(pairs.end(), chunk.begin(), chunk.end());
        return true;
      }
    }
  }
}

// Id lists + dedup tile of one populated grid cell, shared with the task
// closure (std::function requires copyable captures).
struct CellWork {
  Box dedup_tile;
  std::vector<ObjectId> r_ids;
  std::vector<ObjectId> s_ids;
};

// An object with its precomputed grid tile range: TileRange runs once, in
// the bucketing prologue, and the per-band assignment reuses the stored
// range instead of re-deriving it.
struct PlacedObject {
  ObjectId id;
  int tx0, ty0, tx1, ty1;
};

// The native streaming producer: banded plan/execute overlap on a TaskGraph.
//
// Serial prologue (the only part ordered before everything): compute the
// extent, size the grid, and bucket both inputs into contiguous row bands by
// a row-range scan. Then each band becomes a *plan task* that builds the
// band's per-cell id lists and dynamically adds one join task per populated
// cell -- so while band k's cells are joining (and their chunks are already
// streaming out), band k+1 is still being partitioned. Dedup is the same
// reference-point rule against the same global grid tiles as the
// synchronous driver, which is why the output multiset is identical.
void RunNativeProducer(const Dataset& r, const Dataset& s, EngineConfig config,
                       TileJoin tile_join, StreamOptions opts,
                       ThreadPool* shared_pool,
                       std::shared_ptr<StreamState> state) {
  StageTiming timing;
  Stopwatch plan_sw;
  obs::ScopedSpan plan_span(config.trace, "plan");

  if (config.validate_inputs) {
    for (const Dataset* d : {&r, &s}) {
      Status st = d->ValidateBoxes();
      if (!st.ok()) {
        state->Close(std::move(st), JoinStats{}, timing);
        return;
      }
    }
  }
  // One shared grid decision (DeriveJoinGrid) keeps the banded streaming
  // shards identical to PlanPartitionedCells' and the dist ShardPlanner's.
  const JoinGridSpec spec =
      DeriveJoinGrid(r, s, config.grid_cols, config.grid_rows);
  if (!spec.has_grid) {
    state->Close(Status::OK(), JoinStats{}, timing);
    return;
  }
  const int cols = spec.cols;
  const int rows = spec.rows;
  const UniformGrid grid(spec.extent, cols, rows);

  const int shards =
      opts.num_shards > 0
          ? std::min(opts.num_shards, rows)
          : std::min<int>(rows,
                          std::max<int>(2, static_cast<int>(
                                               config.num_threads)));
  std::vector<int> band_begin(shards + 1);
  for (int b = 0; b <= shards; ++b) {
    band_begin[b] = static_cast<int>(
        static_cast<long long>(b) * rows / shards);
  }
  std::vector<int> row_band(rows);
  for (int b = 0; b < shards; ++b) {
    for (int y = band_begin[b]; y < band_begin[b + 1]; ++y) row_band[y] = b;
  }

  // Bucketing: the one serial O(n) pass. Each object's tile range is
  // computed exactly once (the same TileRange work the synchronous Prepare
  // pays) and stored with the id, so the per-band plan tasks only
  // distribute ids into cells.
  std::vector<std::vector<PlacedObject>> band_r(shards), band_s(shards);
  const auto bucket = [&](const Dataset& d,
                          std::vector<std::vector<PlacedObject>>& bands) {
    for (auto& band : bands) band.reserve(d.size() / shards + 1);
    for (std::size_t i = 0; i < d.size(); ++i) {
      PlacedObject p;
      p.id = static_cast<ObjectId>(i);
      grid.TileRange(d.box(i), &p.tx0, &p.ty0, &p.tx1, &p.ty1);
      for (int b = row_band[p.ty0]; b <= row_band[p.ty1]; ++b) {
        bands[b].push_back(p);
      }
    }
  };
  bucket(r, band_r);
  bucket(s, band_s);
  timing.plan_seconds = plan_sw.ElapsedSeconds();
  plan_span.End();

  obs::ScopedSpan exec_span(config.trace, "execute");
  Stopwatch exec_sw;
  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = shared_pool;
  // Workers on an exclusive pool may block on backpressure (hard memory
  // bound); workers on a shared pool must not (see FlushSlot).
  const bool exclusive_pool = shared_pool == nullptr;
  if (pool == nullptr) {
    owned_pool.emplace(std::max<std::size_t>(1, config.num_threads));
    pool = &*owned_pool;
  }

  const std::size_t chunk_pairs = std::max<std::size_t>(1, opts.chunk_pairs);
  std::vector<WorkerSlot> slots(pool->num_threads());
  TaskGraph graph(pool, state->token(), exec_span.context(), state->usage());

  for (int b = 0; b < shards; ++b) {
    graph.Add([&, b] {
      const int row0 = band_begin[b];
      const int row1 = band_begin[b + 1];
      if (row0 >= row1) return;
      const int band_tiles = (row1 - row0) * cols;
      std::vector<std::vector<ObjectId>> r_cells(band_tiles);
      std::vector<std::vector<ObjectId>> s_cells(band_tiles);
      const auto assign = [&](const std::vector<PlacedObject>& placed,
                              std::vector<std::vector<ObjectId>>& cells) {
        for (const PlacedObject& p : placed) {
          for (int ty = std::max(p.ty0, row0);
               ty <= std::min(p.ty1, row1 - 1); ++ty) {
            for (int tx = p.tx0; tx <= p.tx1; ++tx) {
              cells[(ty - row0) * cols + tx].push_back(p.id);
            }
          }
        }
      };
      assign(band_r[b], r_cells);
      assign(band_s[b], s_cells);

      auto cells = std::make_shared<std::vector<CellWork>>();
      for (int t = 0; t < band_tiles; ++t) {
        if (r_cells[t].empty() || s_cells[t].empty()) continue;
        CellWork work;
        const int global_tile = (row0 + t / cols) * cols + t % cols;
        work.dedup_tile = grid.DedupTileByIndex(global_tile);
        work.r_ids = std::move(r_cells[t]);
        work.s_ids = std::move(s_cells[t]);
        cells->push_back(std::move(work));
      }
      if (cells->empty()) return;
      // Largest cells first, then strided groups: group g joins cells
      // g, g+G, g+2G, ... -- balanced batches that amortise per-task
      // dispatch over many (often tiny) cells. The per-wave group budget
      // (kCellTaskGroupsPerWorker * workers, shared with the sync driver)
      // is split across the bands so both paths dispatch at the same
      // granularity.
      std::sort(cells->begin(), cells->end(),
                [](const CellWork& a, const CellWork& b) {
                  return a.r_ids.size() * a.s_ids.size() >
                         b.r_ids.size() * b.s_ids.size();
                });
      const std::size_t groups = std::min(
          cells->size(),
          std::max<std::size_t>(
              1, kCellTaskGroupsPerWorker * pool->num_threads() /
                     static_cast<std::size_t>(shards)));
      for (std::size_t g = 0; g < groups; ++g) {
        graph.Add([&, cells, g, groups] {
          WorkerSlot& slot = slots[pool->CurrentWorkerIndex()];
          for (std::size_t i = g; i < cells->size(); i += groups) {
            const CellWork& work = (*cells)[i];
            RunTileJoin(tile_join, r, s, work.r_ids, work.s_ids,
                        &work.dedup_tile, &slot.buffer, &slot.stats);
            // Stream full chunks as soon as they exist; stop early if the
            // consumer cancelled.
            if (!FlushSlot(&slot, state.get(), chunk_pairs,
                           /*flush_tail=*/false, exclusive_pool)) {
              return;
            }
          }
          // Group boundary: ship the partial chunk too, so consumers see
          // results at cell-group granularity instead of only at the end.
          FlushSlot(&slot, state.get(), chunk_pairs, /*flush_tail=*/true,
                    exclusive_pool);
        });
      }
    });
  }
  graph.Wait();

  JoinStats stats;
  for (WorkerSlot& slot : slots) stats += slot.stats;
  if (state->cancelled()) {
    timing.execute_seconds = exec_sw.ElapsedSeconds();
    state->Close(Status::Aborted("join cancelled mid-stream"), stats, timing);
    return;
  }
  // Final drain runs on the producer thread (or a service dispatcher) --
  // never on a pool worker -- so it may block on backpressure in both
  // modes, shipping whatever the shared-pool mode left staged.
  for (WorkerSlot& slot : slots) {
    if (!FlushSlot(&slot, state.get(), chunk_pairs, /*flush_tail=*/true,
                   /*may_block=*/true)) {
      timing.execute_seconds = exec_sw.ElapsedSeconds();
      state->Close(Status::Aborted("join cancelled mid-stream"), stats,
                   timing);
      return;
    }
  }
  timing.execute_seconds = exec_sw.ElapsedSeconds();
  state->Close(Status::OK(), stats, timing);
}

// Coalesces arbitrary-size producer batches into bounded chunks for the
// stream queue: batches accumulate in a staging buffer and full chunks are
// carved from the back (order across chunks is irrelevant -- the result is
// a multiset; carving the front would shift the residue on every carve).
// The native batch granularities of the accelerator and cluster engines
// (write-unit bursts, committed shards) are unbounded in both directions.
class ChunkStager {
 public:
  ChunkStager(std::size_t chunk_pairs, StreamState* state)
      : chunk_pairs_(std::max<std::size_t>(1, chunk_pairs)), state_(state) {}

  /// Adds one producer batch, shipping any full chunks. Batches are
  /// dropped once a push has failed (the consumer cancelled).
  void Add(std::vector<ResultPair> batch) {
    if (push_failed_) return;
    if (staged_.empty()) {
      staged_ = std::move(batch);
    } else {
      staged_.insert(staged_.end(), batch.begin(), batch.end());
    }
    while (!push_failed_ && staged_.size() >= chunk_pairs_) {
      std::vector<ResultPair> chunk;
      if (staged_.size() == chunk_pairs_) {
        chunk = std::move(staged_);
        staged_.clear();
      } else {
        chunk.assign(staged_.end() - chunk_pairs_, staged_.end());
        staged_.resize(staged_.size() - chunk_pairs_);
      }
      if (!state_->Push(std::move(chunk))) push_failed_ = true;
    }
  }

  /// Adds a finished result as chunk-sized copies, front to back. Moving
  /// the whole buffer in instead would ship it as the last chunk, keeping
  /// the full result allocated until the consumer pops it; this way the
  /// caller frees it as soon as the last slice is queued.
  void AddSlices(const std::vector<ResultPair>& pairs) {
    for (std::size_t off = 0; off < pairs.size() && !push_failed_;
         off += chunk_pairs_) {
      const std::size_t end = std::min(off + chunk_pairs_, pairs.size());
      Add({pairs.begin() + off, pairs.begin() + end});
    }
  }

  /// Ships the final partial chunk of a successful run. Returns false when
  /// any push failed (the stream should close Aborted).
  bool FlushTail() {
    if (!push_failed_ && !staged_.empty()) {
      if (!state_->Push(std::move(staged_))) push_failed_ = true;
    }
    return !push_failed_;
  }

  bool push_failed() const { return push_failed_; }

 private:
  const std::size_t chunk_pairs_;
  StreamState* state_;
  std::vector<ResultPair> staged_;
  bool push_failed_ = false;
};

// Runs `plan` on `engine`, feeding the results to `stager`. The accelerator
// and cluster engines stream natively: every write-unit flush (a BFS
// level's leaf pairs, a PBSM tile batch, a multi-device shard's
// deduplicated output) or committed shard surfaces as chunks while the
// simulated device or the other nodes still run. Cancellation reaches the
// cluster itself through the stream's token; the simulated kernel runs to
// completion and further pushes are dropped. Every other engine's finished
// result is chunked.
Status ExecuteIntoStager(JoinEngine& engine, const PreparedPlan& plan,
                         StreamState* state, ChunkStager* stager,
                         JoinStats* stats) {
  if (auto* accel = dynamic_cast<AccelJoinEngine*>(&engine)) {
    return accel->ExecuteStreaming(
        plan,
        [stager](std::vector<ResultPair> batch) {
          stager->Add(std::move(batch));
        },
        stats);
  }
  if (auto* cluster = dynamic_cast<dist::DistJoinEngine*>(&engine)) {
    Status st = cluster->ExecuteStreaming(
        plan,
        [stager](int, std::vector<ResultPair> batch) {
          stager->Add(std::move(batch));
        },
        stats, state->token());
    // Shard retries are this request's fault-recovery cost; surface them in
    // the per-request accounting alongside CPU and bytes.
    state->usage()->AddRetries(
        static_cast<uint64_t>(cluster->last_report().retried_shards));
    return st;
  }
  JoinResult result;
  Status st = engine.ExecutePrepared(plan, &result, stats);
  if (st.ok()) stager->AddSlices(result.pairs());
  return st;
}

// Where a producer's plan comes from: the engine's own Prepare over
// borrowed datasets (cold), or the registry's plan cache (warm, where a hit
// makes the plan stage just the cache lookup).
using PlanSource =
    std::function<Result<std::shared_ptr<const PreparedPlan>>(JoinEngine&)>;

// The producer of every engine outside the banded native path: instantiate
// the engine and fetch its plan (both billed to plan_seconds, as
// RunPreparedJoin bills instantiation), then execute into the chunk stager.
// The fetched plan pins its datasets for the whole execution, so a
// concurrent re-Put of a registered name cannot pull the data out from
// under the join.
void RunPreparedProducer(const std::string& engine_name,
                         const EngineConfig& config, const PlanSource& source,
                         StreamOptions opts,
                         std::shared_ptr<StreamState> state) {
  StageTiming timing;
  Stopwatch sw;
  obs::ScopedSpan plan_span(config.trace, "plan");
  auto engine = EngineRegistry::Global().Create(engine_name, config);
  Result<std::shared_ptr<const PreparedPlan>> plan =
      engine.ok() ? source(**engine)
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
  // The execute span is a sibling of the cluster coordinator's merge span
  // (both parented on the request): engines froze their trace context at
  // creation, before this span existed.
  obs::ScopedSpan exec_span(config.trace, "execute");
  sw.Reset();
  JoinStats stats;
  ChunkStager stager(opts.chunk_pairs, state.get());
  Status st = ExecuteIntoStager(**engine, **plan, state.get(), &stager, &stats);
  if (st.ok()) stager.FlushTail();
  timing.execute_seconds = sw.ElapsedSeconds();
  exec_span.End();
  if (st.ok() && (stager.push_failed() || state->cancelled())) {
    st = Status::Aborted("join cancelled mid-stream");
  }
  state->Close(std::move(st), stats, timing);
}

bool IsNativeStreamingEngine(const std::string& name) {
  return name == kPartitionedEngine || name == kSimdEngine ||
         name == kAsyncEngine;
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

// The same fail-fast grid checks the partitioned engine's Prepare applies,
// so RunJoinAsync rejects bad grids before spawning a producer and the
// sync/streaming paths cannot drift apart.
Status ValidateNativeConfig(const EngineConfig& config) {
  return ValidateGridConfig(config.grid_cols, config.grid_rows);
}

// The "async" registry entry: Prepare validates, ExecutePrepared runs the
// native streaming pipeline and Collect()s it. Registering this class is
// what puts the entire streaming machinery -- producer thread, banded
// TaskGraph, bounded chunk queue, Collect -- under the equivalence oracle.
// No index/partition build at Prepare: the banded planner runs inside each
// execution, overlapped with the joins it feeds -- that overlap is the
// engine's whole reason to exist.
class AsyncCollectEngine : public EngineBase<InputsOnlyPlan> {
 public:
  explicit AsyncCollectEngine(const EngineConfig& config)
      : EngineBase(kAsyncEngine, config) {}

 protected:
  Status Validate() override { return ValidateNativeConfig(config()); }

  Status ExecuteImpl(const InputsOnlyPlan& plan, JoinResult* out,
                     JoinStats* stats) override {
    EngineConfig config = this->config();
    config.validate_inputs = false;  // already validated at Prepare
    auto handle = RunJoinAsync(kAsyncEngine, plan.r(), plan.s(), config);
    if (!handle.ok()) return handle.status();
    StreamSummary summary = handle->Collect();
    if (!summary.status.ok()) return summary.status;
    *out = std::move(summary.run.result);
    if (stats != nullptr) *stats += summary.run.stats;
    return Status::OK();
  }
};

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

}  // namespace internal

Result<DeferredStream> MakeJoinStream(const std::string& engine,
                                      const Dataset& r, const Dataset& s,
                                      const EngineConfig& config,
                                      const StreamOptions& stream,
                                      ThreadPool* pool) {
  if (config.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  auto state = std::make_shared<StreamState>(stream.queue_capacity);
  std::function<void()> body;
  if (IsNativeStreamingEngine(engine)) {
    SWIFT_RETURN_IF_ERROR(ValidateNativeConfig(config));
    const TileJoin tile_join =
        engine == kSimdEngine ? TileJoin::kSimd : config.tile_join;
    body = [&r, &s, config, tile_join, stream, pool, state] {
      RunNativeProducer(r, s, config, tile_join, stream, pool, state);
    };
  } else {
    // Config errors the accelerator and cluster can reject without the data
    // fail fast here; the simulated device and the cluster ignore `pool`
    // (see ExecuteIntoStager).
    if (IsAccelEngine(engine)) {
      SWIFT_RETURN_IF_ERROR(ValidateAccelConfig(config));
    } else if (dist::IsDistEngine(engine)) {
      SWIFT_RETURN_IF_ERROR(dist::ValidateDistConfig(config));
    } else if (!EngineRegistry::Global().Contains(engine)) {
      return Status::NotFound("no registered engine: " + engine);
    }
    PlanSource source = [&r, &s](JoinEngine& e) {
      return e.Prepare(BorrowDataset(r), BorrowDataset(s));
    };
    body = [engine, config, source, stream, state] {
      RunPreparedProducer(engine, config, source, stream, state);
    };
  }
  return internal::MakeDeferredStream(engine, stream, std::move(state),
                                      std::move(body));
}

Result<AsyncJoinHandle> RunJoinAsync(const std::string& engine,
                                     const Dataset& r, const Dataset& s,
                                     const EngineConfig& config,
                                     const StreamOptions& stream) {
  auto deferred = MakeJoinStream(engine, r, s, config, stream,
                                 /*pool=*/nullptr);
  if (!deferred.ok()) return deferred.status();
  DeferredStream d = std::move(*deferred);
  d.handle.producer_ = std::thread(std::move(d.producer));
  return std::move(d.handle);
}

Result<DeferredStream> MakeRegisteredJoinStream(
    DatasetRegistry* registry, const std::string& engine,
    const std::string& r_name, const std::string& s_name,
    const EngineConfig& config, const StreamOptions& stream) {
  if (registry == nullptr) {
    return Status::InvalidArgument(
        "MakeRegisteredJoinStream requires a registry");
  }
  if (config.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  // Fail fast on unknown engines and unregistered names, so admission-time
  // callers (JoinService::SubmitNamed) can reject bad requests before
  // queueing them. The producer re-resolves at run time and uses whatever
  // version is then current.
  if (!EngineRegistry::Global().Contains(engine)) {
    return Status::NotFound("no registered engine: " + engine);
  }
  for (const std::string* name : {&r_name, &s_name}) {
    auto resident = registry->Get(*name);
    if (!resident.ok()) return resident.status();
  }
  auto state = std::make_shared<StreamState>(stream.queue_capacity);
  PlanSource source = [registry, engine, r_name, s_name,
                       config](JoinEngine&) {
    return registry->GetOrPrepare(engine, r_name, s_name, config);
  };
  std::function<void()> body = [engine, config, source, stream, state] {
    RunPreparedProducer(engine, config, source, stream, state);
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
  auto deferred =
      MakeRegisteredJoinStream(&registry, engine, r_name, s_name, config,
                               stream);
  if (!deferred.ok()) return deferred.status();
  DeferredStream d = std::move(*deferred);
  d.handle.producer_ = std::thread(std::move(d.producer));
  return std::move(d.handle);
}

std::unique_ptr<JoinEngine> MakeAsyncJoinEngine(const EngineConfig& config) {
  return std::make_unique<AsyncCollectEngine>(config);
}

}  // namespace swiftspatial::exec
