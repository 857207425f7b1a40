#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/log.h"

namespace swiftspatial {

const char* ScheduleToString(Schedule s) {
  switch (s) {
    case Schedule::kStatic:
      return "static";
    case Schedule::kDynamic:
      return "dynamic";
  }
  return "unknown";
}

namespace {

// Identity of the pool worker running the current thread, if any. Written
// once per worker thread at startup; lets CurrentWorkerIndex distinguish
// "one of my workers" from "some other pool's worker" without a registry.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  std::size_t index = ThreadPool::kNotAWorker;
};
thread_local WorkerIdentity t_worker;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  SWIFT_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_task_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    queue_.push(std::move(task));
    ++outstanding_;
  }
  cv_task_.NotifyOne();
}

void ThreadPool::Wait() {
  // Waiting from a worker can never finish: the calling task is itself part
  // of the outstanding count.
  SWIFT_CHECK(CurrentWorkerIndex() == kNotAWorker);
  MutexLock lock(&mu_);
  while (outstanding_ != 0) cv_done_.Wait(&mu_);
}

std::size_t ThreadPool::CurrentWorkerIndex() const {
  return t_worker.pool == this ? t_worker.index : kNotAWorker;
}

void ThreadPool::WorkerLoop(std::size_t worker_index) {
  t_worker.pool = this;
  t_worker.index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) cv_task_.Wait(&mu_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(&mu_);
      --outstanding_;
      if (outstanding_ == 0) cv_done_.NotifyAll();
    }
  }
}

namespace {

using Clock = std::chrono::steady_clock;
using Body = std::function<void(std::size_t, std::size_t)>;

// Slot spans shorter than this are elided from the trace buffer; 100us
// keeps every timeline-visible slot while bounding trace overhead.
constexpr double kSlotSpanFloorSeconds = 100e-6;

// The wave slot running on this thread, for YieldWaveSlot; saved and
// restored around every slot, so nested waves see their own.
struct Slot {
  bool may_yield = false;  // a pool slot: the caller's own never yields
  bool yielded = false;
};
thread_local Slot* t_slot = nullptr;

// What a wave's slots share. Owned by the caller and by every slot task, so
// a slot that starts after the wave returned still finds it; `body` and the
// context's pointees live on the caller's stack and are touched only by
// slots admitted before the caller closed the wave.
struct WaveState {
  // Read by every claim, written only before the slots start.
  std::size_t n = 0;
  std::size_t chunk = 0;  // 0: kStatic, `width` contiguous ranges
  std::size_t width = 1;
  const Body* body = nullptr;
  WaveContext wave;
  // The next claim, a range index or a first index: whichever slot is free
  // -- the caller included -- takes it, so late slots' claims are not lost.
  // Every claim writes it, so it has a cache line of its own: sharing one
  // with the fields above would make each claim miss on them in every
  // other slot.
  alignas(64) std::atomic<std::size_t> next{0};
  alignas(64) Mutex mu;
  CondVar cv_done;
  std::size_t next_slot GUARDED_BY(mu) = 1;  // the caller is slot 0
  std::size_t running GUARDED_BY(mu) = 0;    // admitted, unfinished slots
  bool closed GUARDED_BY(mu) = false;        // the caller stopped claiming

  // Takes the next claim [*begin, *end); false once the claims are used up
  // or the token reads cancelled.
  bool Claim(std::size_t* begin, std::size_t* end) {
    if (wave.cancel.cancelled()) return false;
    if (chunk == 0) {
      const std::size_t k = next.fetch_add(1);
      *begin = n * std::min(k, width) / width;
      *end = n * std::min(k + 1, width) / width;
    } else {
      *begin = std::min(next.fetch_add(chunk), n);
      *end = std::min(*begin + chunk, n);
    }
    return *begin < *end;
  }
};

// Runs claims as slot `slot` until they are used up, the token cancels or
// (pool slots only) the body yields; bills the slot's CPU, records its span.
void RunSlot(WaveState& state, std::size_t slot, bool pool_slot) {
  const WaveContext& wave = state.wave;
  obs::ScopedCpuCharge charge(wave.usage);
  Slot self{pool_slot, false};
  Slot* const outer = std::exchange(t_slot, &self);
  std::optional<obs::ScopedSpan> span;
  std::optional<obs::ScopedLogTrace> log_trace;
  if (wave.trace.active()) {
    // Laned by pool worker (0 off the pool), so the Chrome trace shows the
    // wave's actual parallelism; records logged by the body join the span.
    const std::size_t worker = wave.pool != nullptr
                                   ? wave.pool->CurrentWorkerIndex()
                                   : ThreadPool::kNotAWorker;
    span.emplace(wave.trace, "task", static_cast<int>(worker) + 1);
    span->SetMinRecordSeconds(kSlotSpanFloorSeconds);
    span->AddAttr("slot", std::to_string(slot));
    log_trace.emplace(wave.trace.trace_id(), span->span_id());
  }
  std::size_t begin = 0;
  std::size_t end = 0;
  while (!self.yielded && state.Claim(&begin, &end)) {
    for (std::size_t i = begin; i < end; ++i) (*state.body)(i, slot);
  }
  t_slot = outer;
}

void RunWave(std::size_t n, std::size_t num_threads, Schedule schedule,
             const Body& body, std::size_t chunk, const WaveContext& wave) {
  if (n == 0) return;
  SWIFT_CHECK_GE(chunk, 1u);
  auto state = std::make_shared<WaveState>();
  state->n = n;
  state->chunk = schedule == Schedule::kStatic ? 0 : chunk;
  state->body = &body;
  state->wave = wave;
  if (num_threads > 1 && state->wave.pool == nullptr) {
    state->wave.pool = &ThreadPool::Shared();
  }
  if (num_threads > 1) {
    state->width = std::min({num_threads, state->wave.pool->num_threads() + 1,
                             state->chunk == 0 ? n : (n + chunk - 1) / chunk});
  }
  const Clock::time_point submitted = Clock::now();
  for (std::size_t i = 1; i < state->width; ++i) {
    state->wave.pool->Submit([state, submitted] {
      std::size_t slot;
      {
        MutexLock lock(&state->mu);
        if (state->closed) return;  // late: the caller ran every claim
        slot = state->next_slot++;
        ++state->running;
      }
      if (state->wave.usage != nullptr) {
        state->wave.usage->AddTaskWaitSeconds(
            std::chrono::duration<double>(Clock::now() - submitted).count());
      }
      RunSlot(*state, slot, /*pool_slot=*/true);
      MutexLock lock(&state->mu);
      // Under the lock: the caller may return the moment it sees 0.
      if (--state->running == 0) state->cv_done.NotifyAll();
    });
  }
  RunSlot(*state, 0, /*pool_slot=*/false);
  MutexLock lock(&state->mu);
  state->closed = true;
  while (state->running != 0) state->cv_done.Wait(&state->mu);
}

}  // namespace

ThreadPool& ThreadPool::Shared() {
  // Never destroyed: waves may still reach it from static destructors.
  static ThreadPool* const pool = new ThreadPool(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  return *pool;
}

bool ThreadPool::OnWorkerThread() { return t_worker.pool != nullptr; }

void ParallelFor(std::size_t n, std::size_t num_threads, Schedule schedule,
                 const std::function<void(std::size_t)>& body,
                 std::size_t chunk, const WaveContext& wave) {
  RunWave(
      n, num_threads, schedule,
      [&body](std::size_t i, std::size_t) { body(i); }, chunk, wave);
}

void ParallelForWorker(
    std::size_t n, std::size_t num_threads, Schedule schedule,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t chunk, const WaveContext& wave) {
  RunWave(n, num_threads, schedule, body, chunk, wave);
}

bool YieldWaveSlot() {
  if (t_slot == nullptr || !t_slot->may_yield) return false;
  t_slot->yielded = true;
  return true;
}

bool WaveSlotYielded() { return t_slot != nullptr && t_slot->yielded; }

}  // namespace swiftspatial
