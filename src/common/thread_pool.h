// Fixed-size worker pool plus the one way the library runs parallel work: a
// wave, i.e. ParallelFor/ParallelForWorker on a pool, with the two
// OpenMP-style scheduling policies the paper evaluates for its
// multi-threaded CPU baselines (§5.1): static (equal contiguous ranges) and
// dynamic (chunks claimed from a shared atomic counter).
#ifndef SWIFTSPATIAL_COMMON_THREAD_POOL_H_
#define SWIFTSPATIAL_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "exec/cancellation.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace swiftspatial {

/// Task scheduling policy for ParallelFor, mirroring OpenMP's
/// schedule(static) and schedule(dynamic).
enum class Schedule {
  kStatic,
  kDynamic,
};

const char* ScheduleToString(Schedule s);

/// A fixed-size thread pool executing void() tasks, started at construction
/// and joined at destruction.
///
/// Concurrency contract:
///  - Submit() is thread-safe, also from inside a running task; such a child
///    is covered by any Wait() that covers its parent (it is counted as
///    outstanding before the parent retires).
///  - Wait() may run concurrently with Submit() and from several threads;
///    it returns at an instant when no task is queued or running. It must
///    not be called from a worker thread (checked): the calling task is
///    itself outstanding. Waves never call it.
class ThreadPool {
 public:
  /// Sentinel returned by CurrentWorkerIndex() off the pool's threads.
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool that waves without a pool of their own run on:
  /// created on first use with std::thread::hardware_concurrency() workers
  /// (at least one) and never destroyed.
  static ThreadPool& Shared();

  /// True when the calling thread is a worker of any pool.
  static bool OnWorkerThread();

  void Submit(std::function<void()> task) EXCLUDES(mu_);
  void Wait() EXCLUDES(mu_);

  std::size_t num_threads() const { return workers_.size(); }

  /// Index of the calling thread within this pool (0..num_threads-1), or
  /// kNotAWorker off this pool's workers.
  std::size_t CurrentWorkerIndex() const;

 private:
  void WorkerLoop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_task_;
  CondVar cv_done_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mu_);
  std::size_t outstanding_ GUARDED_BY(mu_) = 0;  // queued + running tasks
  bool stop_ GUARDED_BY(mu_) = false;
};

/// What a wave runs under. Default: the process-wide pool, never cancelled,
/// untraced, unbilled.
struct WaveContext {
  /// The pool the wave's slot tasks run on; null selects ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  /// Checked before every claim.
  exec::CancellationToken cancel;
  /// When active, every slot records a "task" span (elided under 100 us).
  obs::TraceContext trace;
  /// When non-null, every slot bills its thread-CPU time here
  /// (obs::ScopedCpuCharge), and every pool slot its queue wait.
  obs::ResourceAccumulator* usage = nullptr;
};

/// Runs `body(i)` for every i in [0, n) as one wave, returning once every
/// claimed index has run.
///
/// A wave of width w = min(num_threads, pool workers + 1, claims) runs on
/// the calling thread plus w - 1 slot tasks on the pool: it uses its
/// `num_threads` of the pool, never the whole pool, and width 1 runs inline
/// (without touching a pool, so without creating the shared one).
/// Slots take claims from one atomic counter: kStatic splits [0, n) into w
/// contiguous ranges, kDynamic hands out `chunk`-sized claims. Each claim
/// first checks `wave.cancel`; once cancelled, nothing more is claimed. A
/// slot task that starts after the claims are used up returns at once
/// without touching the caller's stack (the shared state is on the heap),
/// and the caller waits only for slots that started -- so a wave launched
/// from a worker of the same pool finishes even when every worker is busy.
void ParallelFor(std::size_t n, std::size_t num_threads, Schedule schedule,
                 const std::function<void(std::size_t)>& body,
                 std::size_t chunk = 1, const WaveContext& wave = {});

/// Variant that also passes the slot running the body: 0 for the caller,
/// 1..w-1 for pool slots, each used by one slot at a time, so callers can
/// keep per-slot accumulators (sized num_threads) without sharing.
void ParallelForWorker(
    std::size_t n, std::size_t num_threads, Schedule schedule,
    const std::function<void(std::size_t index, std::size_t worker)>& body,
    std::size_t chunk = 1, const WaveContext& wave = {});

/// From inside a wave body: asks the pool slot running it to stop claiming
/// after its current claim; the caller claims the rest. False, doing
/// nothing, outside pool slots (the caller's own slot never yields). The
/// streaming backpressure rule rides on it: no pool worker parks on a
/// consumer's full queue.
bool YieldWaveSlot();

/// True once YieldWaveSlot() succeeded in the pool slot running the caller.
bool WaveSlotYielded();

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_COMMON_THREAD_POOL_H_
