// Per-request resource accounting: the fourth pillar of src/obs/.
//
// A ResourceAccumulator rides along with one streaming request (it lives in
// the stream's shared state; exec::DeferredStream exposes it) and the
// execution layers feed it as the request runs:
//
//   - Every thread that works for the request bills its thread-CPU time
//     (clock_gettime(CLOCK_THREAD_CPUTIME_ID) around the work) through a
//     ScopedCpuCharge: the stream producer over its plan and execute stages,
//     and every slot of every wave (common/thread_pool.h) the request runs.
//     cpu_seconds is therefore the true compute cost summed across every
//     thread the request fanned out to -- on a multi-threaded wave it
//     exceeds wall time, which is exactly the signal. Wave slots that ran
//     on a pool also add the time their task queued, as task_wait_seconds.
//   - The stream state counts every chunk, pair, and byte pushed.
//   - The serving layer (exec::JoinService) adds its admission queue wait
//     and stamps wall time; the distributed engines add their shard
//     retries; the partitioned driver counts its cell groups as tasks.
//
// JoinService surfaces the aggregate in Snapshot() and as
// swiftspatial_service_* series, which is what makes a request's *cost*
// (not just its latency) visible -- the input any learned cost model or
// billing layer needs.
//
// All mutators are relaxed atomics: accumulation is contention-tolerant
// (many workers, one accumulator) and never locks. Building with
// -DSWIFTSPATIAL_OBS_OFF compiles every mutator and the clock reads to
// empty inline bodies.
#ifndef SWIFTSPATIAL_OBS_RESOURCE_H_
#define SWIFTSPATIAL_OBS_RESOURCE_H_

#include <atomic>
#include <cstdint>

namespace swiftspatial::obs {

/// What one request cost, as a plain value snapshot.
struct ResourceUsage {
  /// Producer wall time: dispatcher pickup to stream close.
  double wall_seconds = 0;
  /// Thread-CPU time summed over every thread that worked for the request
  /// (the producer's plan and execute stages plus every wave slot); > wall
  /// on multi-threaded fan-out, ~wall single-threaded, < wall when the
  /// request mostly waited (backpressure).
  double cpu_seconds = 0;
  /// The service admission wait: submission to dispatcher pickup. A layer
  /// of the request's latency.
  double queue_wait_seconds = 0;
  /// Pool queue wait summed over the wave slots the request submitted. A
  /// cost, not a layer: parallel slots wait at once, so the sum may exceed
  /// the request's latency.
  double task_wait_seconds = 0;
  /// Work items: the partitioned driver's cell groups (the partitioned,
  /// simd and pbsm engines); 0 for every other engine.
  uint64_t tasks = 0;
  uint64_t chunks = 0;
  uint64_t pairs = 0;
  /// Result bytes shipped through the stream queue (pairs * sizeof pair).
  uint64_t bytes = 0;
  /// Distributed shard retries this request triggered (node failures).
  uint64_t retries = 0;
};

/// Thread-safe accumulator for one request's ResourceUsage. Mutators are
/// lock-free relaxed atomics; Snapshot() is a consistent-enough read of
/// each field (fields may be mutually unsynchronized mid-run, final once
/// the request's stream closes).
class ResourceAccumulator {
 public:
  ResourceAccumulator() = default;
  ResourceAccumulator(const ResourceAccumulator&) = delete;
  ResourceAccumulator& operator=(const ResourceAccumulator&) = delete;

  void AddCpuSeconds(double s) { AddDouble(&cpu_seconds_, s); }
  void AddQueueWaitSeconds(double s) { AddDouble(&queue_wait_seconds_, s); }
  void AddTaskWaitSeconds(double s) { AddDouble(&task_wait_seconds_, s); }
  void SetWallSeconds(double s) {
#ifndef SWIFTSPATIAL_OBS_OFF
    wall_seconds_.store(s, std::memory_order_relaxed);
#else
    (void)s;
#endif
  }
  void AddTasks(uint64_t n = 1) { AddUint(&tasks_, n); }
  void AddChunk(uint64_t pairs, uint64_t bytes) {
    AddUint(&chunks_, 1);
    AddUint(&pairs_, pairs);
    AddUint(&bytes_, bytes);
  }
  void AddRetries(uint64_t n) { AddUint(&retries_, n); }

  ResourceUsage Snapshot() const {
    ResourceUsage u;
#ifndef SWIFTSPATIAL_OBS_OFF
    u.wall_seconds = wall_seconds_.load(std::memory_order_relaxed);
    u.cpu_seconds = cpu_seconds_.load(std::memory_order_relaxed);
    u.queue_wait_seconds = queue_wait_seconds_.load(std::memory_order_relaxed);
    u.task_wait_seconds = task_wait_seconds_.load(std::memory_order_relaxed);
    u.tasks = tasks_.load(std::memory_order_relaxed);
    u.chunks = chunks_.load(std::memory_order_relaxed);
    u.pairs = pairs_.load(std::memory_order_relaxed);
    u.bytes = bytes_.load(std::memory_order_relaxed);
    u.retries = retries_.load(std::memory_order_relaxed);
#endif
    return u;
  }

 private:
  static void AddDouble(std::atomic<double>* target, double delta) {
#ifndef SWIFTSPATIAL_OBS_OFF
    double cur = target->load(std::memory_order_relaxed);
    while (!target->compare_exchange_weak(cur, cur + delta,
                                          std::memory_order_relaxed)) {
    }
#else
    (void)target;
    (void)delta;
#endif
  }
  static void AddUint(std::atomic<uint64_t>* target, uint64_t n) {
#ifndef SWIFTSPATIAL_OBS_OFF
    target->fetch_add(n, std::memory_order_relaxed);
#else
    (void)target;
    (void)n;
#endif
  }

  std::atomic<double> wall_seconds_{0};
  std::atomic<double> cpu_seconds_{0};
  std::atomic<double> queue_wait_seconds_{0};
  std::atomic<double> task_wait_seconds_{0};
  std::atomic<uint64_t> tasks_{0};
  std::atomic<uint64_t> chunks_{0};
  std::atomic<uint64_t> pairs_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> retries_{0};
};

/// CPU time consumed by the CALLING THREAD since it started
/// (CLOCK_THREAD_CPUTIME_ID). Differences around a task body give that
/// task's true compute cost regardless of preemption or how many other
/// threads share the core. 0 under SWIFTSPATIAL_OBS_OFF (or when the clock
/// is unavailable), making accumulation a no-op rather than a lie.
double ThreadCpuSeconds();

/// Bills the calling thread's CPU time over the scope to `usage` (nothing
/// when null). Scopes nest: a scope opened on a thread that already bills
/// `usage` bills nothing itself, so a thread's CPU is counted once however
/// the waves it runs nest inside each other and inside the producer.
class ScopedCpuCharge {
 public:
  explicit ScopedCpuCharge(ResourceAccumulator* usage);
  ~ScopedCpuCharge();
  ScopedCpuCharge(const ScopedCpuCharge&) = delete;
  ScopedCpuCharge& operator=(const ScopedCpuCharge&) = delete;

 private:
  ResourceAccumulator* usage_ = nullptr;  // null: an inner or unbilled scope
  ResourceAccumulator* outer_ = nullptr;  // the thread's charge before this
  double cpu0_ = 0;
};

}  // namespace swiftspatial::obs

#endif  // SWIFTSPATIAL_OBS_RESOURCE_H_
