// JoinService: the request-serving layer of the async execution subsystem.
//
// Where faas/service.{h,cc} *models* a queueing system analytically (§4.2's
// Amdahl-style kernel simulation), JoinService actually serves: concurrent
// tenants Submit() joins, admission control bounds the pending queue, a
// fixed dispatcher budget runs at most `max_concurrent` joins at once on a
// shared worker pool, and each admitted request streams its results back
// through the same AsyncJoinHandle contract as exec::RunJoinAsync --
// chunked, backpressured, cancellable mid-stream.
//
//   JoinServiceOptions options;
//   options.worker_threads = 8;
//   options.max_concurrent = 2;
//   options.policy = SchedulingPolicy::kFairShare;
//   JoinService service(options);
//   auto handle = service.Submit("tenant-a", "partitioned", r, s, config);
//   if (!handle.ok()) ...;              // rejected (queue full) or bad config
//   StreamSummary out = handle->Collect();
//
// Warm serving: the service owns a DatasetRegistry (or shares one passed in
// options), so steady-state tenants register their datasets once and then
// submit by name --
//
//   service.RegisterDataset("buildings", std::move(buildings));
//   service.RegisterDataset("roads", std::move(roads));
//   auto warm = service.SubmitNamed("tenant-a", "partitioned",
//                                   "buildings", "roads", config);
//
// -- and every request after the first skips Prepare entirely: the producer
// fetches the cached PreparedPlan (packed R-trees, grid assignments,
// ShardPlans) and goes straight to execution. Cache effectiveness shows up
// in Snapshot().plan_cache.
//
// Scheduling policies:
//  - kFcfs: strict arrival order. Simple, but one tenant's burst of long
//    analytical joins starves everyone behind it.
//  - kFairShare: least-served tenant first (by jobs running + completed,
//    FCFS within a tenant) -- the CPU analogue of instantiating several
//    smaller FPGA kernels so interactive tenants stop queueing behind
//    analytical ones (§4.2).
//
// Deadlines are enforced end-to-end, not just at admission: a request whose
// estimated queue wait already exceeds its budget is rejected immediately;
// one that expires while still queued is abandoned with DeadlineExceeded;
// and one that expires mid-run is cooperatively cancelled -- its stream
// closes DeadlineExceeded, or, with degrade_on_deadline, OK with the
// delivered prefix as the official partial result.
//
// Lifetime: the datasets passed to Submit must stay alive until that
// request's stream closes (SubmitNamed requests pin their registered
// datasets automatically through the cached plan). Destroying the service
// abandons queued requests (their handles report Aborted) and waits for
// running ones; consumers should drain or drop their handles promptly or
// the service will wait on their backpressure.
#ifndef SWIFTSPATIAL_EXEC_SERVICE_H_
#define SWIFTSPATIAL_EXEC_SERVICE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "datagen/dataset.h"
#include "exec/dataset_registry.h"
#include "exec/streaming.h"
#include "join/engine.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace swiftspatial::exec {

enum class SchedulingPolicy {
  kFcfs,
  kFairShare,
};

const char* SchedulingPolicyToString(SchedulingPolicy p);

struct JoinServiceOptions {
  /// Workers in the shared pool every request's waves run on (the compute
  /// budget all running requests divide; each request uses at most its
  /// num_threads of it: its dispatcher plus num_threads - 1 workers).
  std::size_t worker_threads = 4;
  /// Requests running at once; the rest queue. This is the serving-side
  /// analogue of the FPGA's kernel count.
  std::size_t max_concurrent = 2;
  /// Admission bound: Submit() rejects once this many requests queue.
  std::size_t max_pending = 16;
  SchedulingPolicy policy = SchedulingPolicy::kFcfs;
  /// Streaming knobs applied to every admitted request.
  StreamOptions stream;
  /// Seed for the per-job duration estimate that deadline-aware admission
  /// uses before any request has completed (see RequestOptions::
  /// deadline_seconds). Once jobs finish, an EWMA of measured durations
  /// takes over. 0 = optimistic: admit everything until measurements exist.
  double initial_job_seconds_estimate = 0;
  /// Half-life, in seconds, of the EWMA job-duration estimate while the
  /// service is idle: after one half-life with no completions the estimate
  /// halves, so a burst of slow analytical joins stops poisoning
  /// deadline-aware admission long after the burst ended. 0 disables decay
  /// (the estimate holds its last value forever).
  double ewma_idle_halflife_seconds = 30;
  /// Resident-dataset store backing SubmitNamed; pass one to share plans
  /// across services, leave null and the service creates its own.
  std::shared_ptr<DatasetRegistry> registry;
  /// Test seam: replaces the monotonic clock used for *duration
  /// measurement* (job EWMA, idle decay). Deadlines always run on the real
  /// steady clock -- a fake clock must not stall the watchdog.
  std::function<double()> clock_for_testing;
  /// Metrics sink for the swiftspatial_service_* series (and the registry
  /// this service creates, when it creates one); nullptr selects
  /// obs::MetricsRegistry::Global().
  obs::MetricsRegistry* metrics = nullptr;
  /// Span sink enabling request-scoped tracing: each Submit/SubmitNamed
  /// mints a TraceContext, wraps the request in request/queued spans, and
  /// propagates the context through the producer (EngineConfig::trace).
  /// nullptr (the default) disables tracing entirely.
  obs::SpanBuffer* span_buffer = nullptr;
};

/// Per-request knobs for Submit / SubmitNamed.
struct RequestOptions {
  /// Optional latency budget in seconds from submission, enforced at every
  /// stage of a request's life:
  ///  - admission: the estimated queue wait (queued+running load beyond the
  ///    free dispatcher slots, over max_concurrent, times the EWMA job
  ///    duration) already exceeds the budget -> rejected with
  ///    DeadlineExceeded in microseconds, so hopeless requests fail fast
  ///    while the client's own deadline is still live;
  ///  - queued: the budget expires before a dispatcher picks the request up
  ///    -> abandoned, the stream closes DeadlineExceeded;
  ///  - running: the budget expires mid-join -> cooperative cancellation
  ///    through the stream's token, the stream closes DeadlineExceeded (or
  ///    OK, see degrade_on_deadline).
  /// <= 0 means no deadline.
  double deadline_seconds = 0;
  /// Degraded-results mode for streaming consumers: when the deadline
  /// expires *mid-run*, close the stream OK instead of DeadlineExceeded --
  /// the chunks already delivered (a well-defined prefix) become the
  /// official, partial, result. Admission rejection and queued expiry still
  /// report DeadlineExceeded (no results exist to degrade to).
  bool degrade_on_deadline = false;
};

struct JoinServiceStats {
  std::size_t admitted = 0;
  /// Submissions bounced by admission control (queue full / shutdown).
  std::size_t rejected = 0;
  /// Of the rejected: bounced because the estimated queue wait already
  /// exceeded the request's deadline.
  std::size_t rejected_deadline = 0;
  std::size_t completed = 0;
  /// Requests closed with Aborted without ever running the join: queued at
  /// service shutdown, or cancelled by their consumer while queued.
  std::size_t abandoned = 0;
  /// Admitted requests whose deadline expired before a dispatcher picked
  /// them up; their streams closed DeadlineExceeded without running.
  std::size_t expired_queued = 0;
  /// Requests cancelled mid-run by deadline expiry.
  std::size_t expired_running = 0;
  /// Of expired_running: closed OK with a partial result instead of
  /// DeadlineExceeded (RequestOptions::degrade_on_deadline).
  std::size_t degraded = 0;
  /// High-water mark of the pending queue; never exceeds max_pending.
  std::size_t max_pending_seen = 0;
  /// Plan-artifact cache counters from the backing DatasetRegistry: the
  /// warm-serving effectiveness signal (hits = requests that skipped Prepare).
  PlanCacheStats plan_cache;
  /// Aggregate resource accounting over completed requests (including
  /// expired-mid-run ones -- their partial work was still paid for):
  /// summed wall/CPU/queue-wait/task-wait seconds, tasks, chunks, pairs,
  /// bytes, and shard retries. Per-request distributions are on the
  /// swiftspatial_service_request_* series.
  obs::ResourceUsage resources;
};

/// A multi-tenant spatial-join server over the streaming executor. All
/// methods are thread-safe.
class JoinService {
 public:
  explicit JoinService(const JoinServiceOptions& options);
  JoinService(const JoinService&) = delete;
  JoinService& operator=(const JoinService&) = delete;
  ~JoinService();

  /// Admits a join request for `tenant` (any label; used for fair-share
  /// accounting). On admission the returned handle streams the join's
  /// result chunks once a dispatcher picks the request up; Cancel() works
  /// both while queued and mid-stream. Fails with Aborted when the pending
  /// queue is full or the service is shutting down, or with the underlying
  /// configuration error.
  Result<AsyncJoinHandle> Submit(const std::string& tenant,
                                 const std::string& engine, const Dataset& r,
                                 const Dataset& s,
                                 const EngineConfig& config = {},
                                 const RequestOptions& request = {})
      EXCLUDES(mu_);

  /// The warm path: like Submit, but `r_name`/`s_name` reference datasets
  /// registered through RegisterDataset (or directly on registry()) instead
  /// of shipping boxes. Repeat requests hit the plan cache and skip Prepare
  /// entirely. Fails fast with NotFound for unknown engines or unregistered
  /// names.
  Result<AsyncJoinHandle> SubmitNamed(const std::string& tenant,
                                      const std::string& engine,
                                      const std::string& r_name,
                                      const std::string& s_name,
                                      const EngineConfig& config = {},
                                      const RequestOptions& request = {})
      EXCLUDES(mu_);

  /// Registers `dataset` in the backing registry (see DatasetRegistry::Put:
  /// re-registering bumps the version and invalidates cached plans).
  DatasetHandle RegisterDataset(std::string name, Dataset dataset);

  /// The backing resident-dataset store.
  DatasetRegistry& registry() { return *registry_; }

  /// Estimated queue wait a request submitted now would see, in seconds:
  /// zero while a dispatcher slot is free, otherwise the load beyond the
  /// remaining slots over max_concurrent, times the EWMA of measured job
  /// durations (seeded by initial_job_seconds_estimate, decayed while the
  /// service idles). The quantity deadline-aware admission compares against
  /// RequestOptions::deadline_seconds.
  double EstimatedQueueWaitSeconds() const EXCLUDES(mu_);

  /// Blocks until every admitted request has completed.
  void Drain() EXCLUDES(mu_);

  /// One consistent snapshot of the service counters AND the plan-cache
  /// counters: both reads happen while mu_ is held, so the pair cannot
  /// tear against a concurrent request (lock order: service mu_ before the
  /// registry's internal lock; the registry never locks back into the
  /// service, so the order is acyclic).
  JoinServiceStats Snapshot() const EXCLUDES(mu_);

  /// Prometheus text exposition of the backing MetricsRegistry, with the
  /// service's point-in-time gauges (pending, running, max_pending_seen)
  /// synced from Snapshot() first. The one-pane-of-glass endpoint.
  std::string MetricsText() const EXCLUDES(mu_);
  /// Same snapshot as JSON (MetricsRegistry::JsonSnapshot()).
  std::string MetricsJson() const EXCLUDES(mu_);

  /// Tenant label of each completed request, in completion order. The
  /// fairness tests assert on this.
  std::vector<std::string> completion_order() const EXCLUDES(mu_);

 private:
  struct Job {
    uint64_t sequence = 0;
    std::string tenant;
    std::function<void()> producer;
    std::function<void(Status)> abandon;
    std::function<void(Status)> cancel_with;
    CancellationToken cancel;
    bool has_deadline = false;
    bool degrade = false;
    /// Absolute expiry on the real steady clock (see clock_for_testing).
    std::chrono::steady_clock::time_point deadline_tp;
    /// NowSeconds() at admission; queue-wait latency = pickup - submit.
    double submit_seconds = 0;
    /// Per-tenant latency histograms, resolved once at admission.
    obs::Histogram* queue_wait_hist = nullptr;
    obs::Histogram* run_hist = nullptr;
    /// The stream's resource accounting (see DeferredStream::usage); read
    /// at completion for the aggregate stats and request-cost series.
    std::shared_ptr<obs::ResourceAccumulator> usage;
  };

  /// What the deadline watchdog needs to kill a running job: the expiry and
  /// the stream's status-stamping cancel hook.
  struct RunningDeadline {
    std::chrono::steady_clock::time_point deadline_tp;
    std::function<void(Status)> cancel_with;
    bool degrade = false;
  };

  /// Shared admission tail of Submit/SubmitNamed: runs admission control on
  /// the already-built stream and queues the job (or abandons it).
  /// `request_span` is the request's root span (null when tracing is off);
  /// it is kept open until the stream producer finishes or the request is
  /// abandoned, whichever ends the request.
  Result<AsyncJoinHandle> Admit(DeferredStream deferred,
                                const std::string& tenant,
                                const RequestOptions& request,
                                std::shared_ptr<obs::ScopedSpan> request_span)
      EXCLUDES(mu_);

  /// Mints the per-request root span (tagged tenant/engine), or null when
  /// options_.span_buffer is unset.
  std::shared_ptr<obs::ScopedSpan> StartRequestSpan(
      const std::string& tenant, const std::string& engine) const;

  /// Resolves (and caches) the per-tenant latency histograms.
  void TenantHistsLocked(const std::string& tenant, Job* job) REQUIRES(mu_);

  /// Pushes the point-in-time service gauges (pending/running/
  /// max_pending_seen) into the registry ahead of an exposition.
  void SyncServiceGauges() const EXCLUDES(mu_);

  void DispatcherLoop() EXCLUDES(mu_);
  /// Enforces deadlines after admission: sleeps until the earliest pending
  /// or running deadline, then abandons expired queued jobs and cancels
  /// expired running ones.
  void DeadlineLoop() EXCLUDES(mu_);
  /// Picks and removes the next job per the scheduling policy. Requires
  /// mu_ held and pending_ non-empty.
  Job TakeNextJobLocked() REQUIRES(mu_);
  /// EstimatedQueueWaitSeconds with mu_ held.
  double EstimatedQueueWaitLocked() const REQUIRES(mu_);
  /// The EWMA job-duration estimate with idle decay applied. Requires mu_.
  double EffectiveJobSecondsLocked() const REQUIRES(mu_);
  /// Monotonic seconds for duration measurement; clock_for_testing seam.
  double NowSeconds() const;

  const JoinServiceOptions options_;
  obs::MetricsRegistry* const metrics_;
  std::shared_ptr<DatasetRegistry> registry_;
  ThreadPool pool_;

  // Pre-resolved outcome counters (lock-free to bump; see obs/metrics.h).
  obs::Counter* const m_admitted_;
  obs::Counter* const m_rejected_;
  obs::Counter* const m_rejected_deadline_;
  obs::Counter* const m_completed_;
  obs::Counter* const m_abandoned_;
  obs::Counter* const m_expired_queued_;
  obs::Counter* const m_expired_running_;
  obs::Counter* const m_degraded_;
  // Request-cost series, fed from each finished request's ResourceUsage.
  obs::Histogram* const m_request_cpu_;
  obs::Histogram* const m_request_task_wait_;
  obs::Counter* const m_result_pairs_;
  obs::Counter* const m_result_bytes_;
  obs::Counter* const m_tasks_;
  obs::Counter* const m_shard_retries_;

  mutable Mutex mu_;
  CondVar cv_job_;       // dispatchers: work available / stop
  CondVar cv_idle_;      // Drain: all quiet
  CondVar cv_deadline_;  // watchdog: deadlines changed / stop
  std::deque<Job> pending_ GUARDED_BY(mu_);
  /// Deadline + cancel hook of every running job that has a deadline, keyed
  /// by job sequence. The watchdog erases an entry when it fires; the
  /// dispatcher erases it on normal completion -- an absent entry at
  /// completion is how the dispatcher learns the job was expired.
  std::map<uint64_t, RunningDeadline> running_deadlines_ GUARDED_BY(mu_);
  std::map<std::string, std::size_t> in_flight_per_tenant_ GUARDED_BY(mu_);
  std::map<std::string, std::size_t> served_per_tenant_ GUARDED_BY(mu_);
  /// Cached per-tenant histogram handles (registration hashes; hot paths
  /// must not). Values are registry-owned and stable.
  std::map<std::string, std::pair<obs::Histogram*, obs::Histogram*>>
      tenant_hists_ GUARDED_BY(mu_);
  std::vector<std::string> completion_order_ GUARDED_BY(mu_);
  JoinServiceStats stats_ GUARDED_BY(mu_);
  uint64_t next_sequence_ GUARDED_BY(mu_) = 0;
  std::size_t running_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  /// EWMA of measured job durations (seconds); seeds from
  /// initial_job_seconds_estimate until the first completion, decays toward
  /// zero while the service idles (ewma_idle_halflife_seconds).
  double ewma_job_seconds_ GUARDED_BY(mu_) = 0;
  bool have_measurement_ GUARDED_BY(mu_) = false;
  /// NowSeconds() at the last completion: the idle-decay anchor.
  double last_completion_seconds_ GUARDED_BY(mu_) = 0;

  std::vector<std::thread> dispatchers_;
  std::thread deadline_watchdog_;
};

}  // namespace swiftspatial::exec

#endif  // SWIFTSPATIAL_EXEC_SERVICE_H_
