#include "exec/service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "obs/log.h"
#include "obs/self_metrics.h"

namespace swiftspatial::exec {

const char* SchedulingPolicyToString(SchedulingPolicy p) {
  switch (p) {
    case SchedulingPolicy::kFcfs:
      return "fcfs";
    case SchedulingPolicy::kFairShare:
      return "fair-share";
  }
  return "unknown";
}

namespace {
obs::MetricsRegistry& ResolveMetrics(const JoinServiceOptions& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::MetricsRegistry::Global();
}
DatasetRegistryOptions RegistryOptionsFor(const JoinServiceOptions& options) {
  DatasetRegistryOptions ro;
  ro.metrics = options.metrics;
  return ro;
}
void AccumulateUsage(const obs::ResourceUsage& u, obs::ResourceUsage* agg) {
  agg->wall_seconds += u.wall_seconds;
  agg->cpu_seconds += u.cpu_seconds;
  agg->queue_wait_seconds += u.queue_wait_seconds;
  agg->task_wait_seconds += u.task_wait_seconds;
  agg->tasks += u.tasks;
  agg->chunks += u.chunks;
  agg->pairs += u.pairs;
  agg->bytes += u.bytes;
  agg->retries += u.retries;
}
}  // namespace

JoinService::JoinService(const JoinServiceOptions& options)
    : options_(options),
      metrics_(&ResolveMetrics(options)),
      registry_(options.registry
                    ? options.registry
                    : std::make_shared<DatasetRegistry>(
                          RegistryOptionsFor(options))),
      pool_(std::max<std::size_t>(1, options.worker_threads)),
      m_admitted_(metrics_->GetCounter("swiftspatial_service_admitted_total", {}, "Requests past admission control")),
      m_rejected_(metrics_->GetCounter("swiftspatial_service_rejected_total", {}, "Submissions bounced by admission control")),
      m_rejected_deadline_(metrics_->GetCounter("swiftspatial_service_rejected_deadline_total", {}, "Rejections due to estimated wait exceeding the deadline")),
      m_completed_(metrics_->GetCounter("swiftspatial_service_completed_total", {}, "Requests that ran to completion")),
      m_abandoned_(metrics_->GetCounter("swiftspatial_service_abandoned_total", {}, "Requests closed Aborted without running")),
      m_expired_queued_(metrics_->GetCounter("swiftspatial_service_expired_queued_total", {}, "Deadlines expired while queued")),
      m_expired_running_(metrics_->GetCounter("swiftspatial_service_expired_running_total", {}, "Deadlines expired mid-run (cooperative cancellation)")),
      m_degraded_(metrics_->GetCounter("swiftspatial_service_degraded_total", {}, "Mid-run expiries closed OK with a partial result")),
      m_request_cpu_(metrics_->GetHistogram("swiftspatial_service_request_cpu_seconds", {}, {}, "Thread-CPU time summed over every thread that worked for one request")),
      m_request_task_wait_(metrics_->GetHistogram("swiftspatial_service_request_task_wait_seconds", {}, {}, "Pool queue wait summed over one request's wave slots")),
      m_result_pairs_(metrics_->GetCounter("swiftspatial_service_result_pairs_total", {}, "Result pairs streamed by finished requests")),
      m_result_bytes_(metrics_->GetCounter("swiftspatial_service_result_bytes_total", {}, "Result bytes streamed by finished requests")),
      m_tasks_(metrics_->GetCounter("swiftspatial_service_tasks_total", {}, "Work items (partitioned cell groups) executed for finished requests")),
      m_shard_retries_(metrics_->GetCounter("swiftspatial_service_shard_retries_total", {}, "Distributed shard retries triggered by finished requests")) {
  const std::size_t dispatchers =
      std::max<std::size_t>(1, options_.max_concurrent);
  dispatchers_.reserve(dispatchers);
  for (std::size_t i = 0; i < dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
  deadline_watchdog_ = std::thread([this] { DeadlineLoop(); });
}

JoinService::~JoinService() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    if (!pending_.empty()) {
      SWIFT_LOG(Info, "service", "shutdown abandoning queued requests")
          .With("queued", pending_.size());
    }
    // Queued requests never run; their consumers see a clean Aborted end.
    for (Job& job : pending_) {
      job.abandon(Status::Aborted("service shutting down"));
      ++stats_.abandoned;
      m_abandoned_->Increment();
    }
    pending_.clear();
  }
  cv_job_.NotifyAll();
  cv_deadline_.NotifyAll();
  for (std::thread& d : dispatchers_) d.join();
  deadline_watchdog_.join();
}

Result<AsyncJoinHandle> JoinService::Submit(const std::string& tenant,
                                            const std::string& engine,
                                            const Dataset& r, const Dataset& s,
                                            const EngineConfig& config,
                                            const RequestOptions& request) {
  auto span = StartRequestSpan(tenant, engine);
  EngineConfig cfg = config;
  if (span) cfg.trace = span->context();
  StreamOptions stream = options_.stream;
  stream.metrics = metrics_;
  auto deferred = MakeJoinStream(engine, r, s, cfg, stream, &pool_);
  if (!deferred.ok()) return deferred.status();
  return Admit(std::move(*deferred), tenant, request, std::move(span));
}

Result<AsyncJoinHandle> JoinService::SubmitNamed(const std::string& tenant,
                                                 const std::string& engine,
                                                 const std::string& r_name,
                                                 const std::string& s_name,
                                                 const EngineConfig& config,
                                                 const RequestOptions& request) {
  auto span = StartRequestSpan(tenant, engine);
  EngineConfig cfg = config;
  if (span) cfg.trace = span->context();
  StreamOptions stream = options_.stream;
  stream.metrics = metrics_;
  auto deferred = MakeRegisteredJoinStream(registry_.get(), engine, r_name,
                                           s_name, cfg, stream, &pool_);
  if (!deferred.ok()) return deferred.status();
  return Admit(std::move(*deferred), tenant, request, std::move(span));
}

DatasetHandle JoinService::RegisterDataset(std::string name, Dataset dataset) {
  return registry_->Put(std::move(name), std::move(dataset));
}

std::shared_ptr<obs::ScopedSpan> JoinService::StartRequestSpan(
    const std::string& tenant, const std::string& engine) const {
  if (options_.span_buffer == nullptr) return nullptr;
  auto span = std::make_shared<obs::ScopedSpan>(
      obs::TraceContext::StartTrace(options_.span_buffer), "request");
  span->AddAttr("tenant", tenant);
  span->AddAttr("engine", engine);
  return span;
}

void JoinService::TenantHistsLocked(const std::string& tenant, Job* job) {
  auto it = tenant_hists_.find(tenant);
  if (it == tenant_hists_.end()) {
    obs::Histogram* wait = metrics_->GetHistogram("swiftspatial_service_queue_wait_seconds", {{"tenant", tenant}}, {}, "Admission-to-dispatcher-pickup latency");
    obs::Histogram* run = metrics_->GetHistogram("swiftspatial_service_run_seconds", {{"tenant", tenant}}, {}, "Producer wall time (plan + execute + streaming)");
    it = tenant_hists_.emplace(tenant, std::make_pair(wait, run)).first;
  }
  job->queue_wait_hist = it->second.first;
  job->run_hist = it->second.second;
}

Result<AsyncJoinHandle> JoinService::Admit(
    DeferredStream deferred, const std::string& tenant,
    const RequestOptions& request,
    std::shared_ptr<obs::ScopedSpan> request_span) {
  const bool has_deadline = request.deadline_seconds > 0;
  // Stamped before the lock: the budget runs from submission, not from
  // whenever admission control gets scheduled.
  const auto deadline_tp =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              has_deadline ? request.deadline_seconds : 0));
  {
    MutexLock lock(&mu_);
    if (stopping_) {
      ++stats_.rejected;
      m_rejected_->Increment();
      if (request_span) request_span->AddAttr("outcome", "rejected");
      SWIFT_LOG(Info, "service", "request rejected: shutting down")
          .With("tenant", tenant);
      deferred.abandon(Status::Aborted("service shutting down"));
      return Status::Aborted("service shutting down");
    }
    if (pending_.size() >= options_.max_pending) {
      ++stats_.rejected;
      m_rejected_->Increment();
      if (request_span) request_span->AddAttr("outcome", "rejected");
      SWIFT_LOG(Warn, "service", "request rejected: admission queue full")
          .With("tenant", tenant)
          .With("pending", pending_.size())
          .With("max_pending", options_.max_pending);
      deferred.abandon(
          Status::Aborted("admission queue full (max_pending=" +
                          std::to_string(options_.max_pending) + ")"));
      return Status::Aborted("admission queue full (max_pending=" +
                             std::to_string(options_.max_pending) + ")");
    }
    if (has_deadline) {
      const double wait = EstimatedQueueWaitLocked();
      if (wait > request.deadline_seconds) {
        ++stats_.rejected;
        ++stats_.rejected_deadline;
        m_rejected_->Increment();
        m_rejected_deadline_->Increment();
        if (request_span) {
          request_span->AddAttr("outcome", "rejected_deadline");
        }
        SWIFT_LOG(Warn, "service",
                  "request rejected: estimated wait exceeds deadline")
            .With("tenant", tenant)
            .With("estimated_wait_seconds", wait)
            .With("deadline_seconds", request.deadline_seconds);
        const std::string msg =
            "estimated queue wait " + std::to_string(wait) +
            "s already exceeds the request deadline " +
            std::to_string(request.deadline_seconds) + "s";
        deferred.abandon(Status::DeadlineExceeded(msg));
        return Status::DeadlineExceeded(msg);
      }
    }
    Job job;
    job.sequence = next_sequence_++;
    job.tenant = tenant;
    job.producer = std::move(deferred.producer);
    job.abandon = std::move(deferred.abandon);
    job.cancel_with = std::move(deferred.cancel_with);
    job.cancel = deferred.cancel;
    job.usage = std::move(deferred.usage);
    job.has_deadline = has_deadline;
    job.degrade = request.degrade_on_deadline;
    job.deadline_tp = deadline_tp;
    job.submit_seconds = NowSeconds();
    TenantHistsLocked(tenant, &job);
    if (request_span) {
      // The queued span covers admission -> dispatcher pickup (or abandon);
      // the request span stays open until the producer finishes, so the
      // whole request life is one bar in the trace with queue time nested.
      auto queued_span = std::make_shared<obs::ScopedSpan>(
          request_span->context(), "queued");
      const uint64_t trace_id = request_span->context().trace_id();
      const uint64_t span_id = request_span->span_id();
      job.producer = [producer = std::move(job.producer), request_span,
                      queued_span, trace_id, span_id] {
        queued_span->End();
        // Everything the producer logs on this thread -- admission already
        // happened, so this covers plan/execute/close -- joins the
        // request's trace.
        obs::ScopedLogTrace log_trace(trace_id, span_id);
        producer();
        request_span->End();
      };
      job.abandon = [abandon = std::move(job.abandon), request_span,
                     queued_span](Status status) {
        queued_span->End();
        abandon(std::move(status));
        request_span->AddAttr("outcome", "abandoned");
        request_span->End();
      };
    }
    pending_.push_back(std::move(job));
    ++stats_.admitted;
    m_admitted_->Increment();
    stats_.max_pending_seen =
        std::max(stats_.max_pending_seen, pending_.size());
  }
  cv_job_.NotifyOne();
  // A new deadline may now be the earliest; re-aim the watchdog.
  if (has_deadline) cv_deadline_.NotifyAll();
  return std::move(deferred.handle);
}

JoinService::Job JoinService::TakeNextJobLocked() {
  SWIFT_CHECK(!pending_.empty());
  std::size_t pick = 0;
  if (options_.policy == SchedulingPolicy::kFairShare) {
    // Least-served tenant first (jobs running + completed), FCFS within a
    // tenant. The deque is arrival-ordered, so the first hit for the
    // minimal tenant is also that tenant's oldest request.
    std::size_t best_load = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const std::string& tenant = pending_[i].tenant;
      const auto in_flight = in_flight_per_tenant_.find(tenant);
      const auto served = served_per_tenant_.find(tenant);
      const std::size_t load =
          (in_flight == in_flight_per_tenant_.end() ? 0 : in_flight->second) +
          (served == served_per_tenant_.end() ? 0 : served->second);
      if (load < best_load) {
        best_load = load;
        pick = i;
      }
    }
  }
  Job job = std::move(pending_[pick]);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pick));
  return job;
}

void JoinService::DispatcherLoop() {
  for (;;) {
    Job job;
    bool abandoned = false;
    bool expired_at_pickup = false;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && pending_.empty()) cv_job_.Wait(&mu_);
      if (pending_.empty()) return;  // stopping_ and nothing left to serve
      job = TakeNextJobLocked();
      ++running_;
      ++in_flight_per_tenant_[job.tenant];
      abandoned = job.cancel.cancelled();
      expired_at_pickup =
          !abandoned && job.has_deadline &&
          std::chrono::steady_clock::now() >= job.deadline_tp;
      if (!abandoned && !expired_at_pickup && job.has_deadline) {
        // Hand the running job to the watchdog before the join starts, so
        // there is no window where an expired deadline goes unenforced.
        running_deadlines_[job.sequence] =
            RunningDeadline{job.deadline_tp, job.cancel_with, job.degrade};
        cv_deadline_.NotifyAll();
      }
    }

    double job_seconds = 0;
    obs::ResourceUsage usage;
    if (abandoned) {
      // The consumer gave up while the request queued: close the stream
      // without running the join.
      SWIFT_LOG(Info, "service", "queued request abandoned by its consumer")
          .With("tenant", job.tenant);
      job.abandon(Status::Aborted("join cancelled mid-stream"));
    } else if (expired_at_pickup) {
      // The deadline passed while the request queued but before the
      // watchdog fired (or with no watchdog wakeup in between): same
      // outcome, the join never runs.
      SWIFT_LOG(Warn, "service", "deadline expired while queued")
          .With("tenant", job.tenant);
      job.abandon(Status::DeadlineExceeded("deadline expired while queued"));
    } else {
      const double start = NowSeconds();
      const double queue_wait = start - job.submit_seconds;
      if (job.queue_wait_hist != nullptr) {
        job.queue_wait_hist->Observe(queue_wait);
      }
      // queue_wait_seconds is the admission wait alone, a layer of the
      // request's latency; the pool waits of its wave slots are a cost,
      // kept apart in task_wait_seconds.
      if (job.usage != nullptr) job.usage->AddQueueWaitSeconds(queue_wait);
      job.producer();  // blocking: runs the join, streams, closes
      job_seconds = NowSeconds() - start;
      if (job.run_hist != nullptr) job.run_hist->Observe(job_seconds);
      if (job.usage != nullptr) {
        usage = job.usage->Snapshot();
        m_request_cpu_->Observe(usage.cpu_seconds);
        m_request_task_wait_->Observe(usage.task_wait_seconds);
        m_result_pairs_->Increment(usage.pairs);
        m_result_bytes_->Increment(usage.bytes);
        m_tasks_->Increment(usage.tasks);
        m_shard_retries_->Increment(usage.retries);
      }
      SWIFT_LOG(Debug, "service", "request finished")
          .With("tenant", job.tenant)
          .With("run_seconds", job_seconds)
          .With("cpu_seconds", usage.cpu_seconds)
          .With("pairs", usage.pairs)
          .With("tasks", usage.tasks);
    }

    {
      MutexLock lock(&mu_);
      --running_;
      --in_flight_per_tenant_[job.tenant];
      if (abandoned) {
        // Never ran: not served, not completed -- charging it to the
        // tenant would let cancelled requests skew fair-share ordering.
        ++stats_.abandoned;
        m_abandoned_->Increment();
      } else if (expired_at_pickup) {
        ++stats_.expired_queued;
        m_expired_queued_->Increment();
      } else {
        const auto rd = running_deadlines_.find(job.sequence);
        const bool expired_mid_run =
            job.has_deadline && rd == running_deadlines_.end();
        if (rd != running_deadlines_.end()) running_deadlines_.erase(rd);
        // The tenant consumed a dispatcher slot either way, so fair-share
        // charges it; but an expired run is not a completion -- its result
        // is a prefix (or nothing), and feeding its truncated duration to
        // the EWMA would teach admission that jobs are faster than they
        // are.
        ++served_per_tenant_[job.tenant];
        // Resource accounting covers expired runs too: the partial work
        // was still paid for, and cost visibility is the point.
        AccumulateUsage(usage, &stats_.resources);
        if (!expired_mid_run) {
          ++stats_.completed;
          m_completed_->Increment();
          completion_order_.push_back(job.tenant);
          // Feed the deadline-admission estimate. Alpha 0.3: reactive
          // enough to track load shifts, stable enough that one outlier
          // join does not swing admissions.
          if (have_measurement_) {
            ewma_job_seconds_ = 0.7 * ewma_job_seconds_ + 0.3 * job_seconds;
          } else {
            ewma_job_seconds_ = job_seconds;
            have_measurement_ = true;
          }
          last_completion_seconds_ = NowSeconds();
        }
      }
      // Under the lock: a Drain()er may tear the service down once it sees
      // the idle state, which must not overlap the notify call.
      cv_idle_.NotifyAll();
    }
  }
}

void JoinService::DeadlineLoop() {
  MutexLock lock(&mu_);
  for (;;) {
    if (stopping_) return;
    // Earliest deadline across queued and running jobs.
    auto earliest = std::chrono::steady_clock::time_point::max();
    bool have = false;
    for (const Job& job : pending_) {
      if (job.has_deadline && job.deadline_tp < earliest) {
        earliest = job.deadline_tp;
        have = true;
      }
    }
    for (const auto& [sequence, rd] : running_deadlines_) {
      if (rd.deadline_tp < earliest) {
        earliest = rd.deadline_tp;
        have = true;
      }
    }
    if (!have) {
      cv_deadline_.Wait(&mu_);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now < earliest) {
      cv_deadline_.WaitUntil(&mu_, earliest);
      continue;
    }

    // Queued expirations: the join never runs. abandon() only touches the
    // stream's own mutex (never mu_), so calling it under the lock is safe
    // and keeps the removal + close atomic against dispatchers.
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->has_deadline && it->deadline_tp <= now) {
        Job job = std::move(*it);
        it = pending_.erase(it);
        ++stats_.expired_queued;
        m_expired_queued_->Increment();
        SWIFT_LOG(Warn, "service", "deadline expired while queued")
            .With("tenant", job.tenant);
        job.abandon(
            Status::DeadlineExceeded("deadline expired while queued"));
      } else {
        ++it;
      }
    }
    // Mid-run expirations: cooperative cancellation with the right terminal
    // status. The producer keeps running until it observes the token; the
    // dispatcher sees the erased entry at completion and skips the
    // completed/EWMA accounting.
    for (auto it = running_deadlines_.begin();
         it != running_deadlines_.end();) {
      if (it->second.deadline_tp <= now) {
        ++stats_.expired_running;
        m_expired_running_->Increment();
        SWIFT_LOG(Warn, "service", "deadline expired mid-run; cancelling")
            .With("sequence", it->first)
            .With("degrade", it->second.degrade);
        if (it->second.degrade) {
          ++stats_.degraded;
          m_degraded_->Increment();
          it->second.cancel_with(Status::OK());
        } else {
          it->second.cancel_with(
              Status::DeadlineExceeded("deadline expired mid-run"));
        }
        it = running_deadlines_.erase(it);
      } else {
        ++it;
      }
    }
    cv_idle_.NotifyAll();
  }
}

double JoinService::NowSeconds() const {
  if (options_.clock_for_testing) return options_.clock_for_testing();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double JoinService::EffectiveJobSecondsLocked() const {
  if (!have_measurement_) return options_.initial_job_seconds_estimate;
  const double halflife = options_.ewma_idle_halflife_seconds;
  if (halflife <= 0) return ewma_job_seconds_;
  const double idle = NowSeconds() - last_completion_seconds_;
  if (idle <= 0) return ewma_job_seconds_;
  // Exponential idle decay: stale measurements stop vetoing admissions a
  // few half-lives after the load that produced them went away.
  return ewma_job_seconds_ * std::exp2(-idle / halflife);
}

double JoinService::EstimatedQueueWaitLocked() const {
  const double per_job = EffectiveJobSecondsLocked();
  const std::size_t slots = std::max<std::size_t>(1, options_.max_concurrent);
  // Jobs that must finish before a request submitted now can start: with a
  // free dispatcher slot the request runs immediately (zero queue wait),
  // so only the load beyond the remaining slot capacity queues ahead of it.
  const std::size_t load = pending_.size() + running_;
  const std::size_t ahead = load >= slots ? load - (slots - 1) : 0;
  return static_cast<double>(ahead) / static_cast<double>(slots) * per_job;
}

double JoinService::EstimatedQueueWaitSeconds() const {
  MutexLock lock(&mu_);
  return EstimatedQueueWaitLocked();
}

void JoinService::Drain() {
  MutexLock lock(&mu_);
  while (!pending_.empty() || running_ != 0) cv_idle_.Wait(&mu_);
}

JoinServiceStats JoinService::Snapshot() const {
  // Both reads happen under mu_ so the service counters and the plan-cache
  // counters cannot tear against a concurrent request. Lock order: service
  // mu_ -> registry internal lock. The registry never calls back into the
  // service, so the order is acyclic and this nesting is safe.
  MutexLock lock(&mu_);
  JoinServiceStats snapshot = stats_;
  snapshot.plan_cache = registry_->plan_cache_stats();
  return snapshot;
}

std::string JoinService::MetricsText() const {
  SyncServiceGauges();
  return metrics_->TextExposition();
}

std::string JoinService::MetricsJson() const {
  SyncServiceGauges();
  return metrics_->JsonSnapshot();
}

void JoinService::SyncServiceGauges() const {
  std::size_t pending = 0;
  std::size_t running = 0;
  std::size_t max_pending_seen = 0;
  {
    MutexLock lock(&mu_);
    pending = pending_.size();
    running = running_;
    max_pending_seen = stats_.max_pending_seen;
  }
  metrics_->GetGauge("swiftspatial_service_pending", {}, "Requests queued behind admission right now")->Set(static_cast<double>(pending));
  metrics_->GetGauge("swiftspatial_service_running", {}, "Requests holding a dispatcher slot right now")->Set(static_cast<double>(running));
  metrics_->GetGauge("swiftspatial_service_max_pending_seen", {}, "High-water mark of the pending queue")->Set(static_cast<double>(max_pending_seen));
  // The obs layer's own health counters ride along on every exposition so
  // a scrape can tell whether span/log telemetry was truncated.
  obs::ExportSelfMetrics(metrics_, options_.span_buffer);
}

std::vector<std::string> JoinService::completion_order() const {
  MutexLock lock(&mu_);
  return completion_order_;
}

}  // namespace swiftspatial::exec
