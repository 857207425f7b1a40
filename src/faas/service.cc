#include "faas/service.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/percentile.h"

namespace swiftspatial::faas {

SpatialJoinService::SpatialJoinService(const FaasConfig& config)
    : config_(config) {
  SWIFT_CHECK_GE(config_.num_kernels, 1);
  SWIFT_CHECK_GE(config_.total_units, config_.num_kernels);
  units_per_kernel_ = config_.total_units / config_.num_kernels;
}

std::vector<RequestOutcome> SpatialJoinService::Process(
    std::vector<JoinRequest> requests) const {
  std::sort(requests.begin(), requests.end(),
            [](const JoinRequest& a, const JoinRequest& b) {
              return a.arrival_seconds < b.arrival_seconds;
            });

  std::vector<double> kernel_free(config_.num_kernels, 0.0);
  std::vector<RequestOutcome> outcomes;
  outcomes.reserve(requests.size());

  for (const JoinRequest& req : requests) {
    // FCFS: the earliest-free kernel takes the request.
    int best = 0;
    for (int k = 1; k < config_.num_kernels; ++k) {
      if (kernel_free[k] < kernel_free[best]) best = k;
    }
    const double service_cycles =
        static_cast<double>(req.serial_cycles) +
        static_cast<double>(req.parallel_unit_cycles) / units_per_kernel_;
    const double service = service_cycles / config_.clock_hz;
    const double start = std::max(req.arrival_seconds, kernel_free[best]);
    const double finish = start + service;
    kernel_free[best] = finish;

    RequestOutcome out;
    out.kernel = best;
    out.start_seconds = start;
    out.finish_seconds = finish;
    out.wait_seconds = start - req.arrival_seconds;
    out.latency_seconds = finish - req.arrival_seconds;
    outcomes.push_back(out);
  }
  return outcomes;
}

FaasMetrics SpatialJoinService::Summarize(
    const std::vector<RequestOutcome>& outcomes) {
  FaasMetrics m;
  if (outcomes.empty()) return m;
  std::vector<double> latencies;
  latencies.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    m.makespan_seconds = std::max(m.makespan_seconds, o.finish_seconds);
    m.mean_latency_seconds += o.latency_seconds;
    m.mean_wait_seconds += o.wait_seconds;
    m.max_wait_seconds = std::max(m.max_wait_seconds, o.wait_seconds);
    latencies.push_back(o.latency_seconds);
  }
  m.mean_latency_seconds /= outcomes.size();
  m.mean_wait_seconds /= outcomes.size();
  m.p99_latency_seconds = Percentile(std::move(latencies), 0.99);
  return m;
}

}  // namespace swiftspatial::faas
