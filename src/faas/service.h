// FPGA-as-a-Service host model (§4.2): one FPGA's join units can be
// instantiated as a single large SwiftSpatial kernel or as several smaller
// ones. Total compute is identical (same resource budget); the trade-off is
// between per-query speed (large kernel) and fairness under concurrency
// (multiple kernels prevent one long join from monopolising the device).
//
// Requests are served FCFS by the next free kernel. A request's service
// time follows an Amdahl-style model: a serial portion (scheduler levels,
// launch, transfers) plus parallel work that divides across the kernel's
// join units. Work figures are synthesized; a CPU engine's
// predicate_evaluations does not count join-unit cycles.
//
// This class is the *analytic* device model -- closed-form what-ifs at
// FPGA scale (bench/ext_faas_multitenancy). The serving layer that
// actually executes concurrent join requests on the CPU, with admission
// control, FCFS/fair-share scheduling, and streamed results, is
// exec::JoinService (src/exec/service.h); examples/faas_server runs on it.
#ifndef SWIFTSPATIAL_FAAS_SERVICE_H_
#define SWIFTSPATIAL_FAAS_SERVICE_H_

#include <cstdint>
#include <vector>

namespace swiftspatial::faas {

struct FaasConfig {
  /// Join units available on the device (resource budget).
  int total_units = 16;
  /// Kernels instantiated; each gets total_units / num_kernels units.
  int num_kernels = 1;
  double clock_hz = 200e6;
};

/// One spatial-join request submitted to the service.
struct JoinRequest {
  /// Arrival time in seconds.
  double arrival_seconds = 0;
  /// Parallelisable work: join-unit cycles summed over all tile tasks.
  uint64_t parallel_unit_cycles = 0;
  /// Serial overhead cycles (level barriers, dispatch) plus any host time.
  uint64_t serial_cycles = 0;
};

/// Per-request outcome.
struct RequestOutcome {
  int kernel = 0;
  double start_seconds = 0;
  double finish_seconds = 0;
  double wait_seconds = 0;     ///< queueing delay
  double latency_seconds = 0;  ///< finish - arrival
};

/// Aggregate service metrics.
struct FaasMetrics {
  double makespan_seconds = 0;
  double mean_latency_seconds = 0;
  double p99_latency_seconds = 0;
  double max_wait_seconds = 0;
  double mean_wait_seconds = 0;
};

/// The FaaS scheduler simulation.
class SpatialJoinService {
 public:
  explicit SpatialJoinService(const FaasConfig& config);

  int units_per_kernel() const { return units_per_kernel_; }

  /// Serves `requests` (any order; sorted by arrival internally) and
  /// returns per-request outcomes in the sorted order.
  std::vector<RequestOutcome> Process(std::vector<JoinRequest> requests) const;

  /// Summarises outcomes.
  static FaasMetrics Summarize(const std::vector<RequestOutcome>& outcomes);

 private:
  FaasConfig config_;
  int units_per_kernel_;
};

}  // namespace swiftspatial::faas

#endif  // SWIFTSPATIAL_FAAS_SERVICE_H_
