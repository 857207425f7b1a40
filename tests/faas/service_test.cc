#include "faas/service.h"

#include <gtest/gtest.h>

#include <vector>

namespace swiftspatial::faas {
namespace {

JoinRequest Req(double arrival, uint64_t parallel, uint64_t serial = 0) {
  JoinRequest r;
  r.arrival_seconds = arrival;
  r.parallel_unit_cycles = parallel;
  r.serial_cycles = serial;
  return r;
}

TEST(SpatialJoinService, SingleRequestServiceTime) {
  FaasConfig cfg;
  cfg.total_units = 16;
  cfg.num_kernels = 1;
  cfg.clock_hz = 200e6;
  SpatialJoinService svc(cfg);
  EXPECT_EQ(svc.units_per_kernel(), 16);

  // 16e6 unit-cycles on 16 units = 1e6 cycles = 5 ms at 200 MHz.
  auto out = svc.Process({Req(0.0, 16000000)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].latency_seconds, 5e-3, 1e-9);
  EXPECT_DOUBLE_EQ(out[0].wait_seconds, 0.0);
}

TEST(SpatialJoinService, SerialPortionNotParallelized) {
  FaasConfig cfg;
  cfg.total_units = 16;
  SpatialJoinService svc(cfg);
  auto out = svc.Process({Req(0.0, 0, 200000000)});  // 1 s of serial work
  EXPECT_NEAR(out[0].latency_seconds, 1.0, 1e-9);
}

TEST(SpatialJoinService, SingleKernelQueuesFcfs) {
  FaasConfig cfg;
  cfg.total_units = 16;
  cfg.num_kernels = 1;
  SpatialJoinService svc(cfg);
  // Two simultaneous 5 ms requests: the second waits for the first.
  auto out = svc.Process({Req(0.0, 16000000), Req(0.0, 16000000)});
  EXPECT_NEAR(out[0].latency_seconds, 5e-3, 1e-9);
  EXPECT_NEAR(out[1].wait_seconds, 5e-3, 1e-9);
  EXPECT_NEAR(out[1].latency_seconds, 10e-3, 1e-9);
}

TEST(SpatialJoinService, MultiKernelImprovesFairness) {
  // One long query followed by many short ones (§4.2's monopolisation
  // concern).
  std::vector<JoinRequest> reqs = {Req(0.0, 320000000)};  // 100 ms on 16 units
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(Req(0.001 * (i + 1), 1600000));  // 0.5 ms each on 16 units
  }

  FaasConfig one;
  one.total_units = 16;
  one.num_kernels = 1;
  FaasConfig four;
  four.total_units = 16;
  four.num_kernels = 4;

  const auto single = SpatialJoinService::Summarize(
      SpatialJoinService(one).Process(reqs));
  const auto multi = SpatialJoinService::Summarize(
      SpatialJoinService(four).Process(reqs));

  // The single large kernel forces short queries to wait behind the long
  // one; multiple kernels cut the worst-case wait dramatically.
  EXPECT_GT(single.max_wait_seconds, 10 * multi.max_wait_seconds);
  // But the long query itself runs slower on a quarter of the units.
  EXPECT_LT(single.makespan_seconds, multi.makespan_seconds + 0.3);
}

TEST(SpatialJoinService, KernelCountDividesUnits) {
  FaasConfig cfg;
  cfg.total_units = 16;
  cfg.num_kernels = 4;
  SpatialJoinService svc(cfg);
  EXPECT_EQ(svc.units_per_kernel(), 4);
}

TEST(SpatialJoinService, ArrivalOrderRespected) {
  FaasConfig cfg;
  cfg.total_units = 16;
  cfg.num_kernels = 2;
  SpatialJoinService svc(cfg);
  // Given out of order; processed by arrival.
  auto out = svc.Process({Req(0.5, 1600000), Req(0.0, 1600000)});
  EXPECT_LT(out[0].start_seconds, out[1].start_seconds);
}

TEST(SpatialJoinService, SummarizeStatistics) {
  std::vector<RequestOutcome> outcomes(100);
  for (int i = 0; i < 100; ++i) {
    outcomes[i].latency_seconds = (i + 1) * 0.01;
    outcomes[i].finish_seconds = (i + 1) * 0.01;
    outcomes[i].wait_seconds = 0.0;
  }
  const FaasMetrics m = SpatialJoinService::Summarize(outcomes);
  EXPECT_NEAR(m.mean_latency_seconds, 0.505, 1e-9);
  EXPECT_NEAR(m.p99_latency_seconds, 0.99, 1e-9);
  EXPECT_NEAR(m.makespan_seconds, 1.0, 1e-9);
}

}  // namespace
}  // namespace swiftspatial::faas
