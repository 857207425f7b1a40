#include "obs/resource.h"

#include <ctime>

namespace swiftspatial::obs {

double ThreadCpuSeconds() {
#if !defined(SWIFTSPATIAL_OBS_OFF) && defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return 0;
#endif
}

namespace {
// The accumulator the calling thread is billing right now, if any.
thread_local ResourceAccumulator* t_charged = nullptr;
}  // namespace

ScopedCpuCharge::ScopedCpuCharge(ResourceAccumulator* usage) {
  if (usage == nullptr || usage == t_charged) return;
  usage_ = usage;
  outer_ = t_charged;
  t_charged = usage;
  cpu0_ = ThreadCpuSeconds();
}

ScopedCpuCharge::~ScopedCpuCharge() {
  if (usage_ == nullptr) return;
  usage_->AddCpuSeconds(ThreadCpuSeconds() - cpu0_);
  t_charged = outer_;
}

}  // namespace swiftspatial::obs
