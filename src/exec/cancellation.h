// Cooperative cancellation: a source flips one shared flag; tokens observe
// it (waves check it before every claim, see common/thread_pool.h).
#ifndef SWIFTSPATIAL_EXEC_CANCELLATION_H_
#define SWIFTSPATIAL_EXEC_CANCELLATION_H_

#include <atomic>
#include <memory>
#include <utility>

namespace swiftspatial::exec {

/// Read side of a cancellation flag. Default-constructed tokens are never
/// cancelled. Copies share the flag; checking is a relaxed atomic load.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Write side: owns the flag, hands out tokens. Cancel() is idempotent,
/// thread-safe, and purely cooperative -- it never interrupts a running
/// task, it only makes every token observe cancelled() == true.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancellationToken token() const { return CancellationToken(flag_); }
  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace swiftspatial::exec

#endif  // SWIFTSPATIAL_EXEC_CANCELLATION_H_
