// EngineBase: the Prepare -> ExecutePrepared bookkeeping every built-in
// engine shares, so each engine writes only what is its own -- the config
// checks, the artifacts it builds into its plan type, and the join over
// them.
//
//   class MyEngine : public EngineBase<MyPlan> {
//     Status Build(MyPlan* plan) override;   // fill plan from plan->r/s()
//     Status ExecuteImpl(const MyPlan& plan, JoinResult* out,
//                        JoinStats* stats) override;
//   };
//
// Prepare runs the thread-count check, the engine's Validate(), and the
// reject-at-ingest geometry policy (EngineConfig::validate_inputs), then
// constructs the plan and calls Build -- only for non-empty inputs, which
// join to the empty set without touching any index (some assume non-empty
// data). ExecutePrepared checks the output pointer and that the plan was
// prepared by this engine name with this plan type, overwrites *out, and
// calls ExecuteImpl for non-empty inputs. `Interface` lets the typed
// accelerator and cluster handles (join/accel_engine.h, dist/dist_engine.h)
// reuse the same lifecycle under their extended interfaces.
#ifndef SWIFTSPATIAL_JOIN_ENGINE_BASE_H_
#define SWIFTSPATIAL_JOIN_ENGINE_BASE_H_

#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "datagen/dataset.h"
#include "join/engine.h"
#include "join/result.h"

namespace swiftspatial {

template <typename PlanT, typename Interface = JoinEngine>
class EngineBase : public Interface {
 public:
  EngineBase(std::string name, const EngineConfig& config)
      : name_(std::move(name)), config_(config) {}

  const std::string& name() const override { return name_; }

  Result<std::shared_ptr<const PreparedPlan>> Prepare(
      std::shared_ptr<const Dataset> r,
      std::shared_ptr<const Dataset> s) final {
    if (r == nullptr || s == nullptr) {
      return Status::InvalidArgument("Prepare requires non-null datasets");
    }
    if (config_.num_threads < 1) {
      return Status::InvalidArgument("num_threads must be >= 1");
    }
    SWIFT_RETURN_IF_ERROR(Validate());
    if (config_.validate_inputs) {
      SWIFT_RETURN_IF_ERROR(r->ValidateBoxes());
      SWIFT_RETURN_IF_ERROR(s->ValidateBoxes());
    }
    auto plan = std::make_shared<PlanT>(name_, std::move(r), std::move(s));
    if (!plan->r().empty() && !plan->s().empty()) {
      SWIFT_RETURN_IF_ERROR(Build(plan.get()));
    }
    return std::shared_ptr<const PreparedPlan>(std::move(plan));
  }

  Status ExecutePrepared(const PreparedPlan& plan, JoinResult* out,
                         JoinStats* stats) final {
    if (out == nullptr) {
      return Status::InvalidArgument(
          "ExecutePrepared requires a non-null result");
    }
    auto typed = Typed(plan);
    if (!typed.ok()) return typed.status();
    *out = JoinResult();
    if (plan.r().empty() || plan.s().empty()) return Status::OK();
    return ExecuteImpl(**typed, out, stats);
  }

 protected:
  /// Engine-specific config checks, run first by Prepare.
  virtual Status Validate() { return Status::OK(); }
  /// Builds the plan's artifacts. Only called for non-empty inputs.
  virtual Status Build(PlanT* plan) {
    (void)plan;
    return Status::OK();
  }
  /// The join over a plan of this engine. Only called for non-empty
  /// inputs, with `*out` already cleared.
  virtual Status ExecuteImpl(const PlanT& plan, JoinResult* out,
                             JoinStats* stats) = 0;

  /// `plan` as this engine's plan type: InvalidArgument for a plan another
  /// engine name prepared, Internal for a same-name plan of another type.
  Result<const PlanT*> Typed(const PreparedPlan& plan) const {
    if (plan.engine() != name_) {
      return Status::InvalidArgument("prepared plan belongs to engine \"" +
                                     plan.engine() + "\", not \"" + name_ +
                                     "\"");
    }
    const auto* typed = dynamic_cast<const PlanT*>(&plan);
    if (typed == nullptr) {
      return Status::Internal("prepared plan type mismatch for engine " +
                              name_);
    }
    return typed;
  }

  const EngineConfig& config() const { return config_; }

 private:
  std::string name_;
  EngineConfig config_;
};

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_ENGINE_BASE_H_
