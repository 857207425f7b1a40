// EngineBase: the Prepare -> ExecutePrepared bookkeeping every built-in
// engine shares, so each engine writes only what is its own -- the config
// checks, the artifacts it builds into its plan type, and the join over
// them.
//
//   class MyEngine : public EngineBase<MyPlan> {
//     // Fill plan from plan->r/s(); r/s carry the inputs' scanned facts.
//     Status Build(MyPlan* plan, const JoinInput& r, const JoinInput& s,
//                  const WaveContext& wave) override;
//     Status ExecuteImpl(const MyPlan& plan, const WaveContext& wave,
//                        JoinResult* out, JoinStats* stats) override;
//     // Optional: stream batches natively instead of one finished result.
//     Status StreamImpl(const MyPlan& plan, const StreamTarget& target,
//                       JoinStats* stats) override;
//   };
//
// Prepare runs the thread-count check and the engine's Validate(), scans
// each input the caller did not bring facts for (Dataset::Scan), applies the
// reject-at-ingest geometry policy (EngineConfig::validate_inputs) to those
// facts, then constructs the plan and calls Build -- only for non-empty
// inputs, which join to the empty set without touching any index (some
// assume non-empty data). ExecutePrepared checks the output pointer and that the plan was
// prepared by this engine name with this plan type, overwrites *out, and
// calls ExecuteImpl for non-empty inputs; ExecuteStreaming applies the same
// checks to its sink and plan and calls StreamImpl, which engines with a
// native batch granularity override. Build, ExecuteImpl and StreamImpl get
// the wave their parallel loops run under, traced with the engine's own
// EngineConfig::trace; Build's never cancels. `Interface` lets the typed
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
      JoinInput r, JoinInput s, const WaveContext& wave = {}) final {
    if (r.data == nullptr || s.data == nullptr) {
      return Status::InvalidArgument("Prepare requires non-null datasets");
    }
    if (config_.num_threads < 1) {
      return Status::InvalidArgument("num_threads must be >= 1");
    }
    SWIFT_RETURN_IF_ERROR(this->Validate());
    if (!r.stats) r.stats = r.data->Scan();
    if (!s.stats) s.stats = s.data->Scan();
    if (config_.validate_inputs) {
      SWIFT_RETURN_IF_ERROR(r.stats->validity);
      SWIFT_RETURN_IF_ERROR(s.stats->validity);
    }
    auto plan = std::make_shared<PlanT>(name_, r.data, s.data);
    if (!plan->r().empty() && !plan->s().empty()) {
      const WaveContext build{wave.pool, {}, config_.trace, wave.usage};
      SWIFT_RETURN_IF_ERROR(Build(plan.get(), r, s, build));
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
    WaveContext wave;
    wave.trace = config_.trace;
    return ExecuteImpl(**typed, wave, out, stats);
  }

  Status ExecuteStreaming(const PreparedPlan& plan, const StreamTarget& target,
                          JoinStats* stats) final {
    if (!target.sink) {
      return Status::InvalidArgument(
          "ExecuteStreaming requires a callable sink");
    }
    auto typed = Typed(plan);
    if (!typed.ok()) return typed.status();
    if (plan.r().empty() || plan.s().empty()) return Status::OK();
    StreamTarget traced = target;
    traced.wave.trace = config_.trace;
    return StreamImpl(**typed, traced, stats);
  }

 protected:
  /// Builds the plan's artifacts. Only called for non-empty inputs; `r` and
  /// `s` are the plan's inputs with their facts filled in.
  virtual Status Build(PlanT* plan, const JoinInput& r, const JoinInput& s,
                       const WaveContext& wave) {
    (void)plan;
    (void)r;
    (void)s;
    (void)wave;
    return Status::OK();
  }
  /// The join over a plan of this engine. Only called for non-empty
  /// inputs, with `*out` already cleared.
  virtual Status ExecuteImpl(const PlanT& plan, const WaveContext& wave,
                             JoinResult* out, JoinStats* stats) = 0;
  /// The streamed join over a plan of this engine, with the same guards.
  /// The default runs ExecuteImpl under the target's wave and hands over
  /// the finished result.
  virtual Status StreamImpl(const PlanT& plan, const StreamTarget& target,
                            JoinStats* stats) {
    JoinResult out;
    SWIFT_RETURN_IF_ERROR(ExecuteImpl(plan, target.wave, &out, stats));
    if (!out.empty()) target.sink(std::move(out.mutable_pairs()));
    return Status::OK();
  }

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
