// Request-scoped tracing: TraceContext + ScopedSpan + SpanBuffer.
//
// A TraceContext is a tiny trivially-copyable token -- (SpanBuffer*,
// trace id, parent span id) -- created once per JoinService request and
// threaded through the existing seams by value: EngineConfig carries it
// into the streaming producers, waves carry it to their slots, dist
// Exchange Messages carry it across node boundaries. A default-constructed
// context is inactive and every operation on it is a no-op, so paths that
// never asked for tracing pay one pointer test.
//
// ScopedSpan is the RAII emitter: construction stamps the start time,
// End() (or the destructor) records a finished SpanRecord into the bounded
// SpanBuffer. span.context() yields a child context whose parent is this
// span, which is how the tree forms across threads and simulated nodes.
//
// The buffer counts started vs finished spans; open_spans() == 0 after a
// request drains is the invariant the cancellation tests assert (every
// span is closed even when a stream is torn down mid-flight).
//
// ChromeTraceJson() renders the buffer in the Chrome trace_event format:
// load the file in chrome://tracing or https://ui.perfetto.dev and the
// whole distributed join appears as one timeline -- the request/stream
// spans on track 0, each simulated node's shard executions on track
// node+1.
//
// Building with -DSWIFTSPATIAL_OBS_OFF compiles span construction and
// recording to empty bodies (contexts stay inactive), matching the
// metrics-side kill switch.
#ifndef SWIFTSPATIAL_OBS_TRACE_H_
#define SWIFTSPATIAL_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace swiftspatial::obs {

class SpanBuffer;

/// Process-wide steady anchor: span start times and log record timestamps
/// (obs/log.h) are offsets from the first trace operation, which keeps
/// Chrome-trace timestamps small and makes log and span times directly
/// comparable.
std::chrono::steady_clock::time_point TraceEpoch();

/// One finished span, as stored in the SpanBuffer.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  std::string name;
  double start_seconds = 0;     // relative to the process trace epoch
  double duration_seconds = 0;
  int track = 0;  // Chrome "tid": 0 = request/coordinator, node id + 1
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Propagation token. Inactive (buffer == nullptr) by default; copy it
/// freely -- it is two pointers wide.
class TraceContext {
 public:
  TraceContext() = default;

  /// Mints a fresh trace id rooted at `buffer`. Spans created from the
  /// returned context are roots (parent 0).
  static TraceContext StartTrace(SpanBuffer* buffer);

  bool active() const { return buffer_ != nullptr; }
  SpanBuffer* buffer() const { return buffer_; }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t parent_span() const { return parent_span_; }

  /// Same trace, different parent -- used by ScopedSpan::context().
  TraceContext WithParent(uint64_t span_id) const {
    TraceContext child = *this;
    child.parent_span_ = span_id;
    return child;
  }

 private:
  friend class ScopedSpan;  // builds child contexts from stored span ids
  SpanBuffer* buffer_ = nullptr;
  uint64_t trace_id_ = 0;
  uint64_t parent_span_ = 0;
};

/// RAII span. Movable, not copyable; End() is idempotent and the
/// destructor calls it, so every constructed span is eventually recorded
/// exactly once (the cancellation-safety property the tests pin down).
class ScopedSpan {
 public:
  ScopedSpan() = default;  // inactive
  ScopedSpan(const TraceContext& ctx, std::string name, int track = 0);
  ScopedSpan(ScopedSpan&& other) noexcept;
  ScopedSpan& operator=(ScopedSpan&& other) noexcept;
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { End(); }

  void AddAttr(std::string key, std::string value);
  /// Duration floor: spans that finish faster than `seconds` are elided --
  /// counted as finished (open_spans() still balances) but never pushed
  /// into the buffer. High-fan-out emitters (the per-task spans around
  /// thousands of sub-millisecond cell joins) use this so tracing costs a
  /// clock read, not a lock, on the hot path; anything slow enough to
  /// matter in a timeline still shows up.
  void SetMinRecordSeconds(double seconds) { min_record_seconds_ = seconds; }
  /// Records the span (first call only; later calls are no-ops).
  void End();
  bool active() const { return buffer_ != nullptr; }
  uint64_t span_id() const { return record_.span_id; }
  /// Context for children of this span. Inactive if the span is.
  TraceContext context() const;

 private:
  SpanBuffer* buffer_ = nullptr;  // null once ended or when inactive
  SpanRecord record_;
  std::chrono::steady_clock::time_point start_tp_{};
  double min_record_seconds_ = 0;
};

/// Bounded ring of finished spans. When full the OLDEST record is dropped
/// (and counted), so a long-lived service keeps the most recent traces.
class SpanBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 16384;

  explicit SpanBuffer(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// Process-wide buffer the examples write into.
  static SpanBuffer& Global();

  void Record(SpanRecord span) EXCLUDES(mu_);

  std::vector<SpanRecord> Snapshot() const EXCLUDES(mu_);
  /// Drops buffered spans; started/finished accounting is preserved.
  void Clear() EXCLUDES(mu_);

  std::size_t size() const EXCLUDES(mu_);
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Spans finished below a caller-set duration floor and never buffered.
  uint64_t elided() const { return elided_.load(std::memory_order_relaxed); }
  /// Spans constructed but not yet recorded. 0 once a request fully
  /// drains -- including after cancellation.
  uint64_t open_spans() const {
    // Read finished first: a concurrent span finishing between the two
    // loads can only make the result conservative (never negative).
    const uint64_t finished = finished_.load(std::memory_order_acquire);
    const uint64_t started = started_.load(std::memory_order_acquire);
    return started - finished;
  }

  /// Chrome trace_event JSON ({"traceEvents":[...]}): one complete ("X")
  /// event per span, pid = trace id, tid = track.
  std::string ChromeTraceJson() const EXCLUDES(mu_);

 private:
  friend class ScopedSpan;
  void NoteStarted() { started_.fetch_add(1, std::memory_order_acq_rel); }
  void NoteElided() {
    elided_.fetch_add(1, std::memory_order_relaxed);
    finished_.fetch_add(1, std::memory_order_acq_rel);
  }

  const std::size_t capacity_;
  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> finished_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> elided_{0};
  mutable Mutex mu_;
  std::deque<SpanRecord> spans_ GUARDED_BY(mu_);
};

}  // namespace swiftspatial::obs

#endif  // SWIFTSPATIAL_OBS_TRACE_H_
