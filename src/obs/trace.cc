#include "obs/trace.h"

#include <cstdio>

#include "obs/format.h"
#include "obs/log.h"

namespace swiftspatial::obs {

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

namespace {

uint64_t NextTraceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string FormatMicros(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

}  // namespace

TraceContext TraceContext::StartTrace(SpanBuffer* buffer) {
  TraceContext ctx;
#ifndef SWIFTSPATIAL_OBS_OFF
  if (buffer != nullptr) {
    ctx.buffer_ = buffer;
    ctx.trace_id_ = NextTraceId();
    ctx.parent_span_ = 0;
    TraceEpoch();  // pin the epoch no later than the first trace
  }
#else
  (void)buffer;
#endif
  return ctx;
}

ScopedSpan::ScopedSpan(const TraceContext& ctx, std::string name, int track) {
#ifndef SWIFTSPATIAL_OBS_OFF
  if (!ctx.active()) return;
  buffer_ = ctx.buffer();
  record_.trace_id = ctx.trace_id();
  record_.span_id = NextSpanId();
  record_.parent_id = ctx.parent_span();
  record_.name = std::move(name);
  record_.track = track;
  start_tp_ = std::chrono::steady_clock::now();
  record_.start_seconds =
      std::chrono::duration<double>(start_tp_ - TraceEpoch()).count();
  buffer_->NoteStarted();
#else
  (void)ctx;
  (void)name;
  (void)track;
#endif
}

ScopedSpan::ScopedSpan(ScopedSpan&& other) noexcept
    : buffer_(other.buffer_),
      record_(std::move(other.record_)),
      start_tp_(other.start_tp_),
      min_record_seconds_(other.min_record_seconds_) {
  other.buffer_ = nullptr;
}

ScopedSpan& ScopedSpan::operator=(ScopedSpan&& other) noexcept {
  if (this != &other) {
    End();
    buffer_ = other.buffer_;
    record_ = std::move(other.record_);
    start_tp_ = other.start_tp_;
    min_record_seconds_ = other.min_record_seconds_;
    other.buffer_ = nullptr;
  }
  return *this;
}

void ScopedSpan::AddAttr(std::string key, std::string value) {
#ifndef SWIFTSPATIAL_OBS_OFF
  if (buffer_ == nullptr) return;
  record_.attrs.emplace_back(std::move(key), std::move(value));
#else
  (void)key;
  (void)value;
#endif
}

void ScopedSpan::End() {
#ifndef SWIFTSPATIAL_OBS_OFF
  if (buffer_ == nullptr) return;
  record_.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_tp_)
          .count();
  SpanBuffer* buffer = buffer_;
  buffer_ = nullptr;  // idempotence: further End()/dtor are no-ops
  if (record_.duration_seconds < min_record_seconds_) {
    buffer->NoteElided();
    return;
  }
  buffer->Record(std::move(record_));
#endif
}

TraceContext ScopedSpan::context() const {
  TraceContext ctx;
#ifndef SWIFTSPATIAL_OBS_OFF
  if (buffer_ == nullptr) return ctx;
  ctx.buffer_ = buffer_;
  ctx.trace_id_ = record_.trace_id;
  ctx.parent_span_ = record_.span_id;
#endif
  return ctx;
}

SpanBuffer& SpanBuffer::Global() {
  static SpanBuffer* instance = new SpanBuffer();
  return *instance;
}

void SpanBuffer::Record(SpanRecord span) {
  bool first_drop = false;
  {
    MutexLock lock(&mu_);
    if (spans_.size() >= capacity_) {
      spans_.pop_front();
      first_drop = dropped_.fetch_add(1, std::memory_order_relaxed) == 0;
    }
    spans_.push_back(std::move(span));
  }
  finished_.fetch_add(1, std::memory_order_acq_rel);
  // Rate-limited by construction -- only the 0 -> 1 transition of the drop
  // counter logs, so a sustained overflow storm emits exactly one warning
  // per buffer lifetime while swiftspatial_obs_spans_dropped (the exported
  // self-metric) carries the running count.
  if (first_drop) {
    SWIFT_LOG(Warn, "obs",
              "span buffer full; dropping oldest spans from here on")
        .With("capacity", capacity_);
  }
}

std::vector<SpanRecord> SpanBuffer::Snapshot() const {
  MutexLock lock(&mu_);
  return std::vector<SpanRecord>(spans_.begin(), spans_.end());
}

void SpanBuffer::Clear() {
  MutexLock lock(&mu_);
  spans_.clear();
}

std::size_t SpanBuffer::size() const {
  MutexLock lock(&mu_);
  return spans_.size();
}

std::string SpanBuffer::ChromeTraceJson() const {
  const std::vector<SpanRecord> spans = Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + JsonEscape(span.name) + "\"";
    out += ",\"cat\":\"swiftspatial\",\"ph\":\"X\"";
    out += ",\"ts\":" + FormatMicros(span.start_seconds);
    out += ",\"dur\":" + FormatMicros(span.duration_seconds);
    out += ",\"pid\":" + std::to_string(span.trace_id);
    out += ",\"tid\":" + std::to_string(static_cast<uint64_t>(span.track));
    out += ",\"args\":{\"span_id\":" + std::to_string(span.span_id);
    out += ",\"parent_id\":" + std::to_string(span.parent_id);
    for (const auto& [k, v] : span.attrs) {
      out += ",\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace swiftspatial::obs
