#include "obs/log.h"

#include <chrono>
#include <cstdio>

#include "obs/format.h"
#include "obs/trace.h"

namespace swiftspatial::obs {

namespace {

#ifndef SWIFTSPATIAL_OBS_OFF
thread_local LogTraceIds tls_log_trace;
#endif

// Bare-word values (ints, plain identifiers) stay unquoted in key=value
// output so the common numeric fields read naturally; anything else is
// quoted and escaped.
bool IsBareWord(const std::string& v) {
  if (v.empty()) return false;
  for (char c : v) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.' || c == '+';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

Logger& Logger::Global() {
  static Logger* instance = new Logger();
  return *instance;
}

void Logger::Log(LogRecord record) {
#ifndef SWIFTSPATIAL_OBS_OFF
  if (record.ts_seconds == 0) {
    record.ts_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - TraceEpoch())
                            .count();
  }
  if (record.trace_id == 0 && record.span_id == 0) {
    record.trace_id = tls_log_trace.trace_id;
    record.span_id = tls_log_trace.span_id;
  }
  emitted_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  if (sink_ != nullptr) {
    const std::string line = sink_format_ == SinkFormat::kJsonLines
                                 ? FormatJsonLine(record)
                                 : FormatKeyValue(record);
    std::fprintf(sink_, "%s\n", line.c_str());
  }
  if (records_.size() >= capacity_) {
    records_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  records_.push_back(std::move(record));
#else
  (void)record;
#endif
}

void Logger::SetStreamSink(std::FILE* stream, SinkFormat format) {
#ifndef SWIFTSPATIAL_OBS_OFF
  MutexLock lock(&mu_);
  sink_ = stream;
  sink_format_ = format;
#else
  (void)stream;
  (void)format;
#endif
}

std::vector<LogRecord> Logger::Snapshot() const {
  MutexLock lock(&mu_);
  return std::vector<LogRecord>(records_.begin(), records_.end());
}

void Logger::Clear() {
  MutexLock lock(&mu_);
  records_.clear();
}

std::size_t Logger::size() const {
  MutexLock lock(&mu_);
  return records_.size();
}

std::string Logger::FormatKeyValue(const LogRecord& record) {
  char ts[48];
  std::snprintf(ts, sizeof(ts), "%.6f", record.ts_seconds);
  std::string out = "ts=";
  out += ts;
  out += " level=";
  out += LogLevelName(record.level);
  out += " component=";
  out += record.component;
  if (record.trace_id != 0) {
    out += " trace=" + std::to_string(record.trace_id);
    out += " span=" + std::to_string(record.span_id);
  }
  out += " msg=\"" + JsonEscape(record.message) + "\"";
  for (const auto& [k, v] : record.fields) {
    out += " " + k + "=";
    if (IsBareWord(v)) {
      out += v;
    } else {
      out += '"';
      out += JsonEscape(v);
      out += '"';
    }
  }
  return out;
}

std::string Logger::FormatJsonLine(const LogRecord& record) {
  char ts[48];
  std::snprintf(ts, sizeof(ts), "%.6f", record.ts_seconds);
  std::string out = "{\"ts\":";
  out += ts;
  out += ",\"level\":\"";
  out += LogLevelName(record.level);
  out += "\",\"component\":\"" + JsonEscape(record.component) + "\"";
  if (record.trace_id != 0) {
    out += ",\"trace\":" + std::to_string(record.trace_id);
    out += ",\"span\":" + std::to_string(record.span_id);
  }
  out += ",\"msg\":\"" + JsonEscape(record.message) + "\"";
  for (const auto& [k, v] : record.fields) {
    out += ",\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
  }
  out += "}";
  return out;
}

LogTraceIds CurrentLogTrace() {
#ifndef SWIFTSPATIAL_OBS_OFF
  return tls_log_trace;
#else
  return LogTraceIds{};
#endif
}

ScopedLogTrace::ScopedLogTrace(uint64_t trace_id, uint64_t span_id)
#ifndef SWIFTSPATIAL_OBS_OFF
    : saved_(tls_log_trace) {
  tls_log_trace = LogTraceIds{trace_id, span_id};
}
#else
{
  (void)trace_id;
  (void)span_id;
}
#endif

ScopedLogTrace::~ScopedLogTrace() {
#ifndef SWIFTSPATIAL_OBS_OFF
  tls_log_trace = saved_;
#endif
}

LogEvent& LogEvent::With(std::string key, double value) {
#ifndef SWIFTSPATIAL_OBS_OFF
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return With(std::move(key), std::string(buf));
#else
  (void)value;
  return With(std::move(key), std::string());
#endif
}

}  // namespace swiftspatial::obs
