// Structured logging mechanics: runtime level gate (including that the
// SWIFT_LOG macro never evaluates arguments for filtered records),
// thread-local trace binding so log lines join span trees, drop-oldest
// ring accounting at capacity, the two sink formats, and a multi-writer
// storm the CI TSan job leans on.
#include "obs/log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace swiftspatial::obs {
namespace {

#ifdef SWIFTSPATIAL_OBS_OFF
TEST(LogTest, CompiledOutLoggerIsInert) {
  Logger logger(8);
  EXPECT_FALSE(logger.ShouldLog(LogLevel::kError));
  { LogEvent(&logger, LogLevel::kError, "test", "never stored").With("k", 1); }
  EXPECT_EQ(logger.emitted(), 0u);
  EXPECT_EQ(logger.size(), 0u);
  // The macro's else-branch must still be unreachable-but-compilable.
  SWIFT_LOG(Error, "test", "dead branch").With("k", 1);
}
#else

LogRecord MakeRecord(LogLevel level, std::string message) {
  LogRecord r;
  r.level = level;
  r.component = "test";
  r.message = std::move(message);
  return r;
}

TEST(LogTest, LevelGateFiltersBelowThreshold) {
  Logger logger(8);
  EXPECT_EQ(logger.min_level(), LogLevel::kInfo);
  EXPECT_FALSE(logger.ShouldLog(LogLevel::kDebug));
  EXPECT_TRUE(logger.ShouldLog(LogLevel::kInfo));
  EXPECT_TRUE(logger.ShouldLog(LogLevel::kError));

  logger.set_min_level(LogLevel::kError);
  EXPECT_FALSE(logger.ShouldLog(LogLevel::kWarn));
  EXPECT_TRUE(logger.ShouldLog(LogLevel::kError));

  logger.set_min_level(LogLevel::kDebug);
  EXPECT_TRUE(logger.ShouldLog(LogLevel::kDebug));
}

TEST(LogTest, MacroSkipsArgumentEvaluationWhenFiltered) {
  Logger& global = Logger::Global();
  const LogLevel saved = global.min_level();
  const uint64_t emitted_before = global.emitted();

  global.set_min_level(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("value");
  };
  SWIFT_LOG(Debug, "test", expensive()).With("k", expensive());
  EXPECT_EQ(evaluations, 0) << "filtered record must not evaluate arguments";
  EXPECT_EQ(global.emitted(), emitted_before);

  SWIFT_LOG(Error, "test", expensive()).With("k", expensive());
  EXPECT_EQ(evaluations, 2);
  EXPECT_EQ(global.emitted(), emitted_before + 1);

  global.set_min_level(saved);
}

TEST(LogTest, MacroNestsInUnbracedIfElse) {
  Logger& global = Logger::Global();
  const LogLevel saved = global.min_level();
  global.set_min_level(LogLevel::kError);
  // Must bind to the enclosing if, not steal the else.
  bool took_else = false;
  if (false)
    SWIFT_LOG(Error, "test", "then branch");
  else
    took_else = true;
  EXPECT_TRUE(took_else);
  global.set_min_level(saved);
}

TEST(LogTest, RecordsCarryFieldsAndTimestamps) {
  Logger logger(8);
  {
    LogEvent(&logger, LogLevel::kWarn, "service", "queue full")
        .With("tenant", "a")
        .With("pending", 16)
        .With("wait", 0.25)
        .With("degraded", true);
  }
  const std::vector<LogRecord> records = logger.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const LogRecord& r = records[0];
  EXPECT_EQ(r.level, LogLevel::kWarn);
  EXPECT_EQ(r.component, "service");
  EXPECT_EQ(r.message, "queue full");
  EXPECT_GT(r.ts_seconds, 0.0);
  ASSERT_EQ(r.fields.size(), 4u);
  EXPECT_EQ(r.fields[0], (std::pair<std::string, std::string>("tenant", "a")));
  EXPECT_EQ(r.fields[1].second, "16");
  EXPECT_EQ(r.fields[2].second, "0.25");
  EXPECT_EQ(r.fields[3].second, "true");
}

TEST(LogTest, ScopedLogTraceBindsAndRestores) {
  Logger logger(8);
  EXPECT_EQ(CurrentLogTrace().trace_id, 0u);
  {
    ScopedLogTrace outer(7, 9);
    EXPECT_EQ(CurrentLogTrace().trace_id, 7u);
    EXPECT_EQ(CurrentLogTrace().span_id, 9u);
    logger.Log(MakeRecord(LogLevel::kInfo, "outer"));
    {
      ScopedLogTrace inner(7, 11);
      logger.Log(MakeRecord(LogLevel::kInfo, "inner"));
    }
    // Inner scope restored the outer binding, not cleared it.
    EXPECT_EQ(CurrentLogTrace().span_id, 9u);
    logger.Log(MakeRecord(LogLevel::kInfo, "outer again"));
  }
  EXPECT_EQ(CurrentLogTrace().trace_id, 0u);
  logger.Log(MakeRecord(LogLevel::kInfo, "unbound"));

  const std::vector<LogRecord> records = logger.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].span_id, 9u);
  EXPECT_EQ(records[1].span_id, 11u);
  EXPECT_EQ(records[2].span_id, 9u);
  EXPECT_EQ(records[3].trace_id, 0u);
  EXPECT_EQ(records[3].span_id, 0u);
}

TEST(LogTest, BindingDoesNotOverrideExplicitIds) {
  Logger logger(8);
  ScopedLogTrace bind(7, 9);
  LogRecord r = MakeRecord(LogLevel::kInfo, "explicit");
  r.trace_id = 100;
  r.span_id = 200;
  logger.Log(std::move(r));
  const std::vector<LogRecord> records = logger.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_id, 100u);
  EXPECT_EQ(records[0].span_id, 200u);
}

TEST(LogTest, RingDropsOldestAndCountsIt) {
  Logger logger(4);
  EXPECT_EQ(logger.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    logger.Log(MakeRecord(LogLevel::kInfo, "m" + std::to_string(i)));
  }
  EXPECT_EQ(logger.size(), 4u);
  EXPECT_EQ(logger.emitted(), 10u);
  EXPECT_EQ(logger.dropped(), 6u);
  const std::vector<LogRecord> records = logger.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // The newest records survive.
  EXPECT_EQ(records.front().message, "m6");
  EXPECT_EQ(records.back().message, "m9");

  logger.Clear();
  EXPECT_EQ(logger.size(), 0u);
  // Clear drops the buffer, not the accounting.
  EXPECT_EQ(logger.emitted(), 10u);
  EXPECT_EQ(logger.dropped(), 6u);
}

TEST(LogTest, KeyValueFormatQuotesAndEscapes) {
  LogRecord r = MakeRecord(LogLevel::kWarn, "queue \"full\"");
  r.ts_seconds = 1.5;
  r.trace_id = 7;
  r.span_id = 9;
  r.fields = {{"tenant", "team a"}, {"pending", "16"}};
  const std::string line = Logger::FormatKeyValue(r);
  EXPECT_NE(line.find("ts=1.500000"), std::string::npos) << line;
  EXPECT_NE(line.find("level=warn"), std::string::npos) << line;
  EXPECT_NE(line.find("component=test"), std::string::npos) << line;
  EXPECT_NE(line.find("trace=7 span=9"), std::string::npos) << line;
  EXPECT_NE(line.find("msg=\"queue \\\"full\\\"\""), std::string::npos) << line;
  // Values with spaces are quoted; bare numerics are not.
  EXPECT_NE(line.find("tenant=\"team a\""), std::string::npos) << line;
  EXPECT_NE(line.find("pending=16"), std::string::npos) << line;

  // Untraced records omit the trace/span keys entirely.
  r.trace_id = 0;
  r.span_id = 0;
  EXPECT_EQ(Logger::FormatKeyValue(r).find("trace="), std::string::npos);
}

TEST(LogTest, JsonLineFormatIsOneObject) {
  LogRecord r = MakeRecord(LogLevel::kError, "bad\nthing");
  r.ts_seconds = 2.0;
  r.fields = {{"what", "a \"b\""}};
  const std::string line = Logger::FormatJsonLine(r);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"level\":\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"msg\":\"bad\\nthing\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"what\":\"a \\\"b\\\"\""), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos) << "JSON lines stay one line";

  // Caller-supplied fields may carry any control byte; none leaves raw.
  r.fields = {{"tenant", "t\tx\ry\x01z"}};
  const std::string tenant_line = Logger::FormatJsonLine(r);
  for (const char c : tenant_line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }
  EXPECT_NE(tenant_line.find("\"tenant\":\"t\\tx\\ry\\u0001z\""),
            std::string::npos)
      << tenant_line;
}

TEST(LogTest, StreamSinkMirrorsRecords) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  Logger logger(8);
  logger.SetStreamSink(tmp, Logger::SinkFormat::kKeyValue);
  logger.Log(MakeRecord(LogLevel::kInfo, "to sink"));
  logger.SetStreamSink(nullptr);
  logger.Log(MakeRecord(LogLevel::kInfo, "ring only"));

  std::fflush(tmp);
  std::rewind(tmp);
  char buf[512] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, tmp);
  std::fclose(tmp);
  const std::string contents(buf, n);
  EXPECT_NE(contents.find("msg=\"to sink\""), std::string::npos) << contents;
  EXPECT_EQ(contents.find("ring only"), std::string::npos)
      << "records after SetStreamSink(nullptr) must not hit the stream";
  EXPECT_EQ(logger.size(), 2u);
}

// Eight concurrent writers hammer a deliberately tiny ring: exercises the
// ring lock and the atomic accounting under contention (the CI TSan job
// runs this test); the invariant emitted == buffered + dropped must hold
// exactly once the writers join.
TEST(LogTest, ConcurrentWriterStormKeepsAccountingExact) {
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 500;
  Logger logger(64);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&logger, w] {
      ScopedLogTrace bind(static_cast<uint64_t>(w + 1), 1);
      for (int i = 0; i < kPerWriter; ++i) {
        LogEvent(&logger, LogLevel::kInfo, "storm", "write")
            .With("writer", w)
            .With("i", i);
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(logger.emitted(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(logger.size(), logger.capacity());
  EXPECT_EQ(logger.emitted(), logger.dropped() + logger.size());
  // Every surviving record carries its writer's trace binding.
  for (const LogRecord& r : logger.Snapshot()) {
    EXPECT_GE(r.trace_id, 1u);
    EXPECT_LE(r.trace_id, static_cast<uint64_t>(kWriters));
  }
}

#endif  // SWIFTSPATIAL_OBS_OFF

}  // namespace
}  // namespace swiftspatial::obs
