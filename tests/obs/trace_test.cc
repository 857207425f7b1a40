// Span mechanics: parent links across contexts, idempotent End, the
// started/finished open-span accounting the cancellation tests lean on,
// drop-oldest behaviour at capacity, and the Chrome trace_event export.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace swiftspatial::obs {
namespace {

TEST(TraceTest, InactiveContextIsFreeOfSideEffects) {
  TraceContext ctx;  // default: inactive
  EXPECT_FALSE(ctx.active());
  ScopedSpan span(ctx, "noop");
  EXPECT_FALSE(span.active());
  span.AddAttr("k", "v");
  span.End();
  EXPECT_FALSE(span.context().active());
}

TEST(TraceTest, SpanTreeParentLinks) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  SpanBuffer buffer;
  TraceContext root_ctx = TraceContext::StartTrace(&buffer);
  ASSERT_TRUE(root_ctx.active());
  EXPECT_EQ(root_ctx.parent_span(), 0u);

  ScopedSpan root(root_ctx, "request");
  root.AddAttr("tenant", "t0");
  {
    ScopedSpan child(root.context(), "plan");
    ScopedSpan grandchild(child.context(), "task", /*track=*/3);
    EXPECT_EQ(buffer.open_spans(), 3u);
    grandchild.End();
    child.End();
  }
  root.End();
  EXPECT_EQ(buffer.open_spans(), 0u);

  const std::vector<SpanRecord> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord* request = nullptr;
  const SpanRecord* plan = nullptr;
  const SpanRecord* task = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.name == "request") request = &s;
    if (s.name == "plan") plan = &s;
    if (s.name == "task") task = &s;
  }
  ASSERT_NE(request, nullptr);
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(request->parent_id, 0u);
  EXPECT_EQ(plan->parent_id, request->span_id);
  EXPECT_EQ(task->parent_id, plan->span_id);
  EXPECT_EQ(task->track, 3);
  // All three share the trace id minted by StartTrace.
  EXPECT_EQ(plan->trace_id, request->trace_id);
  EXPECT_EQ(task->trace_id, request->trace_id);
  ASSERT_EQ(request->attrs.size(), 1u);
  EXPECT_EQ(request->attrs[0].first, "tenant");
}

TEST(TraceTest, EndIsIdempotentAndMoveSafe) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  SpanBuffer buffer;
  TraceContext ctx = TraceContext::StartTrace(&buffer);
  ScopedSpan a(ctx, "a");
  a.End();
  a.End();  // no double record
  EXPECT_EQ(buffer.size(), 1u);

  ScopedSpan b(ctx, "b");
  ScopedSpan moved = std::move(b);
  moved.End();
  // The moved-from span's destructor must not record a second time.
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.open_spans(), 0u);
}

TEST(TraceTest, DropOldestAtCapacity) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  SpanBuffer buffer(/*capacity=*/4);
  TraceContext ctx = TraceContext::StartTrace(&buffer);
  for (int i = 0; i < 6; ++i) {
    ScopedSpan span(ctx, "s" + std::to_string(i));
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.dropped(), 2u);
  const std::vector<SpanRecord> spans = buffer.Snapshot();
  // The two OLDEST records were evicted; s2..s5 remain.
  EXPECT_EQ(spans.front().name, "s2");
  EXPECT_EQ(spans.back().name, "s5");
  // Accounting survives eviction and Clear.
  EXPECT_EQ(buffer.open_spans(), 0u);
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.open_spans(), 0u);
}

TEST(TraceTest, ChromeTraceJsonShape) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  SpanBuffer buffer;
  TraceContext ctx = TraceContext::StartTrace(&buffer);
  {
    ScopedSpan span(ctx, "shard \"7\"", /*track=*/2);
    span.AddAttr("shard", "7");
    span.AddAttr("tenant", "t\tx\ry\x01z");
  }
  const std::string json = buffer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"shard\":\"7\""), std::string::npos);
  // Quotes in span names are escaped, and so is every control byte.
  EXPECT_NE(json.find("shard \\\"7\\\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"t\\tx\\ry\\u0001z\""),
            std::string::npos)
      << json;
  for (const char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }
}

}  // namespace
}  // namespace swiftspatial::obs
