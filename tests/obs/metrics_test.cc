// MetricsRegistry contract: stable handles, label canonicalization,
// exposition shape, the runtime kill switch, and -- the part that justifies
// the lock-free design -- exact counts under N threads hammering shared
// handles while a reader renders expositions concurrently.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace swiftspatial::obs {
namespace {

TEST(MetricsRegistryTest, HandlesAreStableAndDeduplicated) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("swiftspatial_obs_handles_total");
  Counter* b = reg.GetCounter("swiftspatial_obs_handles_total");
  EXPECT_EQ(a, b);
  Counter* labelled =
      reg.GetCounter("swiftspatial_obs_handles_total", {{"k", "v"}});
  EXPECT_NE(a, labelled);
  // Label order must not matter: the registry canonicalizes by key.
  Counter* xy = reg.GetCounter("swiftspatial_obs_multi_total",
                               {{"x", "1"}, {"y", "2"}});
  Counter* yx = reg.GetCounter("swiftspatial_obs_multi_total",
                               {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(xy, yx);
  EXPECT_EQ(reg.family_count(), 2u);
}

TEST(MetricsRegistryTest, CounterGaugeHistogramValues) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("swiftspatial_obs_events_total");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5u);

  Gauge* g = reg.GetGauge("swiftspatial_obs_depth");
  g->Set(3.5);
  g->Add(-1.25);
  EXPECT_DOUBLE_EQ(g->value(), 2.25);

  Histogram* h = reg.GetHistogram("swiftspatial_obs_latency_seconds", {},
                                  {0.1, 1.0, 10.0});
  h->Observe(0.05);   // bucket 0 (le 0.1)
  h->Observe(0.5);    // bucket 1 (le 1)
  h->Observe(0.5);    // bucket 1
  h->Observe(100.0);  // +Inf overflow
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 101.05);
  EXPECT_EQ(h->bucket_count(0), 1u);
  EXPECT_EQ(h->bucket_count(1), 2u);
  EXPECT_EQ(h->bucket_count(2), 0u);
  EXPECT_EQ(h->bucket_count(3), 1u);  // +Inf
}

TEST(MetricsRegistryTest, RuntimeKillSwitchStopsMutations) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("swiftspatial_obs_gated_total");
  c->Increment();
  reg.set_enabled(false);
  c->Increment(100);
  EXPECT_EQ(c->value(), 1u);
  reg.set_enabled(true);
  c->Increment();
  EXPECT_EQ(c->value(), 2u);
}

TEST(MetricsRegistryTest, TextExpositionShape) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  MetricsRegistry reg;
  reg.GetCounter("swiftspatial_obs_reqs_total", {{"tenant", "a"}},
                 "Requests served")
      ->Increment(3);
  // Tenant names come from API callers unchecked.
  reg.GetCounter("swiftspatial_obs_reqs_total", {{"tenant", "t\tx\ry\x01z"}})
      ->Increment();
  reg.GetGauge("swiftspatial_obs_pending")->Set(2);
  Histogram* h =
      reg.GetHistogram("swiftspatial_obs_wait_seconds", {}, {0.5, 5.0});
  h->Observe(0.1);
  h->Observe(1.0);
  const std::string text = reg.TextExposition();
  EXPECT_NE(text.find("# HELP swiftspatial_obs_reqs_total Requests served"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE swiftspatial_obs_reqs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("swiftspatial_obs_reqs_total{tenant=\"a\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE swiftspatial_obs_pending gauge"),
            std::string::npos);
  EXPECT_NE(text.find("swiftspatial_obs_pending 2"), std::string::npos);
  // Histogram: cumulative le buckets, +Inf equals _count.
  EXPECT_NE(text.find("swiftspatial_obs_wait_seconds_bucket{le=\"0.5\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("swiftspatial_obs_wait_seconds_bucket{le=\"5\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("swiftspatial_obs_wait_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("swiftspatial_obs_wait_seconds_count 2"),
            std::string::npos);

  // The text exposition keeps the Prometheus escaping (backslash, quote,
  // newline); JSON escapes every control byte.
  EXPECT_NE(text.find("{tenant=\"t\tx\ry\x01z\"} 1"), std::string::npos);

  const std::string json = reg.JsonSnapshot();
  EXPECT_NE(json.find("\"swiftspatial_obs_reqs_total\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"t\\tx\\ry\\u0001z\""),
            std::string::npos)
      << json;
  for (const char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }
}

// Parses every value of `name` out of successive expositions and checks the
// series never decreases -- the monotonicity contract counters keep even
// while writers are mid-storm.
uint64_t ParseCounter(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return 0;
  return static_cast<uint64_t>(
      std::stoull(text.substr(pos + needle.size())));
}

TEST(MetricsRegistryTest, ConcurrentHandleHammerIsExact) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  Counter* c = reg.GetCounter("swiftspatial_obs_storm_total");
  Histogram* h =
      reg.GetHistogram("swiftspatial_obs_storm_seconds", {}, {1.0, 2.0});
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, c, h, t] {
      // Half the threads also resolve handles concurrently, exercising
      // registration against the hot path.
      Counter* mine =
          t % 2 == 0
              ? reg.GetCounter("swiftspatial_obs_storm_total")
              : c;
      for (int i = 0; i < kOpsPerThread; ++i) {
        mine->Increment();
        h->Observe(1.5);
      }
    });
  }
  // Reader: expositions during the storm stay well-formed and monotonic.
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const std::string text = reg.TextExposition();
    ASSERT_NE(text.find("# TYPE swiftspatial_obs_storm_total counter"),
              std::string::npos);
    const uint64_t seen = ParseCounter(text, "swiftspatial_obs_storm_total");
    EXPECT_GE(seen, last);
    last = seen;
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(c->value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(h->bucket_count(1),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(ParseCounter(reg.TextExposition(),
                         "swiftspatial_obs_storm_total"),
            c->value());
}

TEST(MetricsRegistryTest, HistogramDefaultsAndFamilyBoundsShared) {
  MetricsRegistry reg;
  Histogram* a = reg.GetHistogram("swiftspatial_obs_lat_seconds");
  EXPECT_EQ(a->bounds(), MetricsRegistry::DefaultLatencyBuckets());
  // Same family, new label set: shares the family's bounds.
  Histogram* b =
      reg.GetHistogram("swiftspatial_obs_lat_seconds", {{"engine", "x"}});
  EXPECT_EQ(b->bounds(), a->bounds());
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace swiftspatial::obs
