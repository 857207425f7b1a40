// Async execution & serving sweep: the benchmark behind the exec/
// subsystem.
//
// Part 1 -- one join, three paths. The synchronous "partitioned" engine
// pays Prepare (grid assignment + sweep sort) and ExecutePrepared (cell
// joins) in sequence and delivers nothing before both finish. A cold
// stream (RunJoinAsync over datasets) runs the same Prepare and then a
// streamed execute, whose first chunk leaves as soon as one cell group has
// joined; a warm stream (RunJoinAsync over a DatasetRegistry) takes the
// cached plan and only streams the execute. Reported per path: wall time
// and time to the first chunk at chunk_pairs=512. Every path must return
// the same pair count (exit 1 otherwise).
//
// Part 2 -- the serving layer. A JoinService with a fixed worker budget
// admits closed bursts of requests at three offered-load levels and from
// 1..8 concurrent tenants, under FCFS and fair-share scheduling; reported
// are sustained throughput, p50/p99 end-to-end latency (submit -> stream
// fully collected), and the pending-queue high-water mark (bounded by
// admission control by construction).
//
//   ./build/bench/fig_async_service [--scale=N] [--threads=N] [--reps=N]
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/percentile.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "exec/service.h"
#include "exec/dataset_registry.h"
#include "exec/streaming.h"
#include "join/engine.h"

namespace swiftspatial::bench {
namespace {

// ---------------------------------------------------------------------------
// Part 1: sync plan+execute vs cold and warm streamed execution.
// ---------------------------------------------------------------------------
struct StreamTiming {
  double wall_seconds = 0;
  double first_chunk_seconds = 0;
  uint64_t results = 0;
};

// Warmup plus `reps` runs of the stream `start` opens, fully collected;
// medians of wall and first-chunk time. Exits 1 when a stream fails.
StreamTiming TimeStream(
    const std::function<Result<exec::AsyncJoinHandle>()>& start, int reps,
    const char* label) {
  StreamTiming timing;
  std::vector<double> first_chunk_times;
  timing.wall_seconds = MedianSeconds(
      [&] {
        Stopwatch sw;
        exec::AsyncJoinHandle handle = OrDie(start(), label);
        exec::ResultChunk first;
        uint64_t total = 0;
        if (handle.Next(&first)) total = first.pairs.size();
        first_chunk_times.push_back(sw.ElapsedSeconds());
        exec::StreamSummary rest = handle.Collect();
        if (!rest.status.ok()) {
          std::fprintf(stderr, "FATAL: %s stream failed: %s\n", label,
                       rest.status.ToString().c_str());
          std::exit(1);
        }
        timing.results = total + rest.run.result.size();
      },
      reps);
  // Median over warmup + reps, matching wall_seconds' aggregation.
  timing.first_chunk_seconds = Percentile(first_chunk_times, 0.5);
  return timing;
}

void RunPathSection(const BenchEnv& env, JsonReporter* json) {
  TablePrinter table(
      "One partitioned join, three paths (chunk_pairs=512; the synchronous "
      "path delivers its first pair when it finishes)",
      {"scale", "path", "first_chunk_ms", "wall_ms"});

  for (const uint64_t scale : env.scales) {
    const JoinInputs in =
        MakeInputs(WorkloadShape::kUniform, JoinKind::kPolygonPolygon, scale);
    EngineConfig config;
    config.num_threads = env.cpu_threads;

    const EngineTiming sync =
        OrDie(TimeEngine(kPartitionedEngine, config, in.r, in.s, env.reps),
              "sync partitioned run");
    const double sync_total = sync.plan_seconds + sync.median_execute_seconds;

    exec::StreamOptions stream;
    stream.chunk_pairs = 512;    // stream at cell-group granularity
    stream.queue_capacity = 64;  // don't let the sink throttle the measure
    const StreamTiming cold = TimeStream(
        [&] {
          return exec::RunJoinAsync(kPartitionedEngine, in.r, in.s, config,
                                    stream);
        },
        env.reps, "cold");
    exec::DatasetRegistry registry;
    registry.Put("r", in.r);
    registry.Put("s", in.s);
    const StreamTiming warm = TimeStream(
        [&] {
          return exec::RunJoinAsync(registry, kPartitionedEngine, "r", "s",
                                    config, stream);
        },
        env.reps, "warm");

    for (const StreamTiming* t : {&cold, &warm}) {
      if (t->results != sync.results) {
        std::fprintf(stderr,
                     "FATAL: %s stream diverges (sync=%llu streamed=%llu)\n",
                     t == &cold ? "cold" : "warm",
                     static_cast<unsigned long long>(sync.results),
                     static_cast<unsigned long long>(t->results));
        std::exit(1);
      }
    }
    const std::string label = std::to_string(scale);
    table.AddRow({label, "sync plan+execute", Ms(sync_total), Ms(sync_total)});
    table.AddRow({label, "cold streamed (datasets)",
                  Ms(cold.first_chunk_seconds), Ms(cold.wall_seconds)});
    table.AddRow({label, "warm streamed (registry)",
                  Ms(warm.first_chunk_seconds), Ms(warm.wall_seconds)});
    json->AddRow("paths/" + label,
                 {{"sync_plan_seconds", sync.plan_seconds},
                  {"sync_total_seconds", sync_total},
                  {"cold_wall_seconds", cold.wall_seconds},
                  {"cold_first_chunk_seconds", cold.first_chunk_seconds},
                  {"warm_wall_seconds", warm.wall_seconds},
                  {"warm_first_chunk_seconds", warm.first_chunk_seconds}});
  }
  table.Print();
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Part 2: JoinService under offered load.
// ---------------------------------------------------------------------------
struct ServiceRunMetrics {
  double wall_seconds = 0;
  double throughput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t max_pending_seen = 0;
};

ServiceRunMetrics ServeBurst(const Dataset& r, const Dataset& s,
                             const EngineConfig& config,
                             exec::SchedulingPolicy policy,
                             std::size_t worker_threads, int requests,
                             int tenants) {
  exec::JoinServiceOptions options;
  options.worker_threads = worker_threads;
  options.max_concurrent = 2;
  options.max_pending = static_cast<std::size_t>(requests);  // admit all
  options.policy = policy;
  exec::JoinService service(options);

  std::vector<double> latencies(requests);
  std::vector<std::thread> consumers;
  consumers.reserve(requests);
  Stopwatch wall;
  for (int i = 0; i < requests; ++i) {
    auto handle =
        service.Submit("tenant-" + std::to_string(i % tenants),
                       kPartitionedEngine, r, s, config);
    if (!handle.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   handle.status().ToString().c_str());
      std::exit(1);
    }
    // One consumer per request: latency ends when the stream is fully
    // collected, i.e. queueing + join + streaming.
    consumers.emplace_back(
        [&latencies, i, &wall, h = std::move(*handle)]() mutable {
          exec::StreamSummary summary = h.Collect();
          if (!summary.status.ok()) std::exit(1);
          latencies[i] = wall.ElapsedSeconds();
        });
  }
  for (auto& c : consumers) c.join();
  service.Drain();

  ServiceRunMetrics m;
  m.wall_seconds = wall.ElapsedSeconds();
  m.throughput_rps = requests / m.wall_seconds;
  m.p50_ms = Percentile(latencies, 0.50) * 1e3;
  m.p99_ms = Percentile(latencies, 0.99) * 1e3;
  m.max_pending_seen = service.Snapshot().max_pending_seen;
  return m;
}

void RunServiceSection(const BenchEnv& env, uint64_t scale,
                       JsonReporter* json) {
  const JoinInputs in = MakeInputs(WorkloadShape::kUniform,
                                   JoinKind::kPolygonPolygon, scale,
                                   /*seed_base=*/7);
  EngineConfig config;
  config.num_threads = 2;  // per-request parallelism within the shared pool

  TablePrinter table(
      "JoinService under closed bursts (worker budget " +
          std::to_string(env.cpu_threads) + " threads, 2 concurrent joins)",
      {"policy", "requests", "tenants", "wall_ms", "req_per_s", "p50_ms",
       "p99_ms", "max_pending"});
  for (const auto policy :
       {exec::SchedulingPolicy::kFcfs, exec::SchedulingPolicy::kFairShare}) {
    // Three offered-load levels at a fixed tenant count...
    for (const int requests : {8, 24, 64}) {
      const ServiceRunMetrics m = ServeBurst(
          in.r, in.s, config, policy, env.cpu_threads, requests, 4);
      table.AddRow({SchedulingPolicyToString(policy),
                    std::to_string(requests), "4", Ms(m.wall_seconds),
                    TablePrinter::Fmt(m.throughput_rps, 1),
                    TablePrinter::Fmt(m.p50_ms, 2),
                    TablePrinter::Fmt(m.p99_ms, 2),
                    std::to_string(m.max_pending_seen)});
      json->AddRow("service/" +
                       std::string(SchedulingPolicyToString(policy)) + "/req" +
                       std::to_string(requests) + "/tenants4",
                   {{"wall_seconds", m.wall_seconds},
                    {"p50_seconds", m.p50_ms * 1e-3},
                    {"p99_seconds", m.p99_ms * 1e-3},
                    {"throughput_rps", m.throughput_rps}});
    }
    // ...and a tenant sweep at a fixed load.
    for (const int tenants : {1, 2, 8}) {
      const ServiceRunMetrics m = ServeBurst(
          in.r, in.s, config, policy, env.cpu_threads, 32, tenants);
      table.AddRow({SchedulingPolicyToString(policy), "32",
                    std::to_string(tenants), Ms(m.wall_seconds),
                    TablePrinter::Fmt(m.throughput_rps, 1),
                    TablePrinter::Fmt(m.p50_ms, 2),
                    TablePrinter::Fmt(m.p99_ms, 2),
                    std::to_string(m.max_pending_seen)});
      json->AddRow("service/" +
                       std::string(SchedulingPolicyToString(policy)) +
                       "/req32/tenants" + std::to_string(tenants),
                   {{"wall_seconds", m.wall_seconds},
                    {"p50_seconds", m.p50_ms * 1e-3},
                    {"p99_seconds", m.p99_ms * 1e-3},
                    {"throughput_rps", m.throughput_rps}});
    }
  }
  table.Print();
  std::printf(
      "p50 tracks a single join's service time; p99 is dominated by "
      "queueing behind the worker budget, which fair-share redistributes "
      "across tenants rather than reduces (§4.2's kernel-count trade-off, "
      "served for real instead of simulated).\n");
}

// ---------------------------------------------------------------------------
// Part 3: cold vs warm serving -- the dataset-registry plan cache.
//
// Cold requests re-register a dataset before each submission (the version
// bump invalidates the cached plan, forcing a full re-plan); warm requests
// hit the cache and skip Plan entirely. Exit-code-checked: warm p50 must
// not exceed cold p50, warm plan time must collapse versus cold, and every
// warm result must be bit-identical to the cold one -- warm serving changes
// latency, never answers.
// ---------------------------------------------------------------------------
void RunWarmServingSection(const BenchEnv& env, uint64_t scale,
                           JsonReporter* json) {
  const JoinInputs in = MakeInputs(WorkloadShape::kUniform,
                                   JoinKind::kPolygonPolygon, scale,
                                   /*seed_base=*/13);
  EngineConfig config;
  config.num_threads = env.cpu_threads;

  exec::JoinServiceOptions options;
  options.worker_threads = env.cpu_threads;
  options.max_concurrent = 2;
  options.max_pending = 64;
  exec::JoinService service(options);
  service.RegisterDataset("r", in.r);
  service.RegisterDataset("s", in.s);

  const int samples = std::max(5, env.reps * 3);
  const auto serve_one = [&](const char* tenant, double* latency,
                             double* plan_seconds,
                             JoinResult* result) -> bool {
    Stopwatch sw;
    auto handle =
        service.SubmitNamed(tenant, kPartitionedEngine, "r", "s", config);
    if (!handle.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   handle.status().ToString().c_str());
      return false;
    }
    exec::StreamSummary summary = handle->Collect();
    if (!summary.status.ok()) {
      std::fprintf(stderr, "stream failed: %s\n",
                   summary.status.ToString().c_str());
      return false;
    }
    if (latency != nullptr) *latency = sw.ElapsedSeconds();
    if (plan_seconds != nullptr) {
      *plan_seconds = summary.run.timing.plan_seconds;
    }
    if (result != nullptr) *result = std::move(summary.run.result);
    return true;
  };

  // Cold: every request re-plans (sequential, so queueing never skews p50).
  std::vector<double> cold_lat(samples), cold_plan(samples);
  JoinResult cold_result;
  Stopwatch cold_wall;
  for (int i = 0; i < samples; ++i) {
    service.RegisterDataset("r", in.r);  // version bump: invalidate plans
    if (!serve_one("cold", &cold_lat[i], &cold_plan[i], &cold_result)) {
      std::exit(1);
    }
  }
  const double cold_wall_s = cold_wall.ElapsedSeconds();

  // Warm: one unmeasured request populates the cache for the current
  // dataset versions; every measured request after it is a cache hit.
  if (!serve_one("warmup", nullptr, nullptr, nullptr)) std::exit(1);
  std::vector<double> warm_lat(samples), warm_plan(samples);
  bool results_match = true;
  Stopwatch warm_wall;
  for (int i = 0; i < samples; ++i) {
    JoinResult warm_result;
    if (!serve_one("warm", &warm_lat[i], &warm_plan[i], &warm_result)) {
      std::exit(1);
    }
    results_match =
        results_match && JoinResult::SameMultiset(cold_result, warm_result);
  }
  const double warm_wall_s = warm_wall.ElapsedSeconds();

  const double cold_p50 = Percentile(cold_lat, 0.50) * 1e3;
  const double warm_p50 = Percentile(warm_lat, 0.50) * 1e3;
  const double cold_plan_p50 = Percentile(cold_plan, 0.50) * 1e3;
  const double warm_plan_p50 = Percentile(warm_plan, 0.50) * 1e3;

  TablePrinter table(
      "Cold vs warm serving at scale " + std::to_string(scale) +
          " (cold = version bump forces re-plan; warm = plan-cache hit)",
      {"mode", "requests", "p50_ms", "p99_ms", "plan_p50_ms", "req_per_s"});
  table.AddRow({"cold", std::to_string(samples), TablePrinter::Fmt(cold_p50, 2),
                TablePrinter::Fmt(Percentile(cold_lat, 0.99) * 1e3, 2),
                TablePrinter::Fmt(cold_plan_p50, 3),
                TablePrinter::Fmt(samples / cold_wall_s, 1)});
  table.AddRow({"warm", std::to_string(samples), TablePrinter::Fmt(warm_p50, 2),
                TablePrinter::Fmt(Percentile(warm_lat, 0.99) * 1e3, 2),
                TablePrinter::Fmt(warm_plan_p50, 3),
                TablePrinter::Fmt(samples / warm_wall_s, 1)});
  table.Print();
  json->AddRow("warm_serving/cold",
               {{"p50_seconds", cold_p50 * 1e-3},
                {"plan_p50_seconds", cold_plan_p50 * 1e-3},
                {"throughput_rps", samples / cold_wall_s}});
  json->AddRow("warm_serving/warm",
               {{"p50_seconds", warm_p50 * 1e-3},
                {"plan_p50_seconds", warm_plan_p50 * 1e-3},
                {"throughput_rps", samples / warm_wall_s}});

  const auto cache = service.Snapshot().plan_cache;
  std::printf("plan cache: %zu hits / %zu misses, %zu invalidated, "
              "%zu bytes resident\n",
              cache.hits, cache.misses, cache.invalidated,
              cache.resident_bytes);

  // The exit-code-checked contract (CI smoke-runs this section).
  const bool p50_ok = warm_p50 <= cold_p50;
  const bool plan_ok = warm_plan_p50 <= 0.5 * cold_plan_p50;
  std::printf("warm p50 <= cold p50: %s (%.2fms vs %.2fms)\n",
              p50_ok ? "PASS" : "FAIL", warm_p50, cold_p50);
  std::printf("warm requests skip Plan (plan p50 collapses): %s "
              "(%.3fms vs %.3fms)\n",
              plan_ok ? "PASS" : "FAIL", warm_plan_p50, cold_plan_p50);
  std::printf("warm results bit-identical to cold: %s\n\n",
              results_match ? "PASS" : "FAIL");
  if (!p50_ok || !plan_ok || !results_match) std::exit(1);
}

int Main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::Parse(argc, argv, /*default_scale=*/60000);
  JsonReporter json("fig_async_service", env);
  RunPathSection(env, &json);
  // The service section uses smaller per-request joins so a burst of 64
  // stays container-friendly.
  RunServiceSection(env, std::max<uint64_t>(5000, env.scales.front() / 10),
                    &json);
  RunWarmServingSection(env, std::max<uint64_t>(5000, env.scales.front() / 4),
                        &json);
  if (!json.WriteIfRequested()) return 1;
  return 0;
}

}  // namespace
}  // namespace swiftspatial::bench

int main(int argc, char** argv) { return swiftspatial::bench::Main(argc, argv); }
