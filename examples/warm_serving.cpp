// Resident datasets & warm serving: the steady-state request path.
//
// A serving deployment joins the same base tables over and over -- only the
// probe side or the engine config changes between requests. Re-running
// Prepare (grid assignment, R-tree packing, shard placement) on every
// request throws away work the dataset's lifetime already paid for. The DatasetRegistry
// (src/exec/dataset_registry.h) makes datasets resident: register once under
// a name, submit by name, and every request after the first fetches the
// cached PreparedPlan and goes straight to execution.
//
// This example walks the full lifecycle end to end:
//   1. register "buildings" and "roads" once;
//   2. a cold request pays Prepare and populates the cache;
//   3. warm requests skip Prepare (plan_ms collapses, identical results);
//   4. updating a dataset bumps its version and invalidates stale plans --
//      the next request re-plans over the new data, never serves stale;
//   5. a deadline-bound request shows post-admission enforcement riding on
//      the same stream machinery.
//
//   ./build/examples/warm_serving [--scale=N] [--requests=N]
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "datagen/generator.h"
#include "exec/service.h"
#include "join/engine.h"

using namespace swiftspatial;

namespace {

Dataset Uniform(uint64_t count, uint64_t seed) {
  UniformConfig cfg;
  cfg.map.map_size = 1000.0;  // dense enough that joins visibly match
  cfg.count = count;
  cfg.seed = seed;
  cfg.max_edge = 8.0;
  return GenerateUniform(cfg);
}

// Submits one named request and reports end-to-end and plan latency.
bool ServeOnce(exec::JoinService& service, const EngineConfig& config,
               const char* label) {
  Stopwatch sw;
  auto handle = service.SubmitNamed("demo", kPartitionedEngine, "buildings",
                                    "roads", config);
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
  std::printf("  %-22s %8zu pairs   total %6.2f ms   plan %6.3f ms\n", label,
              summary.run.result.size(), sw.ElapsedMillis(),
              summary.run.timing.plan_seconds * 1e3);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const uint64_t scale =
      static_cast<uint64_t>(flags.GetInt("scale", 20000));
  const int requests = static_cast<int>(flags.GetInt("requests", 4));

  exec::JoinServiceOptions options;
  options.worker_threads = 4;
  options.max_concurrent = 2;
  exec::JoinService service(options);

  EngineConfig config;
  config.num_threads = 4;

  // 1. Register once. The service's DatasetRegistry copies the data into a
  // resident, versioned entry; requests reference it by name from here on.
  service.RegisterDataset("buildings", Uniform(scale, 1));
  service.RegisterDataset("roads", Uniform(scale, 2));

  // 2 + 3. The first request is the cache miss that pays Prepare; every
  // request after it is a hit that skips Prepare entirely.
  std::printf("cold request, then %d warm requests:\n", requests);
  if (!ServeOnce(service, config, "cold (cache miss)")) return 1;
  for (int i = 0; i < requests; ++i) {
    if (!ServeOnce(service, config, "warm (cache hit)")) return 1;
  }

  // 4. Updating a dataset bumps its version and drops every cached plan
  // built over the old bytes -- warm serving never returns stale answers.
  std::printf("\nafter re-registering \"roads\" (version bump):\n");
  service.RegisterDataset("roads", Uniform(scale, 3));
  if (!ServeOnce(service, config, "cold again (invalidated)")) return 1;
  if (!ServeOnce(service, config, "warm again")) return 1;

  // 5. Deadlines are enforced after admission too: a request whose budget
  // expires while queued or mid-run is cancelled with DeadlineExceeded
  // instead of occupying a dispatcher to the end.
  exec::RequestOptions hurried;
  hurried.deadline_seconds = 1e-6;
  auto doomed = service.SubmitNamed("demo", kPartitionedEngine, "buildings",
                                    "roads", config, hurried);
  if (doomed.ok()) {
    const Status verdict = doomed->Wait();
    std::printf("\n1us deadline request finished with: %s\n",
                verdict.ToString().c_str());
  } else {
    std::printf("\n1us deadline request rejected at admission: %s\n",
                doomed.status().ToString().c_str());
  }

  const exec::JoinServiceStats stats = service.Snapshot();
  std::printf("\nplan cache: %zu hits / %zu misses, %zu invalidated, "
              "%zu bytes resident across %zu entries\n",
              stats.plan_cache.hits, stats.plan_cache.misses,
              stats.plan_cache.invalidated, stats.plan_cache.resident_bytes,
              stats.plan_cache.entries);
  return 0;
}
