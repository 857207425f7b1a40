// Accelerator-offload engine benchmark: the simulated device behind the
// same RunJoin / RunJoinAsync entry points as every CPU engine.
//
// Two questions, one table each:
//  1. End-to-end: CPU engines (host wall clock) vs accelerator engines
//     (host wall clock to drive the simulation, plus the *modelled* device
//     seconds -- kernel + PCIe + launch -- which is the number comparable
//     to the paper's measurements).
//  2. Streaming: time-to-first-chunk of exec::RunJoinAsync on the native
//     accelerator streams. The write unit's burst flushes surface as chunks
//     while the simulated kernel still runs, so the first chunk lands well
//     before the synchronous run completes -- the host/device overlap
//     signal.
//
// The harness exits non-zero if any engine fails or a streamed result
// diverges from its synchronous run, so CI can smoke-test it.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "exec/streaming.h"
#include "join/accel_engine.h"

namespace swiftspatial::bench {
namespace {

int Main(int argc, char** argv) {
  // Simulation is cycle-accurate and single-threaded: default to a modest
  // scale (override with --scale).
  const BenchEnv env = BenchEnv::Parse(argc, argv, /*default_scale=*/4000);
  std::printf(
      "Accelerator offload engines: CPU vs simulated device end-to-end, "
      "plus streaming time-to-first-chunk\n");

  int failures = 0;
  JsonReporter json("fig_accel_engine", env);
  for (const uint64_t scale : env.scales) {
    // Unit squares on a map sized for ~5 result pairs per object regardless
    // of scale (the paper's fixed 10000-unit map only becomes selective at
    // 1e5+ objects; this bench must stream multi-chunk at smoke sizes too).
    UniformConfig gen;
    gen.count = scale;
    gen.map.map_size =
        std::max(4.0, 2.0 * std::sqrt(static_cast<double>(scale) / 5.0));
    gen.seed = 101;
    JoinInputs in;
    in.r = GenerateUniform(gen);
    gen.seed = 202;
    in.s = GenerateUniform(gen);
    std::printf("\n== scale %llu x %llu (threads=%zu, units=%d) ==\n",
                static_cast<unsigned long long>(in.r.size()),
                static_cast<unsigned long long>(in.s.size()),
                env.cpu_threads, env.units);

    EngineConfig config;
    config.num_threads = env.cpu_threads;
    config.accel_join_units = env.units;

    TablePrinter table(
        "End-to-end (host wall vs device model)",
        {"engine", "plan_ms", "exec_host_ms", "device_model_ms", "results"});

    // First engine's output is the reference; every later engine must
    // produce the identical result multiset (equal counts are not enough:
    // a dedup bug can double-claim one pair and drop another).
    JoinResult reference;
    bool have_reference = false;
    const auto check_result = [&](const char* name, JoinResult result) {
      if (!have_reference) {
        reference = std::move(result);
        have_reference = true;
        return;
      }
      if (!JoinResult::SameMultiset(reference, result)) {
        std::fprintf(stderr,
                     "%s: result multiset diverges from the reference "
                     "(%zu vs %zu pairs)\n",
                     name, result.size(), reference.size());
        ++failures;
      }
    };
    for (const char* name : {kPartitionedEngine, kParallelSyncTraversalEngine,
                             kAccelBfsEngine, kAccelPbsmEngine,
                             kAccelPbsmMultiEngine}) {
      if (IsAccelEngine(name)) {
        auto engine = MakeAccelEngine(name, config);
        if (!engine.ok()) {
          std::fprintf(stderr, "%s: %s\n", name,
                       engine.status().ToString().c_str());
          ++failures;
          continue;
        }
        Stopwatch sw;
        auto plan =
            (*engine)->Prepare(BorrowDataset(in.r), BorrowDataset(in.s));
        const double plan_s = sw.ElapsedSeconds();
        if (!plan.ok()) {
          std::fprintf(stderr, "%s: %s\n", name,
                       plan.status().ToString().c_str());
          ++failures;
          continue;
        }
        JoinResult out;
        Status exec_status = Status::OK();
        const double exec_s = MedianSeconds(
            [&] {
              Status st = (*engine)->ExecutePrepared(**plan, &out, nullptr);
              if (!st.ok()) exec_status = std::move(st);
            },
            env.reps);
        if (!exec_status.ok()) {
          std::fprintf(stderr, "%s: %s\n", name,
                       exec_status.ToString().c_str());
          ++failures;
          continue;
        }
        const hw::AcceleratorReport& report = (*engine)->last_report();
        table.AddRow({name, Ms(plan_s), Ms(exec_s),
                      Ms(report.total_seconds), std::to_string(out.size())});
        std::vector<std::pair<std::string, double>> metrics = {
            {"plan_seconds", plan_s},
            {"execute_seconds", exec_s},
            {"device_model_seconds", report.total_seconds},
            {"results", static_cast<double>(out.size())}};
        // The device's join units test every pair of a node pair;
        // perf_compare pins the count.
        if (std::string(name) == kAccelBfsEngine) {
          metrics.emplace_back(
              "predicate_evaluations",
              static_cast<double>(report.stats.predicate_evaluations));
        }
        json.AddRow(std::string(name) + "/" + std::to_string(scale),
                    std::move(metrics));
        check_result(name, std::move(out));
      } else {
        JoinResult out;
        auto timing = TimeEngine(name, config, in.r, in.s, env.reps, &out);
        if (!timing.ok()) {
          std::fprintf(stderr, "%s: %s\n", name,
                       timing.status().ToString().c_str());
          ++failures;
          continue;
        }
        table.AddRow({name, Ms(timing->plan_seconds),
                      Ms(timing->median_execute_seconds), "-",
                      std::to_string(timing->results)});
        std::vector<std::pair<std::string, double>> metrics = {
            {"plan_seconds", timing->plan_seconds},
            {"execute_seconds", timing->median_execute_seconds},
            {"results", static_cast<double>(timing->results)}};
        // The grid join reads exact boxes only to re-check the candidates
        // its rounded cell entries leave; perf_compare pins the count.
        if (std::string(name) == kPartitionedEngine) {
          metrics.emplace_back(
              "exact_rechecks",
              static_cast<double>(timing->stats.exact_rechecks));
        }
        // The CPU traversal tests each node pair's entries against the
        // other node's MBR and joins only the survivors; perf_compare pins
        // the count, which the full pairwise join would exceed.
        if (std::string(name) == kParallelSyncTraversalEngine) {
          metrics.emplace_back(
              "predicate_evaluations",
              static_cast<double>(timing->stats.predicate_evaluations));
        }
        json.AddRow(std::string(name) + "/" + std::to_string(scale),
                    std::move(metrics));
        check_result(name, std::move(out));
      }
    }
    table.Print();

    // --- Streaming: time-to-first-chunk vs the synchronous run. ---
    TablePrinter stream_table(
        "RunJoinAsync on the accelerator engines (native streaming)",
        {"engine", "sync_total_ms", "async_total_ms", "first_chunk_ms",
         "chunks", "overlap"});
    for (const char* name :
         {kAccelBfsEngine, kAccelPbsmEngine, kAccelPbsmMultiEngine}) {
      auto sync = RunJoin(name, in.r, in.s, config);
      if (!sync.ok()) {
        std::fprintf(stderr, "%s sync: %s\n", name,
                     sync.status().ToString().c_str());
        ++failures;
        continue;
      }
      const double sync_total = sync->timing.total_seconds();

      Stopwatch sw;
      auto handle = exec::RunJoinAsync(name, in.r, in.s, config);
      if (!handle.ok()) {
        std::fprintf(stderr, "%s async: %s\n", name,
                     handle.status().ToString().c_str());
        ++failures;
        continue;
      }
      exec::ResultChunk chunk;
      double first_chunk_s = -1;
      std::size_t chunks = 0;
      JoinResult streamed;
      while (handle->Next(&chunk)) {
        if (first_chunk_s < 0) first_chunk_s = sw.ElapsedSeconds();
        ++chunks;
        auto& pairs = streamed.mutable_pairs();
        pairs.insert(pairs.end(), chunk.pairs.begin(), chunk.pairs.end());
      }
      const double async_total = sw.ElapsedSeconds();
      const Status final_status = handle->Wait();
      if (!final_status.ok()) {
        std::fprintf(stderr, "%s async: %s\n", name,
                     final_status.ToString().c_str());
        ++failures;
        continue;
      }
      if (!JoinResult::SameMultiset(sync->result, streamed)) {
        std::fprintf(stderr,
                     "%s: streamed multiset (%zu pairs) diverges from the "
                     "synchronous run (%zu pairs)\n",
                     name, streamed.size(), sync->result.size());
        ++failures;
      }
      // The overlap signal: how early the first chunk landed relative to
      // the synchronous end-to-end time.
      const std::string overlap =
          first_chunk_s < 0
              ? "-"
              : TablePrinter::Fmt(sync_total / first_chunk_s, 1) +
                    "x before sync";
      stream_table.AddRow({name, Ms(sync_total), Ms(async_total),
                           first_chunk_s < 0 ? "-" : Ms(first_chunk_s),
                           std::to_string(chunks), overlap});
      json.AddRow("stream/" + std::string(name) + "/" +
                      std::to_string(scale),
                  {{"sync_total_seconds", sync_total},
                   {"async_total_seconds", async_total},
                   {"first_chunk_seconds",
                    first_chunk_s < 0 ? 0.0 : first_chunk_s},
                   {"chunks", static_cast<double>(chunks)}});
    }
    stream_table.Print();
  }

  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d accelerator-engine check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf(
      "\nPASS. Reading the tables: exec_host_ms is what this host pays to "
      "*simulate* the device cycle-by-cycle; device_model_ms is the modelled "
      "kernel + PCIe + launch time an actual U250 would take, the number "
      "comparable to the paper and to the CPU rows. first_chunk_ms << "
      "sync_total_ms is the host/device overlap: consumers start refining "
      "while the (simulated) kernel is still filtering.\n");
  if (!json.WriteIfRequested()) return 1;
  return 0;
}

}  // namespace
}  // namespace swiftspatial::bench

int main(int argc, char** argv) { return swiftspatial::bench::Main(argc, argv); }
