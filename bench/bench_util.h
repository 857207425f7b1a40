// Shared infrastructure for the figure/table reproduction harnesses. Every
// bench binary runs with no arguments at a scaled-down default size
// (container-friendly) and accepts:
//   --full            paper-scale datasets (1e5..1e7 objects)
//   --scale=N         a single explicit dataset scale
//   --threads=N       CPU worker threads (default: hardware concurrency)
//   --units=N         simulated join units (default 16, the paper's config)
//   --reps=N          timed repetitions after one warmup (default 3)
//   --json-out=DIR    additionally write machine-readable telemetry to
//                     DIR/BENCH_<name>.json (see JsonReporter below); the
//                     CI bench-telemetry job diffs these against committed
//                     baselines with tools/perf_compare.py
#ifndef SWIFTSPATIAL_BENCH_BENCH_UTIL_H_
#define SWIFTSPATIAL_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "datagen/generator.h"
#include "join/engine.h"
#include "obs/format.h"

namespace swiftspatial::bench {

/// Dataset family from the paper's evaluation (§5.1).
enum class WorkloadShape { kUniform, kOsm };

/// Join type from the paper's evaluation.
enum class JoinKind { kPointPolygon, kPolygonPolygon };

inline const char* ShapeName(WorkloadShape s) {
  return s == WorkloadShape::kUniform ? "Uniform" : "OSM-like";
}
inline const char* JoinName(JoinKind k) {
  return k == JoinKind::kPointPolygon ? "Point-Polygon" : "Polygon-Polygon";
}

/// Benchmark environment parsed from the command line.
struct BenchEnv {
  Flags flags;
  bool full = false;
  std::size_t cpu_threads = 1;
  int units = 16;
  int reps = 3;
  std::vector<uint64_t> scales;
  /// Directory for BENCH_<name>.json telemetry; empty disables emission.
  std::string json_dir;

  static BenchEnv Parse(int argc, char** argv,
                        uint64_t default_scale = 100000) {
    BenchEnv env;
    env.flags = Flags::Parse(argc, argv);
    env.full = env.flags.GetBool("full", false);
    env.cpu_threads = static_cast<std::size_t>(env.flags.GetInt(
        "threads",
        std::max<int64_t>(1, std::thread::hardware_concurrency())));
    env.units = static_cast<int>(env.flags.GetInt("units", 16));
    env.reps = static_cast<int>(env.flags.GetInt("reps", 3));
    env.json_dir = env.flags.GetString("json-out", "");
    if (env.flags.Has("scale")) {
      env.scales = {static_cast<uint64_t>(env.flags.GetInt("scale", 100000))};
    } else if (env.full) {
      env.scales = {100000, 1000000, 10000000};
    } else {
      env.scales = {default_scale};
    }
    return env;
  }
};

/// Builds the (R, S) pair for one paper workload. R is the point set for
/// point-polygon joins (cuSpatial-style orientation); both sides are
/// rectangle sets for polygon-polygon.
struct JoinInputs {
  Dataset r;
  Dataset s;
};

inline JoinInputs MakeInputs(WorkloadShape shape, JoinKind kind,
                             uint64_t scale, uint64_t seed_base = 0) {
  JoinInputs out;
  if (shape == WorkloadShape::kUniform) {
    UniformConfig polygons;
    polygons.count = scale;
    polygons.seed = 101 + seed_base;
    UniformConfig other = polygons;
    other.seed = 202 + seed_base;
    if (kind == JoinKind::kPointPolygon) {
      out.r = GenerateUniformPoints(other);
    } else {
      out.r = GenerateUniform(other);
    }
    out.s = GenerateUniform(polygons);
  } else {
    OsmLikeConfig buildings;
    buildings.count = scale;
    buildings.seed = 303 + seed_base;
    OsmLikeConfig other = buildings;
    other.seed = 404 + seed_base;
    if (kind == JoinKind::kPointPolygon) {
      out.r = GenerateOsmLikePoints(other);
    } else {
      out.r = GenerateOsmLike(other);
    }
    out.s = GenerateOsmLike(buildings);
  }
  return out;
}

/// One warmup run of each, then `reps` rounds that time every function
/// once, back to back, rotating which goes first; returns each one's
/// median. Host speed drifts over seconds, so functions timed in separate
/// blocks can differ by the drift alone; interleaving exposes them all to
/// the same drift.
inline std::vector<double> InterleavedMedianSeconds(
    const std::vector<std::function<void()>>& fns, int reps) {
  for (const auto& fn : fns) fn();
  std::vector<std::vector<double>> times(fns.size());
  for (int i = 0; i < reps; ++i) {
    for (std::size_t k = 0; k < fns.size(); ++k) {
      const std::size_t f = (k + static_cast<std::size_t>(i)) % fns.size();
      Stopwatch sw;
      fns[f]();
      times[f].push_back(sw.ElapsedSeconds());
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& t : times) {
    std::sort(t.begin(), t.end());
    medians.push_back(t[t.size() / 2]);
  }
  return medians;
}

/// Timing of one engine benchmarked through the unified JoinEngine API.
struct EngineTiming {
  double plan_seconds = 0;            ///< index/partition build (untimed cost)
  double median_execute_seconds = 0;  ///< median of `reps` executions
  uint64_t results = 0;
  JoinStats stats;  ///< counters of the last execution
};

/// One warmup run plus `reps` timed runs; returns the median seconds.
inline double MedianSeconds(const std::function<void()>& fn, int reps = 3) {
  fn();  // warmup (§5.1: "a warmup run followed by three executions")
  std::vector<double> times;
  times.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    fn();
    times.push_back(sw.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Benchmarks engine `name` from the global registry: Prepare once (timed
/// separately, as the paper prices index builds apart from the join), then
/// one warmup + `reps` timed ExecutePrepared calls on that plan. The join
/// result of the last run is moved into `last_result` when non-null. Errors
/// (unknown engine, invalid config, unsupported input kind) propagate as
/// Status so harnesses can skip inapplicable rows.
inline Result<EngineTiming> TimeEngine(const std::string& name,
                                       const EngineConfig& config,
                                       const Dataset& r, const Dataset& s,
                                       int reps,
                                       JoinResult* last_result = nullptr) {
  auto engine = EngineRegistry::Global().Create(name, config);
  if (!engine.ok()) return engine.status();
  Stopwatch sw;
  auto plan = (*engine)->Prepare(BorrowDataset(r), BorrowDataset(s));
  if (!plan.ok()) return plan.status();
  EngineTiming timing;
  timing.plan_seconds = sw.ElapsedSeconds();
  JoinResult out;
  Status exec_status;
  timing.median_execute_seconds = MedianSeconds(
      [&] {
        timing.stats = JoinStats();
        Status st = (*engine)->ExecutePrepared(**plan, &out, &timing.stats);
        if (!st.ok()) exec_status = std::move(st);
      },
      reps);
  SWIFT_RETURN_IF_ERROR(exec_status);
  timing.results = out.size();
  if (last_result != nullptr) *last_result = std::move(out);
  return timing;
}

// --- Checked exits: no partial-table fall-through ---------------------------
//
// A harness that drops a failed row and still exits 0 turns breakage into a
// silently thinner table. Row-production failures split into two classes:
//   * kNotSupported -- the engine declares itself inapplicable to the input
//     (e.g. cuspatial_like on a rectangle probe set). Expected: noted on
//     stderr, exit code unaffected.
//   * anything else -- real breakage: reported on stderr, and the binary
//     exits non-zero (via ExitCode() or OrDie).

inline int& UnexpectedFailures() {
  static int count = 0;
  return count;
}

/// Harnesses that skip rows end their main with `return bench::ExitCode();`.
inline int ExitCode() { return UnexpectedFailures() == 0 ? 0 : 1; }

/// Records a row that could not be produced; see the class split above.
inline void SkipRow(const std::string& label, const Status& status) {
  if (status.code() == StatusCode::kNotSupported) {
    std::fprintf(stderr, "note: %s skipped: %s\n", label.c_str(),
                 status.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "ERROR: %s: %s\n", label.c_str(),
               status.ToString().c_str());
  ++UnexpectedFailures();
}

/// Unwraps a Result whose failure has no expected-skip reading (a baseline
/// engine on an input it supports): prints the status and exits non-zero.
template <typename T>
T OrDie(Result<T> result, const std::string& what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Formats seconds as engineering-readable milliseconds.
inline std::string Ms(double seconds) {
  return TablePrinter::Fmt(seconds * 1e3, seconds < 0.01 ? 3 : 1);
}

/// Formats a speedup factor, e.g. "12.3x".
inline std::string Speedup(double baseline_seconds, double seconds) {
  if (seconds <= 0) return "-";
  return TablePrinter::Fmt(baseline_seconds / seconds, 2) + "x";
}

// --- Machine-readable bench telemetry ---------------------------------------

/// Process CPU time (user + system) from getrusage: the numerator of the
/// per-row CPU utilization metric. 0 where rusage is unavailable.
inline double ProcessCpuSeconds() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
#else
  return 0;
#endif
}

/// Emits one BENCH_<name>.json per harness run: a schema-versioned record
/// of every table row as named numeric metrics, plus the machine/run
/// context needed to compare two runs honestly (threads, units, reps,
/// scales, hardware concurrency, git sha). tools/perf_compare.py consumes
/// pairs of these; the CI bench-telemetry job gates on the comparison.
///
///   bench::JsonReporter json("fig08_end_to_end", env);
///   ...
///   json.AddRow(label, {{"execute_seconds", t.median_execute_seconds},
///                       {"results", double(t.results)}});
///   ...
///   if (!json.WriteIfRequested()) return 1;   // before bench::ExitCode()
///
/// Every row additionally records `cpu_utilization`: process CPU time
/// (user+sys, all threads) over wall time, both measured across the
/// interval since the previous AddRow (so warmups and dataset setup done
/// for the row are included). ~1.0 = single-threaded, ~N = N cores busy,
/// << 1 = the row mostly waited.
///
/// Schema (schema_version 1):
///   { "schema_version": 1, "name": "...", "context": {...},
///     "rows": [ { "label": "...", "metrics": { "<metric>": <number> } } ] }
class JsonReporter {
 public:
  JsonReporter(std::string name, const BenchEnv& env)
      : name_(std::move(name)),
        json_dir_(env.json_dir),
        row_wall_(),
        row_cpu_(ProcessCpuSeconds()) {
    context_ = "{";
    context_ += "\"threads\":" + std::to_string(env.cpu_threads);
    context_ += ",\"units\":" + std::to_string(env.units);
    context_ += ",\"reps\":" + std::to_string(env.reps);
    context_ += ",\"full\":" + std::string(env.full ? "true" : "false");
    context_ += ",\"scales\":[";
    for (std::size_t i = 0; i < env.scales.size(); ++i) {
      if (i != 0) context_ += ",";
      context_ += std::to_string(env.scales[i]);
    }
    context_ += "]";
    context_ += ",\"hardware_concurrency\":" +
                std::to_string(std::thread::hardware_concurrency());
#ifdef SWIFTSPATIAL_GIT_SHA
    context_ += ",\"git_sha\":\"" SWIFTSPATIAL_GIT_SHA "\"";
#else
    context_ += ",\"git_sha\":\"unknown\"";
#endif
    context_ += ",\"unix_time\":" +
                std::to_string(static_cast<long long>(std::time(nullptr)));
    context_ += "}";
  }

  /// Records one row. Metric names should be stable snake_case identifiers;
  /// time-like metrics should end in `_seconds` (perf_compare.py treats
  /// them as lower-is-better; counts are compared for drift, not gated).
  void AddRow(const std::string& label,
              std::vector<std::pair<std::string, double>> metrics) {
    const double wall = row_wall_.ElapsedSeconds();
    const double cpu = ProcessCpuSeconds() - row_cpu_;
    if (wall > 0) {
      metrics.emplace_back("cpu_utilization", cpu / wall);
    }
    std::string row = "    {\"label\":\"" + obs::JsonEscape(label) +
                      "\",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i != 0) row += ",";
      row += "\"" + obs::JsonEscape(metrics[i].first) + "\":" +
             FormatNumber(metrics[i].second);
    }
    row += "}}";
    rows_.push_back(std::move(row));
    row_wall_.Reset();
    row_cpu_ = ProcessCpuSeconds();
  }

  std::string ToJson() const {
    std::string out = "{\n  \"schema_version\": 1,\n  \"name\": \"" +
                      obs::JsonEscape(name_) + "\",\n  \"context\": " + context_ +
                      ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += rows_[i];
      if (i + 1 != rows_.size()) out += ",";
      out += "\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  /// Writes DIR/BENCH_<name>.json when --json-out=DIR was passed; no-op
  /// (returning true) otherwise. Returns false on I/O failure, which
  /// harness mains turn into a non-zero exit -- a telemetry run that
  /// silently wrote nothing would let CI "pass" on stale baselines.
  bool WriteIfRequested() const {
    if (json_dir_.empty()) return true;
    const std::string path = json_dir_ + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ERROR: cannot write %s\n", path.c_str());
      return false;
    }
    const std::string body = ToJson();
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    if (ok) std::fprintf(stderr, "note: wrote %s\n", path.c_str());
    return ok;
  }

 private:
  static std::string FormatNumber(double v) {
    if (!std::isfinite(v)) return "0";  // JSON has no inf/nan literals
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  std::string name_;
  std::string json_dir_;
  std::string context_;
  std::vector<std::string> rows_;
  Stopwatch row_wall_;
  double row_cpu_ = 0;
};

}  // namespace swiftspatial::bench

#endif  // SWIFTSPATIAL_BENCH_BENCH_UTIL_H_
