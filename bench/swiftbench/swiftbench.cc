// swiftbench: the served-join benchmark.
//
// One process runs one workload. It generates the inputs from --seed,
// computes a reference answer with a different engine, sets the serving
// stack up three times (setup_s is the median; the last setup is kept), and
// then drives closed-loop clients against exec::JoinService: each client
// waits for its request's last chunk before it submits the next. A 3 s
// unmeasured warmup precedes the measured window of --seconds. Every
// request's pair count is checked against the reference, and the first
// measured request's full multiset is compared with it.
//
// Without --trace the metrics are the end-to-end ones. With --trace the
// loop alternates traced and untraced requests, wrapping every client call
// of a traced request in a bench-owned span (EngineConfig::trace stays
// inactive, so the program records no spans of its own). A sequential peel
// pass then times each layer's public entry point on the idle service, and
// the metrics are the per-layer ones: derived from the span durations, from
// two ceilings measured in this process, and (the unattributed residue) from
// the loaded requests' own stage timing.
//
// The output is one "name value unit" line per metric and, last, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every check passed.
//
//   swiftbench --workload=warm_uniform --seed=0 --seconds=20
//              [--trace --trace-file=trace.json] [--smoke]
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "common/status.h"
#include "datagen/generator.h"
#include "exec/service.h"
#include "exec/streaming.h"
#include "geometry/box_block.h"
#include "join/engine.h"
#include "join/simd_filter.h"
#include "obs/trace.h"
#include "refine/refinement.h"

namespace swiftspatial::swiftbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Workloads. The names are referenced by BENCHMARK.json and README.md.
// ---------------------------------------------------------------------------

enum class Data {
  kUniform,    // uniform unit squares on both sides (§5.1 Uniform)
  kOsm,        // OSM-like polygons on both sides
  kOsmPoints,  // OSM-like points (R) against OSM-like polygons (S)
};

struct Workload {
  const char* name;
  const char* engine;       // the served engine
  const char* reference;    // the engine the reference answer comes from
  Data data;
  uint64_t objects;         // objects per dataset at full scale
  int clients;              // closed-loop client threads
  std::size_t num_threads;  // EngineConfig::num_threads of every request
  bool update;  // registers a new R version before every request
  bool refine;  // refines the collected candidates before completing
};

constexpr Workload kWorkloads[] = {
    {"warm_uniform", kPartitionedEngine, kPbsmEngine, Data::kUniform, 250000,
     2, 2, false, false},
    {"update_osm", kPartitionedEngine, kPbsmEngine, Data::kOsm, 250000, 1, 4,
     true, false},
    {"rtree_points", kParallelSyncTraversalEngine, kPartitionedEngine,
     Data::kOsmPoints, 250000, 2, 2, false, false},
    {"refine_osm", kPartitionedEngine, kPbsmEngine, Data::kOsm, 500000, 1, 4,
     false, true},
};

// The serving stack every workload runs on (4-core host: at most 2 client
// threads, 4 pool workers, 2 dispatcher slots).
constexpr std::size_t kWorkerThreads = 4;
constexpr std::size_t kMaxConcurrent = 2;
constexpr int kSetups = 3;
constexpr int kPeelWarm = 3;
constexpr int kPeelSamples = 30;
constexpr RefinementOptions kRefineOptions{/*num_threads=*/4,
                                           /*polygon_vertices=*/8};
// Smoke runs shrink every dataset, and the map's area, by this factor, so
// object density and hence per-cell work stay as at full scale.
constexpr uint64_t kSmokeDivisor = 20;
// The OSM-like city layouts are fixed, as a real map extract would be; the
// seed draws which objects of each layout enter R and S. Seeding the layout
// itself swings the pair count by 20x between seeds, which would drown
// every timing in input variance.
constexpr uint64_t kOsmLayoutR = 404;
constexpr uint64_t kOsmLayoutS = 303;
constexpr char kR[] = "r";
constexpr char kS[] = "s";

// ---------------------------------------------------------------------------
// Inputs and the reference answer.
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<Dataset> r_versions;  // two for the update workload, else one
  Dataset s;
  GeometryKind r_kind = GeometryKind::kPolygon;
  GeometryKind s_kind = GeometryKind::kPolygon;
};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Draws `parts` disjoint datasets of `n` objects each from `pool` by a
// seeded shuffle (Fisher-Yates on the library's portable Rng).
std::vector<Dataset> DrawFromPool(const Dataset& pool, int parts, uint64_t n,
                                  uint64_t seed) {
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(i + 1)]);
  }
  std::vector<Dataset> out;
  for (int p = 0; p < parts; ++p) {
    std::vector<Box> boxes;
    boxes.reserve(n);
    for (uint64_t k = p * n; k < (p + 1) * n; ++k) {
      boxes.push_back(pool.box(order[k]));
    }
    out.emplace_back(pool.name() + "-" + std::to_string(p), std::move(boxes));
  }
  return out;
}

Dataset OsmPool(const MapConfig& map, uint64_t layout, uint64_t count,
                bool points) {
  OsmLikeConfig config;
  config.map = map;
  config.count = count;
  config.seed = layout;
  return points ? GenerateOsmLikePoints(config) : GenerateOsmLike(config);
}

Inputs MakeInputs(const Workload& w, uint64_t seed, bool smoke) {
  const uint64_t n = w.objects / (smoke ? kSmokeDivisor : 1);
  MapConfig map;
  if (smoke) map.map_size /= std::sqrt(static_cast<double>(kSmokeDivisor));
  Inputs in;
  if (w.data == Data::kUniform) {
    UniformConfig config;
    config.map = map;
    config.count = n;
    config.seed = SubSeed(seed, 1);
    in.r_versions.push_back(GenerateUniform(config));
    config.seed = SubSeed(seed, 2);
    in.s = GenerateUniform(config);
    return in;
  }
  const bool points = w.data == Data::kOsmPoints;
  const int r_parts = w.update ? 2 : 1;
  in.r_versions =
      DrawFromPool(OsmPool(map, kOsmLayoutR, r_parts * n * 2, points),
                   r_parts, n, SubSeed(seed, 1));
  in.s = std::move(
      DrawFromPool(OsmPool(map, kOsmLayoutS, 2 * n, false), 1, n,
                   SubSeed(seed, 2))
          .front());
  if (points) in.r_kind = GeometryKind::kPoint;
  return in;
}

// The answer a request over `r` must produce, from a different engine than
// the served one (and Refine over its candidates when the workload refines).
Result<JoinResult> ReferenceAnswer(const Workload& w, const Inputs& in,
                                   const Dataset& r) {
  EngineConfig config;
  config.num_threads = kWorkerThreads;
  SWIFT_ASSIGN_OR_RETURN(JoinRun run, RunJoin(w.reference, r, in.s, config));
  if (!w.refine) return std::move(run.result);
  return Refine(r, in.r_kind, in.s, in.s_kind, run.result.pairs(),
                kRefineOptions);
}

// ---------------------------------------------------------------------------
// The served state and one request.
// ---------------------------------------------------------------------------

struct Context {
  const Workload* workload = nullptr;
  Inputs inputs;
  std::vector<JoinResult> reference;  // one per R version
  EngineConfig config;
  std::unique_ptr<exec::JoinService> service;
  // The R version the service holds. Only the update workload changes it,
  // and it runs one client, so no two threads touch it at once.
  std::size_t version = 0;
};

// Builds the service, registers both datasets and primes the plan cache
// with one request. Returns the seconds this took; copying the inputs is
// input generation and stays outside.
Result<double> SetUp(Context* ctx) {
  ctx->service.reset();
  ctx->version = 0;
  Dataset r = ctx->inputs.r_versions[0];
  Dataset s = ctx->inputs.s;
  const auto start = Clock::now();
  exec::JoinServiceOptions options;
  options.worker_threads = kWorkerThreads;
  options.max_concurrent = kMaxConcurrent;
  ctx->service = std::make_unique<exec::JoinService>(options);
  ctx->service->RegisterDataset(kR, std::move(r));
  ctx->service->RegisterDataset(kS, std::move(s));
  SWIFT_ASSIGN_OR_RETURN(
      exec::AsyncJoinHandle prime,
      ctx->service->SubmitNamed("setup", ctx->workload->engine, kR, kS,
                                ctx->config));
  const exec::StreamSummary primed = prime.Collect();
  if (!primed.status.ok()) return primed.status;
  return Seconds(start, Clock::now());
}

// Copies the R version after the registered one, for the next update.
Dataset NextVersion(const Context& ctx, std::size_t* version) {
  *version = (ctx.version + 1) % ctx.inputs.r_versions.size();
  return ctx.inputs.r_versions[*version];
}

// A drained stream: every pair, in delivery order, its chunk counts, and
// the producer's own plan/execute stage timing.
struct Drained {
  JoinResult pairs;
  std::size_t chunks = 0;
  std::size_t max_queue_depth = 0;
  StageTiming timing;
};

// Takes the first chunk through Next, then Collects the rest. `*ttfc_s` gets
// the time from `submitted` to the first chunk.
Result<Drained> Drain(exec::AsyncJoinHandle* handle,
                      const obs::TraceContext& trace,
                      Clock::time_point submitted, double* ttfc_s) {
  exec::ResultChunk first;
  bool has_first = false;
  {
    obs::ScopedSpan span(trace, "stream.first_chunk");
    has_first = handle->Next(&first);
  }
  *ttfc_s = Seconds(submitted, Clock::now());
  exec::StreamSummary rest;
  {
    obs::ScopedSpan span(trace, "stream.collect");
    rest = handle->Collect();
  }
  if (!rest.status.ok()) return rest.status;
  Drained out;
  out.chunks = rest.chunks + (has_first ? 1 : 0);
  out.max_queue_depth = rest.max_queue_depth;
  out.timing = rest.run.timing;
  std::vector<ResultPair>& pairs = out.pairs.mutable_pairs();
  pairs = std::move(first.pairs);
  const std::vector<ResultPair>& tail = rest.run.result.pairs();
  pairs.insert(pairs.end(), tail.begin(), tail.end());
  return out;
}

struct Outcome {
  double latency_s = 0;
  double ttfc_s = 0;
  double copy_cpu_s = 0;  // client CPU spent copying the next R version
  // Latency minus what the bench's put/refine timers and the producer's
  // plan/execute stage timing account for.
  double unattributed_s = 0;
};

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// One request, timed from its first library call (RegisterDataset on the
// update workload, SubmitNamed otherwise) to the last chunk consumed, or to
// the refined result. Checks the answer's size against the reference, and
// its full multiset when `check_multiset`.
Status ServeRequest(Context* ctx, const std::string& tenant,
                    const obs::TraceContext& trace, bool check_multiset,
                    Outcome* out) {
  const Workload& w = *ctx->workload;
  std::size_t version = ctx->version;
  Dataset next;
  if (w.update) {
    const double cpu = ThreadCpuSeconds();
    next = NextVersion(*ctx, &version);
    out->copy_cpu_s = ThreadCpuSeconds() - cpu;
  }
  obs::ScopedSpan request(trace, "request");
  const obs::TraceContext inner = request.context();
  const auto start = Clock::now();
  if (w.update) {
    obs::ScopedSpan span(inner, "registry.put");
    ctx->service->RegisterDataset(kR, std::move(next));
    ctx->version = version;
  }
  const auto submitted = Clock::now();
  double attributed_s = Seconds(start, submitted);
  obs::ScopedSpan submit(inner, "service.submit");
  auto handle = ctx->service->SubmitNamed(tenant, w.engine, kR, kS,
                                          ctx->config);
  submit.End();
  if (!handle.ok()) return handle.status();
  SWIFT_ASSIGN_OR_RETURN(Drained drained,
                         Drain(&*handle, inner, submitted, &out->ttfc_s));
  attributed_s += drained.timing.total_seconds();
  JoinResult answer = std::move(drained.pairs);
  if (w.refine) {
    obs::ScopedSpan span(inner, "refine");
    const auto refine_start = Clock::now();
    answer = Refine(ctx->inputs.r_versions[version], ctx->inputs.r_kind,
                    ctx->inputs.s, ctx->inputs.s_kind, answer.pairs(),
                    kRefineOptions);
    attributed_s += Seconds(refine_start, Clock::now());
  }
  out->latency_s = Seconds(start, Clock::now());
  out->unattributed_s = out->latency_s - attributed_s;
  request.End();

  const JoinResult& reference = ctx->reference[version];
  if (answer.size() != reference.size()) {
    return Status::Internal("request returned " +
                            std::to_string(answer.size()) +
                            " pairs, the reference has " +
                            std::to_string(reference.size()));
  }
  if (check_multiset) {
    JoinResult expected = reference;
    if (!JoinResult::SameMultiset(answer, expected)) {
      return Status::Internal("request pairs differ from the reference");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The closed loop.
// ---------------------------------------------------------------------------

struct Window {
  Clock::time_point start;  // end of the warmup
  Clock::time_point end;
};

struct ClientLog {
  // Requests started inside the window.
  std::vector<double> latency;         // untraced requests
  std::vector<double> traced_latency;  // traced requests (--trace only)
  std::vector<double> ttfc;            // untraced requests
  std::vector<double> unattributed;    // untraced requests
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double copy_cpu_s = 0;
  // Requests completed inside the window.
  uint64_t completed = 0;
  // Failures anywhere in the run, warmup included.
  std::vector<std::string> errors;
};

// Closed loop: submit, drain, check, repeat until the window ends. With a
// span buffer, half the requests inside the window are traced, in pairs, so
// that both R versions of the update workload land on each side.
void RunClient(Context* ctx, int id, Window window, obs::SpanBuffer* spans,
               std::atomic<bool>* multiset_pending, ClientLog* log) {
  const std::string tenant = "client-" + std::to_string(id);
  for (uint64_t index = 0;; ++index) {
    const auto start = Clock::now();
    if (start >= window.end) break;
    const bool measured = start >= window.start;
    const bool traced = measured && spans != nullptr && index % 4 < 2;
    const bool check_multiset = measured && multiset_pending->exchange(false);
    Outcome outcome;
    const Status status = ServeRequest(
        ctx, tenant,
        traced ? obs::TraceContext::StartTrace(spans) : obs::TraceContext(),
        check_multiset, &outcome);
    const auto done = Clock::now();
    if (!status.ok()) log->errors.push_back(status.ToString());
    if (status.ok() && done >= window.start && done < window.end) {
      ++log->completed;
    }
    if (!measured) continue;
    ++log->attempted;
    log->copy_cpu_s += outcome.copy_cpu_s;
    if (!status.ok()) {
      ++log->failed;
    } else if (traced) {
      log->traced_latency.push_back(outcome.latency_s);
    } else {
      log->latency.push_back(outcome.latency_s);
      log->ttfc.push_back(outcome.ttfc_s);
      log->unattributed.push_back(outcome.unattributed_s);
    }
  }
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct LoopResult {
  ClientLog total;  // all clients merged
  double window_s = 0;
  double cpu_s = 0;  // process CPU over the window
  exec::JoinServiceStats before;
  exec::JoinServiceStats after;
};

LoopResult RunLoop(Context* ctx, double warmup_s, double window_s,
                   obs::SpanBuffer* spans) {
  const auto now = Clock::now();
  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  Window window{now + to_duration(warmup_s),
                now + to_duration(warmup_s + window_s)};
  std::atomic<bool> multiset_pending{true};
  std::vector<ClientLog> logs(ctx->workload->clients);
  std::vector<std::thread> clients;
  for (int id = 0; id < ctx->workload->clients; ++id) {
    clients.emplace_back(RunClient, ctx, id, window, spans, &multiset_pending,
                         &logs[id]);
  }
  LoopResult out;
  std::this_thread::sleep_until(window.start);
  const double cpu_before = ProcessCpuSeconds();
  out.before = ctx->service->Snapshot();
  std::this_thread::sleep_until(window.end);
  out.cpu_s = ProcessCpuSeconds() - cpu_before;
  out.after = ctx->service->Snapshot();
  out.window_s = window_s;
  for (std::thread& t : clients) t.join();

  const auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const ClientLog& log : logs) {
    ClientLog& t = out.total;
    append(t.latency, log.latency);
    append(t.traced_latency, log.traced_latency);
    append(t.ttfc, log.ttfc);
    append(t.unattributed, log.unattributed);
    append(t.errors, log.errors);
    t.attempted += log.attempted;
    t.failed += log.failed;
    t.copy_cpu_s += log.copy_cpu_s;
    t.completed += log.completed;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Ceilings, measured single-threaded in this process.
// ---------------------------------------------------------------------------

// STREAM-style copy: a 128 MiB buffer into another (256 MiB touched, far
// beyond the last-level cache). Bytes count read plus write, as STREAM does.
double CopyBytesPerSecond() {
  constexpr std::size_t kBytes = std::size_t{128} << 20;
  std::vector<unsigned char> src(kBytes, 1);
  std::vector<unsigned char> dst(kBytes, 0);
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    std::memcpy(dst.data(), src.data(), kBytes);
    // Keeps the copy: the destination is never read otherwise.
    asm volatile("" : : "r"(dst.data()) : "memory");
    best = std::max(best, Ratio(2.0 * kBytes, Seconds(start, Clock::now())));
  }
  return best;
}

// The probe-blocked filter kernel on a 4096-candidate BoxBlock, 64 probes
// per call, best of 5 timed trials.
double FilterPredicatesPerSecond() {
  constexpr std::size_t kCandidates = 4096;
  constexpr std::size_t kProbes = 64;
  UniformConfig config;
  config.count = kCandidates + kProbes;
  config.max_edge = 50;
  config.map.map_size = 1000;
  const Dataset boxes = GenerateUniform(config);
  std::vector<Box> candidate_boxes(boxes.boxes().begin(),
                                   boxes.boxes().begin() + kCandidates);
  std::vector<Box> probe_boxes(boxes.boxes().begin() + kCandidates,
                               boxes.boxes().end());
  const BoxBlock candidates = BoxBlock::FromBoxes(candidate_boxes);
  const BoxBlock probes = BoxBlock::FromBoxes(probe_boxes);
  std::vector<uint64_t> masks(kProbes * FilterMaskWords(kCandidates));
  constexpr int kCalls = 256;
  double best = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const auto start = Clock::now();
    for (int call = 0; call < kCalls; ++call) {
      FilterSoAProbeBlock(probes.min_x(), probes.min_y(), probes.max_x(),
                          probes.max_y(), kProbes, candidates.min_x(),
                          candidates.min_y(), candidates.max_x(),
                          candidates.max_y(), kCandidates, masks.data());
    }
    const double s = Seconds(start, Clock::now());
    best = std::max(best,
                    Ratio(static_cast<double>(kCalls * kProbes * kCandidates),
                          s));
  }
  return best;
}

// ---------------------------------------------------------------------------
// The traced peel pass: each layer's public entry point, called in turn on
// the idle service, one root span per sample.
// ---------------------------------------------------------------------------

struct PeelCounts {
  std::vector<double> chunks;
  std::vector<double> max_queue_depth;
  JoinStats filter;
  std::size_t filter_pairs = 0;
  std::size_t plan_bytes = 0;
  RefinementStats refine;
};

Status PeelSample(Context* ctx, obs::SpanBuffer* spans, bool warm,
                  PeelCounts* counts) {
  const Workload& w = *ctx->workload;
  exec::JoinService& service = *ctx->service;
  exec::DatasetRegistry& registry = service.registry();
  const EngineConfig& config = ctx->config;
  std::size_t version = ctx->version;
  Dataset next;
  if (w.update) next = NextVersion(*ctx, &version);

  obs::ScopedSpan root(obs::TraceContext::StartTrace(spans),
                       warm ? "peel.warmup" : "peel");
  const obs::TraceContext trace = root.context();
  if (w.update) {
    obs::ScopedSpan span(trace, "registry.put");
    service.RegisterDataset(kR, std::move(next));
    ctx->version = version;
  }
  {
    // Re-plans right after a put; a plain lookup otherwise.
    obs::ScopedSpan span(trace, "registry.get_or_prepare");
    auto plan = registry.GetOrPrepare(w.engine, kR, kS, config);
    if (!plan.ok()) return plan.status();
  }
  std::shared_ptr<const PreparedPlan> plan;
  {
    obs::ScopedSpan span(trace, "registry.lookup");
    SWIFT_ASSIGN_OR_RETURN(plan,
                           registry.GetOrPrepare(w.engine, kR, kS, config));
  }
  {
    SWIFT_ASSIGN_OR_RETURN(exec::ResidentDataset r, registry.Get(kR));
    SWIFT_ASSIGN_OR_RETURN(exec::ResidentDataset s, registry.Get(kS));
    obs::ScopedSpan span(trace, "plan.prepare");
    SWIFT_ASSIGN_OR_RETURN(
        std::shared_ptr<const PreparedPlan> cold,
        PrepareJoin(w.engine, r.dataset, s.dataset, config));
    span.End();
    counts->plan_bytes = cold->MemoryBytes();
  }
  {
    obs::ScopedSpan span(trace, "filter.execute");
    SWIFT_ASSIGN_OR_RETURN(JoinRun run, RunPreparedJoin(*plan, config));
    span.End();
    counts->filter = run.stats;
    counts->filter_pairs = run.result.size();
  }
  std::size_t stream_pairs = 0;
  {
    obs::ScopedSpan span(trace, "stream.run");
    const auto submitted = Clock::now();
    SWIFT_ASSIGN_OR_RETURN(
        exec::AsyncJoinHandle handle,
        exec::RunJoinAsync(registry, w.engine, kR, kS, config));
    double ttfc_s = 0;
    SWIFT_ASSIGN_OR_RETURN(
        Drained drained, Drain(&handle, span.context(), submitted, &ttfc_s));
    span.End();
    stream_pairs = drained.pairs.size();
    counts->chunks.push_back(static_cast<double>(drained.chunks));
    counts->max_queue_depth.push_back(
        static_cast<double>(drained.max_queue_depth));
  }
  JoinResult answer;
  {
    obs::ScopedSpan span(trace, "service.run");
    const auto submitted = Clock::now();
    SWIFT_ASSIGN_OR_RETURN(
        exec::AsyncJoinHandle handle,
        service.SubmitNamed("peel", w.engine, kR, kS, config));
    double ttfc_s = 0;
    SWIFT_ASSIGN_OR_RETURN(
        Drained drained, Drain(&handle, span.context(), submitted, &ttfc_s));
    span.End();
    answer = std::move(drained.pairs);
  }
  if (stream_pairs != counts->filter_pairs ||
      answer.size() != counts->filter_pairs) {
    return Status::Internal("peel: RunPreparedJoin, RunJoinAsync and "
                            "SubmitNamed disagree on the pair count");
  }
  if (w.refine) {
    obs::ScopedSpan span(trace, "refine");
    answer = Refine(ctx->inputs.r_versions[version], ctx->inputs.r_kind,
                    ctx->inputs.s, ctx->inputs.s_kind, answer.pairs(),
                    kRefineOptions, &counts->refine);
  }
  if (answer.size() != ctx->reference[version].size()) {
    return Status::Internal("peel: answer size differs from the reference");
  }
  return Status::OK();
}

// Span durations keyed by the span's path from its root, e.g.
// "peel/stream.run/stream.first_chunk".
std::map<std::string, std::vector<double>> SpanDurations(
    const obs::SpanBuffer& spans) {
  const std::vector<obs::SpanRecord> records = spans.Snapshot();
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& r : records) by_id[r.span_id] = &r;
  std::map<std::string, std::vector<double>> out;
  for (const obs::SpanRecord& r : records) {
    std::string path = r.name;
    for (auto it = by_id.find(r.parent_id); it != by_id.end();
         it = by_id.find(it->second->parent_id)) {
      path = it->second->name + "/" + path;
    }
    out[path].push_back(r.duration_seconds);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %-14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// The end-to-end metrics of an untraced run.
std::vector<Metric> EndToEndMetrics(const LoopResult& loop,
                                    const std::vector<double>& setups) {
  const ClientLog& log = loop.total;
  const double completed = static_cast<double>(log.completed);
  const std::size_t samples = log.latency.size();
  const std::size_t beyond_p95 =
      samples - std::min<std::size_t>(
                    samples, static_cast<std::size_t>(std::ceil(0.95 * samples)));
  std::printf("latency samples %zu (%zu beyond p95), completed in window "
              "%llu\n",
              samples, beyond_p95,
              static_cast<unsigned long long>(log.completed));
  std::printf("%-34s %-14.6g %s\n", "error_rate",
              Ratio(static_cast<double>(log.failed),
                    static_cast<double>(log.attempted)),
              "ratio");
  return {
      {"setup_s", Median(setups), "s"},
      {"latency_p50_s", Median(log.latency), "s"},
      {"latency_p95_s", Percentile(log.latency, 0.95), "s"},
      {"ttfc_p50_s", Median(log.ttfc), "s"},
      {"throughput_rps", Ratio(completed, loop.window_s), "1/s"},
      {"cpu_per_request_s", Ratio(loop.cpu_s - log.copy_cpu_s, completed),
       "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// The per-layer metrics of a traced run: runs the peel pass and the
// ceilings, then derives every layer from the span durations.
std::vector<Metric> LayerMetrics(Context* ctx, const LoopResult& loop,
                                 double hit_ratio, obs::SpanBuffer* spans,
                                 std::vector<std::string>* errors) {
  PeelCounts counts;
  for (int i = 0; i < kPeelWarm + kPeelSamples; ++i) {
    const Status st = PeelSample(ctx, spans, i < kPeelWarm, &counts);
    if (!st.ok()) errors->push_back(st.ToString());
  }
  const double copy_bps = CopyBytesPerSecond();
  const double filter_pps = FilterPredicatesPerSecond();
  if (spans->dropped() > 0) errors->push_back("span buffer overflowed");
  const auto durations = SpanDurations(*spans);
  const auto median_of = [&](const std::string& key) {
    const auto it = durations.find(key);
    return it == durations.end() ? 0.0 : Median(it->second);
  };

  const double put = median_of("peel/registry.put");
  const double lookup = median_of("peel/registry.lookup");
  const double prepare = median_of("peel/plan.prepare");
  const double execute = median_of("peel/filter.execute");
  const double stream_wall = median_of("peel/stream.run");
  const double stream_self = stream_wall - lookup - execute;
  const double service_self = median_of("peel/service.run") - stream_wall;
  const double refine = median_of("peel/refine");
  const double queue_wait =
      Ratio(loop.after.resources.queue_wait_seconds -
                loop.before.resources.queue_wait_seconds,
            static_cast<double>(loop.after.completed - loop.before.completed));
  const double latency_p50 = Median(loop.total.latency);
  // What neither the program's accounting (stage timing, queue wait) nor
  // the bench's put/refine timers explain, on the loaded requests.
  const double residual = Median(loop.total.unattributed) - queue_wait;
  const double input_bytes_per_s = Ratio(
      static_cast<double>(
          (ctx->inputs.r_versions[0].size() + ctx->inputs.s.size()) *
          sizeof(Box)),
      prepare);
  const double predicates =
      static_cast<double>(counts.filter.predicate_evaluations);
  const double pairs = static_cast<double>(counts.filter_pairs);
  const double predicates_per_s = Ratio(predicates, execute);
  const double candidates = static_cast<double>(counts.refine.candidates);
  const double threads = static_cast<double>(ctx->workload->num_threads);
  const double plan_bytes =
      static_cast<double>(ctx->service->Snapshot().plan_cache.resident_bytes);

  return {
      {"service.submit_s", median_of("request/service.submit"), "s"},
      {"service.queue_wait_s", queue_wait, "s"},
      {"service.self_s", service_self, "s"},
      {"service.max_pending",
       static_cast<double>(loop.after.max_pending_seen), "count"},
      {"registry.put_s", put, "s"},
      {"registry.lookup_s", lookup, "s"},
      {"registry.plan_cache_hit_ratio", hit_ratio, "ratio"},
      {"registry.plan_bytes", plan_bytes, "bytes"},
      {"plan.prepare_s", prepare, "s"},
      {"plan.bytes", static_cast<double>(counts.plan_bytes), "bytes"},
      {"plan.input_bytes_per_s", input_bytes_per_s, "bytes/s"},
      {"plan.bw_fraction", Ratio(input_bytes_per_s, copy_bps), "ratio"},
      {"filter.execute_s", execute, "s"},
      {"filter.predicates", predicates, "count"},
      {"filter.tasks", static_cast<double>(counts.filter.tasks), "count"},
      {"filter.pairs", pairs, "count"},
      {"filter.selectivity", Ratio(pairs, predicates), "ratio"},
      {"filter.predicates_per_s", predicates_per_s, "1/s"},
      {"filter.peak_fraction", Ratio(predicates_per_s, filter_pps * threads),
       "ratio"},
      {"stream.ttfc_s", median_of("peel/stream.run/stream.first_chunk"), "s"},
      {"stream.wall_s", stream_wall, "s"},
      {"stream.self_s", stream_self, "s"},
      {"stream.chunks", Median(counts.chunks), "count"},
      {"stream.max_queue_depth", Median(counts.max_queue_depth), "count"},
      {"refine.s", refine, "s"},
      {"refine.candidates", candidates, "count"},
      {"refine.false_positive_ratio",
       Ratio(static_cast<double>(counts.refine.false_positives), candidates),
       "ratio"},
      {"refine.pairs_per_s", Ratio(candidates, refine), "1/s"},
      {"residual.unattributed_s", residual, "s"},
      {"residual.unattributed_fraction", Ratio(residual, latency_p50),
       "ratio"},
      {"ceiling.copy_bytes_per_s", copy_bps, "bytes/s"},
      {"ceiling.filter_predicates_per_s", filter_pps, "1/s"},
      {"trace.overhead",
       Ratio(Median(loop.total.traced_latency), latency_p50) - 1, "ratio"},
  };
}

Status WriteTrace(const obs::SpanBuffer& spans, const std::string& path) {
  const std::string json = spans.ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  const bool written = std::fwrite(json.data(), 1, json.size(), f) ==
                       json.size();
  if (std::fclose(f) != 0 || !written) {
    return Status::Internal("cannot write " + path);
  }
  std::printf("trace written to %s (%zu spans)\n", path.c_str(),
              spans.size());
  return Status::OK();
}

int Run(const Flags& flags) {
  const std::string name = flags.GetString("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload=%s; one of:", name.c_str());
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  const double window_s = flags.GetDouble("seconds", 20);
  const bool trace = flags.GetBool("trace", false);
  const bool smoke = flags.GetBool("smoke", false);
  if (!(window_s > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  Context ctx;
  ctx.workload = workload;
  ctx.config.num_threads = workload->num_threads;
  ctx.inputs = MakeInputs(*workload, seed, smoke);
  for (const Dataset& r : ctx.inputs.r_versions) {
    auto reference = ReferenceAnswer(*workload, ctx.inputs, r);
    if (!reference.ok()) {
      std::fprintf(stderr, "reference failed: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    ctx.reference.push_back(std::move(*reference));
  }
  std::printf("workload %s: engine %s, %d client(s), num_threads %zu, "
              "|S| = %zu, seed %llu, reference (%s) %zu pairs\n",
              workload->name, workload->engine, workload->clients,
              workload->num_threads, ctx.inputs.s.size(),
              static_cast<unsigned long long>(seed), workload->reference,
              ctx.reference[0].size());

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    auto setup = SetUp(&ctx);
    if (!setup.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   setup.status().ToString().c_str());
      return 1;
    }
    setups.push_back(*setup);
  }

  obs::SpanBuffer spans(std::size_t{1} << 18);
  const LoopResult loop = RunLoop(&ctx, smoke ? 0.5 : 3.0, window_s,
                                  trace ? &spans : nullptr);
  std::vector<std::string> errors = loop.total.errors;
  // Warm workloads never re-plan inside the window; the update one always
  // does.
  const double hits = static_cast<double>(loop.after.plan_cache.hits -
                                          loop.before.plan_cache.hits);
  const double misses = static_cast<double>(loop.after.plan_cache.misses -
                                            loop.before.plan_cache.misses);
  const double hit_ratio = Ratio(hits, hits + misses);
  if (hit_ratio != (workload->update ? 0.0 : 1.0)) {
    errors.push_back("plan-cache hit ratio " + std::to_string(hit_ratio) +
                     " in the window");
  }

  std::vector<Metric> metrics;
  if (trace) {
    metrics = LayerMetrics(&ctx, loop, hit_ratio, &spans, &errors);
    const Status written =
        WriteTrace(spans, flags.GetString("trace-file", "trace.json"));
    if (!written.ok()) errors.push_back(written.ToString());
  } else {
    metrics = EndToEndMetrics(loop, setups);
  }

  for (const std::string& e : errors) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }
  const bool correct = errors.empty() && loop.total.attempted > 0;
  PrintResult(correct, std::max<uint64_t>(loop.total.attempted, 1),
              loop.total.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace swiftspatial::swiftbench

int main(int argc, char** argv) {
  // A fixed mmap threshold (setting it also switches glibc's dynamic one
  // off) hands every freed buffer of 128 KiB or more back to the OS. With
  // the dynamic threshold, whether a large freed buffer stayed resident
  // depended on allocation history and on which per-thread arena a
  // request's threads landed in, and peak_rss_mb of rtree_points swung
  // between 48 and 70 MB from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  return swiftspatial::swiftbench::Run(swiftspatial::Flags::Parse(argc, argv));
}
