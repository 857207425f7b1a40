// Streaming-API contract tests: chunked delivery, backpressure bounds,
// cancellation prefixes, and -- the load-bearing one -- Collect() proven
// bit-identical to the synchronous RunJoin result for EVERY engine in the
// registry (the "async" engine is additionally covered by the cross-
// algorithm oracle in tests/join/equivalence_test.cc).
#include "exec/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "join/engine.h"
#include "tests/test_util.h"

namespace swiftspatial::exec {
namespace {

// Sorted copy of a result's pairs for multiset comparisons.
std::vector<ResultPair> SortedPairs(const JoinResult& result) {
  std::vector<ResultPair> pairs = result.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// --- Fault-injecting engines -------------------------------------------
// A producer that fails mid-run must surface a non-OK status to the
// consumer instead of hanging or silently truncating. Two failure flavours:
// an execution that errors after partial work, and one that throws. Two
// more engines pin the producer's stage timing: one whose factory is slow,
// one whose factory is slow and then returns no engine. Registered lazily
// under a "fault-" prefix; the registry-enumerating tests below skip that
// prefix (sync RunJoin on them fails or stalls by design).

class FaultEngineBase : public JoinEngine {
 public:
  explicit FaultEngineBase(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  Result<std::shared_ptr<const PreparedPlan>> Prepare(
      std::shared_ptr<const Dataset> r,
      std::shared_ptr<const Dataset> s) override {
    return std::shared_ptr<const PreparedPlan>(
        std::make_shared<InputsOnlyPlan>(name_, std::move(r), std::move(s)));
  }

 private:
  std::string name_;
};

class ErrorAfterPartialResultEngine : public FaultEngineBase {
 public:
  using FaultEngineBase::FaultEngineBase;
  Status ExecutePrepared(const PreparedPlan&, JoinResult* out,
                         JoinStats*) override {
    out->Add(0, 0);  // partial work the stream must NOT deliver as success
    return Status::Internal("injected mid-run failure");
  }
};

class ThrowingEngine : public FaultEngineBase {
 public:
  using FaultEngineBase::FaultEngineBase;
  Status ExecutePrepared(const PreparedPlan&, JoinResult*,
                         JoinStats*) override {
    throw std::runtime_error("injected producer exception");
  }
};

class EmptyResultEngine : public FaultEngineBase {
 public:
  using FaultEngineBase::FaultEngineBase;
  Status ExecutePrepared(const PreparedPlan&, JoinResult* out,
                         JoinStats*) override {
    *out = JoinResult();
    return Status::OK();
  }
};

constexpr const char* kFaultErrorEngine = "fault-error";
constexpr const char* kFaultThrowEngine = "fault-throw";
constexpr const char* kFaultSlowFactoryEngine = "fault-slow-factory";
constexpr const char* kFaultNullFactoryEngine = "fault-null-factory";
constexpr auto kFactoryDelay = std::chrono::milliseconds(50);

void RegisterFaultEnginesOnce() {
  static const bool registered = [] {
    // A registration failure here would silently skip the fault-path
    // coverage below, so it aborts the test binary.
    const auto register_or_die = [](const char* name, EngineFactory factory) {
      const Status st =
          EngineRegistry::Global().Register(name, std::move(factory));
      SWIFT_CHECK(st.ok()) << st.ToString();
    };
    register_or_die(kFaultErrorEngine, [](const EngineConfig&) {
      return std::make_unique<ErrorAfterPartialResultEngine>(
          kFaultErrorEngine);
    });
    register_or_die(kFaultThrowEngine, [](const EngineConfig&) {
      return std::make_unique<ThrowingEngine>(kFaultThrowEngine);
    });
    register_or_die(kFaultSlowFactoryEngine,
                    [](const EngineConfig&) -> std::unique_ptr<JoinEngine> {
                      std::this_thread::sleep_for(kFactoryDelay);
                      return std::make_unique<EmptyResultEngine>(
                          kFaultSlowFactoryEngine);
                    });
    register_or_die(kFaultNullFactoryEngine,
                    [](const EngineConfig&) -> std::unique_ptr<JoinEngine> {
                      std::this_thread::sleep_for(kFactoryDelay);
                      return nullptr;
                    });
    return true;
  }();
  (void)registered;
}

bool IsFaultEngine(const std::string& name) {
  return name.rfind("fault-", 0) == 0;
}

TEST(Streaming, CollectMatchesSynchronousRunForEveryRegisteredEngine) {
  const Dataset rects_r = testutil::Uniform(400, 91);
  const Dataset rects_s = testutil::Skewed(400, 92);
  const Dataset points_r = testutil::UniformPoints(400, 93);

  for (const std::string& name : EngineRegistry::Global().Names()) {
    if (IsFaultEngine(name)) continue;  // fail by design (see above)
    const bool point_only = name == kCuSpatialLikeEngine;
    const Dataset& r = point_only ? points_r : rects_r;

    EngineConfig config;
    config.num_threads = 4;
    config.num_partitions = 16;
    auto sync = RunJoin(name, r, rects_s, config);
    ASSERT_TRUE(sync.ok()) << name << ": " << sync.status().ToString();

    StreamOptions stream;
    stream.chunk_pairs = 128;  // force multi-chunk streams
    auto handle = RunJoinAsync(name, r, rects_s, config, stream);
    ASSERT_TRUE(handle.ok()) << name << ": " << handle.status().ToString();
    StreamSummary summary = handle->Collect();
    ASSERT_TRUE(summary.status.ok())
        << name << ": " << summary.status.ToString();

    EXPECT_TRUE(
        JoinResult::SameMultiset(sync->result, summary.run.result))
        << name << ": sync " << sync->result.size() << " pairs, streamed "
        << summary.run.result.size();
    EXPECT_LE(summary.max_queue_depth, stream.queue_capacity) << name;
  }
}

TEST(Streaming, ChunksHaveConsecutiveSequencesAndBoundedSize) {
  const Dataset r = testutil::Uniform(600, 11);
  const Dataset s = testutil::Uniform(600, 12);
  EngineConfig config;
  config.num_threads = 4;
  StreamOptions stream;
  stream.chunk_pairs = 100;

  auto handle = RunJoinAsync(kPartitionedEngine, r, s, config, stream);
  ASSERT_TRUE(handle.ok());
  ResultChunk chunk;
  uint64_t expected_sequence = 0;
  std::size_t total_pairs = 0;
  while (handle->Next(&chunk)) {
    EXPECT_EQ(chunk.sequence, expected_sequence++);
    EXPECT_FALSE(chunk.pairs.empty());
    EXPECT_LE(chunk.pairs.size(), stream.chunk_pairs);
    total_pairs += chunk.pairs.size();
  }
  EXPECT_TRUE(handle->Wait().ok());

  auto sync = RunJoin(kPartitionedEngine, r, s, config);
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(total_pairs, sync->result.size());
}

TEST(Streaming, BackpressureBoundsQueueAgainstSlowConsumer) {
  // Dense map: thousands of result pairs, so the stream is many chunks.
  const Dataset r = testutil::Uniform(800, 21, /*map=*/300.0, /*max_edge=*/20.0);
  const Dataset s = testutil::Uniform(800, 22, /*map=*/300.0, /*max_edge=*/20.0);
  EngineConfig config;
  config.num_threads = 4;
  StreamOptions stream;
  stream.chunk_pairs = 32;    // many small chunks
  stream.queue_capacity = 2;  // tiny buffer

  auto handle = RunJoinAsync(kPartitionedEngine, r, s, config, stream);
  ASSERT_TRUE(handle.ok());
  ResultChunk chunk;
  int consumed = 0;
  while (handle->Next(&chunk)) {
    if (++consumed % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(handle->Wait().ok());
  // The producer must never have buffered more than the configured cap, no
  // matter how slowly we drained.
  EXPECT_LE(handle->max_queue_depth(), stream.queue_capacity);
  EXPECT_GT(consumed, 4);  // the workload really was multi-chunk
}

TEST(Streaming, MidStreamCancellationDeliversWellDefinedPrefix) {
  // Dense map: thousands of result pairs, so cancellation lands mid-run.
  const Dataset r = testutil::Uniform(1200, 31, /*map=*/300.0, /*max_edge=*/20.0);
  const Dataset s = testutil::Uniform(1200, 32, /*map=*/300.0, /*max_edge=*/20.0);
  EngineConfig config;
  config.num_threads = 4;
  auto sync = RunJoin(kPartitionedEngine, r, s, config);
  ASSERT_TRUE(sync.ok());
  std::vector<ResultPair> full = SortedPairs(sync->result);
  ASSERT_GT(full.size(), 500u);  // enough pairs that cancellation lands mid-run

  StreamOptions stream;
  stream.chunk_pairs = 64;
  stream.queue_capacity = 2;
  auto handle = RunJoinAsync(kPartitionedEngine, r, s, config, stream);
  ASSERT_TRUE(handle.ok());

  // Take one chunk, then cancel. With >> capacity chunks outstanding the
  // producer cannot have finished, so the stream must end Aborted.
  ResultChunk chunk;
  ASSERT_TRUE(handle->Next(&chunk));
  EXPECT_EQ(chunk.sequence, 0u);
  handle->Cancel();
  StreamSummary summary = handle->Collect();
  EXPECT_EQ(summary.status.code(), StatusCode::kAborted)
      << summary.status.ToString();

  // The prefix is well-defined: what we saw plus what Collect drained is a
  // strict sub-multiset of the full result -- genuine pairs, no duplicates.
  std::vector<ResultPair> delivered = chunk.pairs;
  delivered.insert(delivered.end(), summary.run.result.pairs().begin(),
                   summary.run.result.pairs().end());
  std::sort(delivered.begin(), delivered.end());
  EXPECT_TRUE(
      std::includes(full.begin(), full.end(), delivered.begin(),
                    delivered.end()))
      << "cancelled stream delivered pairs outside the true result";
  EXPECT_LT(delivered.size(), full.size());
}

TEST(Streaming, DroppingHandleMidStreamLeaksNothing) {
  const Dataset r = testutil::Uniform(1000, 41);
  const Dataset s = testutil::Uniform(1000, 42);
  EngineConfig config;
  config.num_threads = 4;
  StreamOptions stream;
  stream.chunk_pairs = 32;
  stream.queue_capacity = 2;
  {
    auto handle = RunJoinAsync(kPartitionedEngine, r, s, config, stream);
    ASSERT_TRUE(handle.ok());
    ResultChunk chunk;
    ASSERT_TRUE(handle->Next(&chunk));
    // Handle goes out of scope with the producer still running: the
    // destructor must cancel, drain, and join (ASan/TSan verify no leaks).
  }
  SUCCEED();
}

TEST(Streaming, EmptyInputsCloseImmediately) {
  const Dataset empty;
  const Dataset one("one", {Box(0, 0, 1, 1)});
  auto handle = RunJoinAsync(kPartitionedEngine, empty, one);
  ASSERT_TRUE(handle.ok());
  ResultChunk chunk;
  EXPECT_FALSE(handle->Next(&chunk));
  EXPECT_TRUE(handle->Wait().ok());
}

TEST(Streaming, UnknownEngineFailsFast) {
  const Dataset d = testutil::Uniform(10, 5);
  auto handle = RunJoinAsync("no_such_engine", d, d);
  EXPECT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kNotFound);
}

TEST(Streaming, InvalidGridConfigFailsFast) {
  const Dataset d = testutil::Uniform(10, 5);
  EngineConfig config;
  config.grid_cols = 4;  // cols set but rows auto: rejected
  auto handle = RunJoinAsync(kPartitionedEngine, d, d, config);
  EXPECT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
}

TEST(Streaming, MalformedGeometrySurfacesThroughWait) {
  const Dataset bad("bad", {Box(10, 10, 5, 5)});  // inverted
  const Dataset good("good", {Box(0, 0, 1, 1)});
  auto handle = RunJoinAsync(kPartitionedEngine, bad, good);
  ASSERT_TRUE(handle.ok());  // data-dependent: not a fail-fast error
  EXPECT_EQ(handle->Wait().code(), StatusCode::kInvalidArgument);
}

TEST(Streaming, ExplicitShardCountStreamsIdenticalResult) {
  const Dataset r = testutil::Uniform(500, 51);
  const Dataset s = testutil::Skewed(500, 52);
  EngineConfig config;
  config.num_threads = 2;
  auto sync = RunJoin(kPartitionedEngine, r, s, config);
  ASSERT_TRUE(sync.ok());
  for (const int shards : {1, 2, 7, 64}) {
    StreamOptions stream;
    stream.num_shards = shards;
    auto handle = RunJoinAsync(kAsyncEngine, r, s, config, stream);
    ASSERT_TRUE(handle.ok());
    StreamSummary summary = handle->Collect();
    ASSERT_TRUE(summary.status.ok()) << summary.status.ToString();
    EXPECT_TRUE(JoinResult::SameMultiset(sync->result, summary.run.result))
        << "shards=" << shards;
  }
}

TEST(Streaming, DeferredStreamRunsOnCallerThreadAndSharedPool) {
  const Dataset r = testutil::Uniform(300, 61);
  const Dataset s = testutil::Uniform(300, 62);
  ThreadPool pool(4);
  EngineConfig config;
  config.num_threads = 4;
  auto deferred = MakeJoinStream(kPartitionedEngine, r, s, config, {}, &pool);
  ASSERT_TRUE(deferred.ok());
  std::thread runner(std::move(deferred->producer));
  StreamSummary summary = deferred->handle.Collect();
  runner.join();
  ASSERT_TRUE(summary.status.ok());
  auto sync = RunJoin(kPartitionedEngine, r, s, config);
  ASSERT_TRUE(sync.ok());
  EXPECT_TRUE(JoinResult::SameMultiset(sync->result, summary.run.result));
}

TEST(Streaming, MoveAssignOverActiveStreamTearsDownCleanly) {
  const Dataset r = testutil::Uniform(900, 81, /*map=*/300.0, /*max_edge=*/20.0);
  const Dataset s = testutil::Uniform(900, 82, /*map=*/300.0, /*max_edge=*/20.0);
  EngineConfig config;
  config.num_threads = 2;
  StreamOptions stream;
  stream.chunk_pairs = 32;
  stream.queue_capacity = 2;
  auto first = RunJoinAsync(kPartitionedEngine, r, s, config, stream);
  ASSERT_TRUE(first.ok());
  ResultChunk chunk;
  ASSERT_TRUE(first->Next(&chunk));  // the first stream is live mid-run
  // Move-assigning a new stream over the live handle must cancel, drain,
  // and join the old producer -- not std::terminate on the thread member.
  auto second = RunJoinAsync(kPartitionedEngine, r, s, config, stream);
  ASSERT_TRUE(second.ok());
  *first = std::move(*second);
  StreamSummary summary = first->Collect();
  EXPECT_TRUE(summary.status.ok()) << summary.status.ToString();
}

TEST(Streaming, DroppedDeferredProducerClosesStreamViaGuard) {
  const Dataset d = testutil::Uniform(50, 83);
  auto deferred = MakeJoinStream(kPartitionedEngine, d, d);
  ASSERT_TRUE(deferred.ok());
  AsyncJoinHandle handle = std::move(deferred->handle);
  // Simulate a caller error path that drops the stream without ever
  // running or abandoning it: destroying both closures must close the
  // stream (via the abandon guard) instead of hanging every waiter.
  deferred->producer = nullptr;
  deferred->abandon = nullptr;
  EXPECT_EQ(handle.Wait().code(), StatusCode::kAborted);
}

TEST(Streaming, MidRunEngineFailureSurfacesToConsumer) {
  RegisterFaultEnginesOnce();
  const Dataset d = testutil::Uniform(50, 73);
  auto handle = RunJoinAsync(kFaultErrorEngine, d, d);
  ASSERT_TRUE(handle.ok());
  // The stream must terminate (no hang) and report the injected failure --
  // and the partial pair the engine produced before failing must not be
  // delivered as if the run had succeeded.
  ResultChunk chunk;
  std::size_t delivered = 0;
  while (handle->Next(&chunk)) delivered += chunk.pairs.size();
  EXPECT_EQ(delivered, 0u);
  const Status st = handle->Wait();
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
}

TEST(Streaming, ThrowingProducerClosesStreamWithError) {
  RegisterFaultEnginesOnce();
  const Dataset d = testutil::Uniform(50, 74);
  auto handle = RunJoinAsync(kFaultThrowEngine, d, d);
  ASSERT_TRUE(handle.ok());
  // Before fault containment this tore the process down via an uncaught
  // exception on the producer thread; now the consumer sees Internal.
  StreamSummary summary = handle->Collect();
  EXPECT_EQ(summary.status.code(), StatusCode::kInternal)
      << summary.status.ToString();
  EXPECT_TRUE(summary.run.result.empty());
}

TEST(Streaming, ThrowingProducerThroughServicePath) {
  RegisterFaultEnginesOnce();
  const Dataset d = testutil::Uniform(50, 75);
  auto deferred = MakeJoinStream(kFaultThrowEngine, d, d);
  ASSERT_TRUE(deferred.ok());
  std::thread runner(std::move(deferred->producer));
  EXPECT_EQ(deferred->handle.Wait().code(), StatusCode::kInternal);
  runner.join();
}

// Engine instantiation belongs to the plan stage -- what the warm path
// pays before executing, as RunPreparedJoin bills it -- on the cold and
// the registered-dataset paths alike.
TEST(Streaming, EngineInstantiationIsBilledToPlanSeconds) {
  RegisterFaultEnginesOnce();
  const Dataset d = testutil::Uniform(8, 76);
  DatasetRegistry registry;
  registry.Put("r", d);
  registry.Put("s", d);
  const double delay = std::chrono::duration<double>(kFactoryDelay).count();

  auto cold = RunJoinAsync(kFaultSlowFactoryEngine, d, d);
  ASSERT_TRUE(cold.ok());
  auto warm = RunJoinAsync(registry, kFaultSlowFactoryEngine, "r", "s");
  ASSERT_TRUE(warm.ok());
  for (AsyncJoinHandle* handle : {&*cold, &*warm}) {
    const StreamSummary summary = handle->Collect();
    ASSERT_TRUE(summary.status.ok()) << summary.status.ToString();
    EXPECT_GE(summary.run.timing.plan_seconds, delay);
    EXPECT_LT(summary.run.timing.execute_seconds, delay);
  }
}

// A stream whose engine cannot be instantiated still reports the plan-stage
// time it spent finding that out.
TEST(Streaming, EngineCreationFailureKeepsMeasuredPlanTime) {
  RegisterFaultEnginesOnce();
  const Dataset d = testutil::Uniform(8, 77);
  DatasetRegistry registry;
  registry.Put("r", d);
  registry.Put("s", d);
  const double delay = std::chrono::duration<double>(kFactoryDelay).count();

  auto cold = RunJoinAsync(kFaultNullFactoryEngine, d, d);
  ASSERT_TRUE(cold.ok());
  auto warm = RunJoinAsync(registry, kFaultNullFactoryEngine, "r", "s");
  ASSERT_TRUE(warm.ok());
  for (AsyncJoinHandle* handle : {&*cold, &*warm}) {
    const StreamSummary summary = handle->Collect();
    EXPECT_EQ(summary.status.code(), StatusCode::kInternal)
        << summary.status.ToString();
    EXPECT_GE(summary.run.timing.plan_seconds, delay);
    EXPECT_EQ(summary.run.timing.execute_seconds, 0.0);
  }
}

TEST(Streaming, AccelEnginesStreamNativelyInBoundedChunks) {
  // Dense enough that the device flushes many result bursts: the stream
  // must be multi-chunk with consecutive sequences and bounded chunk sizes,
  // and Collect must equal the synchronous run (the registry-wide test
  // above already pins Collect == sync; this pins the chunk shape).
  const Dataset r = testutil::Uniform(500, 76, /*map=*/200.0,
                                      /*max_edge=*/15.0);
  const Dataset s = testutil::Uniform(500, 77, /*map=*/200.0,
                                      /*max_edge=*/15.0);
  for (const char* name :
       {kAccelBfsEngine, kAccelPbsmEngine, kAccelPbsmMultiEngine}) {
    EngineConfig config;
    config.accel_join_units = 4;
    auto sync = RunJoin(name, r, s, config);
    ASSERT_TRUE(sync.ok()) << name;
    ASSERT_GT(sync->result.size(), 1000u) << name;

    StreamOptions stream;
    stream.chunk_pairs = 256;
    auto handle = RunJoinAsync(name, r, s, config, stream);
    ASSERT_TRUE(handle.ok()) << name;
    ResultChunk chunk;
    uint64_t expected_sequence = 0;
    JoinResult streamed;
    while (handle->Next(&chunk)) {
      EXPECT_EQ(chunk.sequence, expected_sequence++) << name;
      EXPECT_FALSE(chunk.pairs.empty()) << name;
      EXPECT_LE(chunk.pairs.size(), stream.chunk_pairs) << name;
      auto& pairs = streamed.mutable_pairs();
      pairs.insert(pairs.end(), chunk.pairs.begin(), chunk.pairs.end());
    }
    EXPECT_TRUE(handle->Wait().ok()) << name;
    EXPECT_GT(expected_sequence, 4u)
        << name << ": expected a genuinely multi-chunk native stream";
    EXPECT_TRUE(JoinResult::SameMultiset(sync->result, streamed)) << name;
  }
}

TEST(Streaming, AccelCancellationDeliversPrefixAndAborts) {
  const Dataset r = testutil::Uniform(600, 78, /*map=*/300.0,
                                      /*max_edge=*/20.0);
  const Dataset s = testutil::Uniform(600, 79, /*map=*/300.0,
                                      /*max_edge=*/20.0);
  EngineConfig config;
  config.accel_join_units = 4;
  auto sync = RunJoin(kAccelPbsmEngine, r, s, config);
  ASSERT_TRUE(sync.ok());
  std::vector<ResultPair> full = SortedPairs(sync->result);
  ASSERT_GT(full.size(), 1000u);

  StreamOptions stream;
  stream.chunk_pairs = 64;
  stream.queue_capacity = 2;
  auto handle = RunJoinAsync(kAccelPbsmEngine, r, s, config, stream);
  ASSERT_TRUE(handle.ok());
  ResultChunk chunk;
  ASSERT_TRUE(handle->Next(&chunk));
  handle->Cancel();
  StreamSummary summary = handle->Collect();
  EXPECT_EQ(summary.status.code(), StatusCode::kAborted)
      << summary.status.ToString();
  std::vector<ResultPair> delivered = chunk.pairs;
  delivered.insert(delivered.end(), summary.run.result.pairs().begin(),
                   summary.run.result.pairs().end());
  std::sort(delivered.begin(), delivered.end());
  EXPECT_TRUE(std::includes(full.begin(), full.end(), delivered.begin(),
                            delivered.end()))
      << "cancelled accel stream delivered pairs outside the true result";
  EXPECT_LT(delivered.size(), full.size());
}

TEST(Streaming, AccelMalformedGeometrySurfacesThroughWait) {
  const Dataset bad("bad", {Box(10, 10, 5, 5)});  // inverted
  const Dataset good("good", {Box(0, 0, 1, 1)});
  auto handle = RunJoinAsync(kAccelPbsmEngine, bad, good);
  ASSERT_TRUE(handle.ok());  // data-dependent: not a fail-fast error
  EXPECT_EQ(handle->Wait().code(), StatusCode::kInvalidArgument);
}

TEST(Streaming, AccelInvalidConfigFailsFast) {
  const Dataset d = testutil::Uniform(10, 80);
  EngineConfig config;
  config.accel_tile_cap = 0;
  auto handle = RunJoinAsync(kAccelPbsmEngine, d, d, config);
  EXPECT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
}

TEST(Streaming, AbandonedDeferredStreamReportsStatus) {
  const Dataset d = testutil::Uniform(50, 71);
  auto deferred = MakeJoinStream(kPartitionedEngine, d, d);
  ASSERT_TRUE(deferred.ok());
  deferred->abandon(Status::Aborted("service shutting down"));
  ResultChunk chunk;
  EXPECT_FALSE(deferred->handle.Next(&chunk));
  EXPECT_EQ(deferred->handle.Wait().code(), StatusCode::kAborted);
}

}  // namespace
}  // namespace swiftspatial::exec
