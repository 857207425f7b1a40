// JoinService behaviour under load: admission control bounds the queue,
// scheduling policies order tenants as documented, cancellation is clean
// while queued and mid-stream, and shutdown abandons queued requests with a
// well-defined Aborted status. Several tests deliberately wedge the single
// dispatcher with a "blocker" request whose stream nobody consumes (its
// producer stalls on backpressure), which makes queue states deterministic.
#include "exec/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "join/engine.h"
#include "tests/test_util.h"

namespace swiftspatial::exec {
namespace {

// Dense inputs -> thousands of pairs -> many chunks, so an unconsumed
// stream reliably stalls its producer on the bounded queue.
Dataset DenseSide(uint64_t seed) {
  return testutil::Uniform(900, seed, /*map=*/300.0, /*max_edge=*/20.0);
}

// Sparse inputs -> few pairs -> at most one chunk, so these requests finish
// without anyone consuming their streams.
Dataset SmallSide(uint64_t seed) { return testutil::Uniform(120, seed); }

JoinServiceOptions BlockableOptions() {
  JoinServiceOptions options;
  options.worker_threads = 2;
  options.max_concurrent = 1;
  options.max_pending = 4;
  options.stream.chunk_pairs = 32;
  options.stream.queue_capacity = 2;
  return options;
}

TEST(JoinService, ServesConcurrentTenantsCorrectResults) {
  const Dataset r = testutil::Uniform(400, 1);
  const Dataset s = testutil::Skewed(400, 2);
  EngineConfig config;
  config.num_threads = 2;
  auto sync = RunJoin(kPartitionedEngine, r, s, config);
  ASSERT_TRUE(sync.ok());

  JoinServiceOptions options;
  options.worker_threads = 4;
  options.max_concurrent = 2;
  options.max_pending = 16;
  JoinService service(options);

  constexpr int kRequests = 8;
  std::vector<std::optional<AsyncJoinHandle>> handles;
  for (int i = 0; i < kRequests; ++i) {
    auto handle = service.Submit("tenant-" + std::to_string(i % 3),
                                 kPartitionedEngine, r, s, config);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.emplace_back(std::move(*handle));
  }
  // Concurrent consumers, one per stream (requests may run in any order).
  std::vector<std::thread> consumers;
  std::vector<StreamSummary> summaries(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    consumers.emplace_back(
        [&, i] { summaries[i] = handles[i]->Collect(); });
  }
  for (auto& c : consumers) c.join();
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(summaries[i].status.ok()) << summaries[i].status.ToString();
    EXPECT_TRUE(
        JoinResult::SameMultiset(sync->result, summaries[i].run.result))
        << "request " << i;
  }
  service.Drain();  // Collect returns at stream close; accounting follows
  EXPECT_EQ(service.Snapshot().completed, static_cast<std::size_t>(kRequests));
}

TEST(JoinService, OverloadRejectsBeyondBoundedQueue) {
  const Dataset dense_r = DenseSide(11);
  const Dataset dense_s = DenseSide(12);
  const Dataset small_r = SmallSide(13);
  const Dataset small_s = SmallSide(14);

  JoinService service(BlockableOptions());  // max_pending = 4
  // Wedge the only dispatcher: nobody consumes the dense stream yet.
  auto blocker =
      service.Submit("blocker", kPartitionedEngine, dense_r, dense_s);
  ASSERT_TRUE(blocker.ok());
  // One chunk arriving proves the dispatcher picked the blocker up (it no
  // longer occupies a pending-queue slot) and is now wedged mid-stream.
  ResultChunk first;
  ASSERT_TRUE(blocker->Next(&first));

  // Fill the pending queue, then two more must bounce.
  std::vector<std::optional<AsyncJoinHandle>> queued;
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    auto handle = service.Submit("tenant", kPartitionedEngine, small_r,
                                 small_s);
    if (handle.ok()) {
      queued.emplace_back(std::move(*handle));
    } else {
      EXPECT_EQ(handle.status().code(), StatusCode::kAborted)
          << handle.status().ToString();
      ++rejected;
    }
  }
  EXPECT_EQ(queued.size(), 4u);
  EXPECT_EQ(rejected, 2);

  const JoinServiceStats mid = service.Snapshot();
  EXPECT_EQ(mid.admitted, 5u);  // blocker + 4 queued
  EXPECT_EQ(mid.rejected, 2u);
  EXPECT_LE(mid.max_pending_seen, 4u);  // bounded growth, pinned

  // Unblock and drain everything.
  StreamSummary blocked = blocker->Collect();
  EXPECT_TRUE(blocked.status.ok());
  for (auto& handle : queued) {
    EXPECT_TRUE(handle->Collect().status.ok());
  }
  service.Drain();
  EXPECT_EQ(service.Snapshot().completed, 5u);
}

class JoinServicePolicyTest
    : public ::testing::TestWithParam<SchedulingPolicy> {};

TEST_P(JoinServicePolicyTest, TenantOrderingMatchesPolicy) {
  const SchedulingPolicy policy = GetParam();
  const Dataset dense_r = DenseSide(21);
  const Dataset dense_s = DenseSide(22);
  const Dataset small_r = SmallSide(23);
  const Dataset small_s = SmallSide(24);

  JoinServiceOptions options = BlockableOptions();
  options.max_pending = 16;
  options.policy = policy;
  JoinService service(options);

  // Wedge the dispatcher so the whole A/B burst queues before any of it is
  // scheduled -- ordering is then decided purely by the policy.
  auto blocker =
      service.Submit("warmup", kPartitionedEngine, dense_r, dense_s);
  ASSERT_TRUE(blocker.ok());
  ResultChunk first;
  ASSERT_TRUE(blocker->Next(&first));  // dispatcher is running it, wedged

  std::vector<std::optional<AsyncJoinHandle>> handles;
  for (int i = 0; i < 8; ++i) {
    auto handle =
        service.Submit("A", kPartitionedEngine, small_r, small_s);
    ASSERT_TRUE(handle.ok());
    handles.emplace_back(std::move(*handle));
  }
  for (int i = 0; i < 2; ++i) {
    auto handle =
        service.Submit("B", kPartitionedEngine, small_r, small_s);
    ASSERT_TRUE(handle.ok());
    handles.emplace_back(std::move(*handle));
  }

  ASSERT_TRUE(blocker->Collect().status.ok());  // release the dispatcher
  service.Drain();

  const std::vector<std::string> order = service.completion_order();
  ASSERT_EQ(order.size(), 11u);  // warmup + 8 A + 2 B
  int last_b = -1;
  for (int i = 0; i < static_cast<int>(order.size()); ++i) {
    if (order[i] == "B") last_b = i;
  }
  ASSERT_NE(last_b, -1);
  if (policy == SchedulingPolicy::kFcfs) {
    // Strict arrival order: B's requests drain after A's entire burst.
    EXPECT_EQ(last_b, 10);
  } else {
    // Fair share: the light tenant finishes within the first few slots
    // instead of queueing behind the heavy tenant's burst.
    EXPECT_LE(last_b, 4);
  }
  for (auto& handle : handles) {
    EXPECT_TRUE(handle->Collect().status.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, JoinServicePolicyTest,
                         ::testing::Values(SchedulingPolicy::kFcfs,
                                           SchedulingPolicy::kFairShare),
                         [](const auto& info) {
                           return info.param == SchedulingPolicy::kFcfs
                                      ? "Fcfs"
                                      : "FairShare";
                         });

// Deadline-aware admission: with the estimate seeded to a known value, a
// request whose deadline is below the estimated queue wait bounces with
// DeadlineExceeded immediately -- before queueing -- while patient and
// deadline-free requests are admitted. All queue states are pinned by the
// wedged-dispatcher pattern, so nothing here depends on timing.
TEST(JoinService, DeadlineAdmissionRejectsHopelessRequests) {
  const Dataset dense_r = DenseSide(61);
  const Dataset dense_s = DenseSide(62);
  const Dataset small_r = SmallSide(63);
  const Dataset small_s = SmallSide(64);

  JoinServiceOptions options = BlockableOptions();  // max_concurrent = 1
  options.initial_job_seconds_estimate = 10.0;      // deterministic estimate
  JoinService service(options);

  // The blocker carries no deadline: deadlines are now enforced after
  // admission too, and a deadline short enough to be interesting here
  // would get the wedged blocker killed mid-run by the watchdog.
  auto blocker =
      service.Submit("blocker", kPartitionedEngine, dense_r, dense_s);
  ASSERT_TRUE(blocker.ok()) << blocker.status().ToString();
  ResultChunk first;
  ASSERT_TRUE(blocker->Next(&first));  // dispatcher wedged mid-stream

  // One job running, none pending: estimated wait = 1 / 1 * 10s.
  EXPECT_NEAR(service.EstimatedQueueWaitSeconds(), 10.0, 1e-9);

  RequestOptions tight;
  tight.deadline_seconds = 0.001;
  auto hopeless = service.Submit("tenant", kPartitionedEngine, small_r,
                                 small_s, {}, tight);
  ASSERT_FALSE(hopeless.ok());
  EXPECT_EQ(hopeless.status().code(), StatusCode::kDeadlineExceeded)
      << hopeless.status().ToString();

  RequestOptions patient;
  patient.deadline_seconds = 3600.0;
  auto admitted = service.Submit("tenant", kPartitionedEngine, small_r,
                                 small_s, {}, patient);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();

  // No deadline at all is never deadline-bounced.
  auto no_deadline =
      service.Submit("tenant", kPartitionedEngine, small_r, small_s);
  ASSERT_TRUE(no_deadline.ok());

  const JoinServiceStats mid = service.Snapshot();
  EXPECT_EQ(mid.rejected, 1u);
  EXPECT_EQ(mid.rejected_deadline, 1u);
  EXPECT_EQ(mid.admitted, 3u);

  EXPECT_TRUE(blocker->Collect().status.ok());
  EXPECT_TRUE(admitted->Collect().status.ok());
  EXPECT_TRUE(no_deadline->Collect().status.ok());
  service.Drain();
  EXPECT_EQ(service.Snapshot().completed, 3u);
}

// A free dispatcher slot means zero estimated queue wait: a request
// arriving while capacity is idle must never be deadline-bounced, no
// matter how pessimistic the per-job estimate is.
TEST(JoinService, DeadlineAdmissionNeverRejectsWhileASlotIsFree) {
  const Dataset dense_r = DenseSide(71);
  const Dataset dense_s = DenseSide(72);
  const Dataset small_r = SmallSide(73);
  const Dataset small_s = SmallSide(74);

  JoinServiceOptions options = BlockableOptions();
  options.max_concurrent = 2;  // a second, idle dispatcher slot
  options.initial_job_seconds_estimate = 3600.0;
  JoinService service(options);

  auto blocker =
      service.Submit("blocker", kPartitionedEngine, dense_r, dense_s);
  ASSERT_TRUE(blocker.ok());
  ResultChunk first;
  ASSERT_TRUE(blocker->Next(&first));  // one slot wedged, one idle

  EXPECT_NEAR(service.EstimatedQueueWaitSeconds(), 0.0, 1e-9);
  // Far below the hour-long estimate -- this would be bounced if the wedged
  // slot were the only one -- yet roomy enough that the admitted request
  // also *finishes* within it (deadlines now kill expired requests
  // post-admission, so a microscopic deadline would turn this into an
  // expiry test).
  RequestOptions tight;
  tight.deadline_seconds = 30.0;
  auto admitted = service.Submit("tenant", kPartitionedEngine, small_r,
                                 small_s, {}, tight);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_EQ(service.Snapshot().rejected_deadline, 0u);

  EXPECT_TRUE(admitted->Collect().status.ok());
  EXPECT_TRUE(blocker->Collect().status.ok());
  service.Drain();
}

// Once jobs complete, the measured-duration EWMA replaces the seed: an
// absurd initial estimate stops bouncing requests after the service has
// seen how fast jobs actually are.
TEST(JoinService, DeadlineEstimateTracksMeasuredDurations) {
  const Dataset dense_r = DenseSide(65);
  const Dataset dense_s = DenseSide(66);
  const Dataset small_r = SmallSide(67);
  const Dataset small_s = SmallSide(68);

  JoinServiceOptions options = BlockableOptions();
  options.initial_job_seconds_estimate = 3600.0;  // absurdly pessimistic
  JoinService service(options);

  // A fast job completes and overrides the hour-long seed.
  auto calibrate =
      service.Submit("cal", kPartitionedEngine, small_r, small_s);
  ASSERT_TRUE(calibrate.ok());
  EXPECT_TRUE(calibrate->Collect().status.ok());
  service.Drain();

  auto blocker =
      service.Submit("blocker", kPartitionedEngine, dense_r, dense_s);
  ASSERT_TRUE(blocker.ok());
  ResultChunk first;
  ASSERT_TRUE(blocker->Next(&first));  // dispatcher wedged again

  // Estimated wait is now one measured small-join duration (milliseconds,
  // generously bounded below 30s even under sanitizers), so a request that
  // the seed estimate would have bounced admits.
  RequestOptions request;
  request.deadline_seconds = 30.0;
  auto admitted = service.Submit("tenant", kPartitionedEngine, small_r,
                                 small_s, {}, request);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_EQ(service.Snapshot().rejected_deadline, 0u);

  EXPECT_TRUE(blocker->Collect().status.ok());
  EXPECT_TRUE(admitted->Collect().status.ok());
  service.Drain();
}

TEST(JoinService, CancellingQueuedRequestNeverRunsIt) {
  const Dataset dense_r = DenseSide(31);
  const Dataset dense_s = DenseSide(32);
  const Dataset small_r = SmallSide(33);
  const Dataset small_s = SmallSide(34);

  JoinService service(BlockableOptions());
  auto blocker =
      service.Submit("blocker", kPartitionedEngine, dense_r, dense_s);
  ASSERT_TRUE(blocker.ok());
  ResultChunk first;
  ASSERT_TRUE(blocker->Next(&first));  // dispatcher is running it, wedged
  auto cancelled =
      service.Submit("victim", kPartitionedEngine, small_r, small_s);
  ASSERT_TRUE(cancelled.ok());

  cancelled->Cancel();  // while still queued
  ASSERT_TRUE(blocker->Collect().status.ok());
  EXPECT_EQ(cancelled->Wait().code(), StatusCode::kAborted);
  service.Drain();
  // Never-run requests are abandoned, not completed/served -- they must
  // not charge the tenant's fair-share account.
  const JoinServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.abandoned, 1u);
  EXPECT_EQ(stats.completed, 1u);  // the blocker only
}

TEST(JoinService, CancellingRunningRequestMidStreamIsClean) {
  const Dataset dense_r = DenseSide(41);
  const Dataset dense_s = DenseSide(42);
  const Dataset small_r = SmallSide(43);
  const Dataset small_s = SmallSide(44);

  JoinService service(BlockableOptions());
  auto running =
      service.Submit("tenant", kPartitionedEngine, dense_r, dense_s);
  ASSERT_TRUE(running.ok());
  // Take one chunk to prove the stream was live, then cancel mid-stream.
  ResultChunk chunk;
  ASSERT_TRUE(running->Next(&chunk));
  running->Cancel();
  StreamSummary summary = running->Collect();
  EXPECT_EQ(summary.status.code(), StatusCode::kAborted);

  // The service must keep serving afterwards: no leaked tasks hold the
  // dispatcher or the pool (ASan/TSan double-check the "no leaks" half).
  auto after = service.Submit("tenant", kPartitionedEngine, small_r, small_s);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->Collect().status.ok());
  service.Drain();
}

TEST(JoinService, SequentialCollectOfConcurrentDenseStreamsDoesNotDeadlock) {
  const Dataset dense_r = DenseSide(61);
  const Dataset dense_s = DenseSide(62);
  JoinServiceOptions options;
  options.worker_threads = 2;
  options.max_concurrent = 2;
  options.max_pending = 4;
  options.stream.chunk_pairs = 32;
  options.stream.queue_capacity = 2;
  JoinService service(options);

  // Both requests run concurrently on the shared pool; the consumer
  // collects strictly sequentially, so B backs up against its bounded
  // queue while A is drained. Pool workers must never park on B's
  // backpressure (shared-pool streams stage in worker slots instead), or
  // A could starve and this test would deadlock.
  auto a = service.Submit("a", kPartitionedEngine, dense_r, dense_s);
  auto b = service.Submit("b", kPartitionedEngine, dense_r, dense_s);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  StreamSummary sa = a->Collect();
  StreamSummary sb = b->Collect();
  ASSERT_TRUE(sa.status.ok()) << sa.status.ToString();
  ASSERT_TRUE(sb.status.ok()) << sb.status.ToString();
  // Identical inputs -> identical result multisets through both streams.
  EXPECT_TRUE(JoinResult::SameMultiset(sa.run.result, sb.run.result));
  service.Drain();
}

TEST(JoinService, ShutdownAbandonsQueuedRequests) {
  const Dataset dense_r = DenseSide(51);
  const Dataset dense_s = DenseSide(52);
  const Dataset small_r = SmallSide(53);
  const Dataset small_s = SmallSide(54);

  std::optional<AsyncJoinHandle> blocker;
  std::vector<std::optional<AsyncJoinHandle>> queued;
  std::thread releaser;
  {
    JoinService service(BlockableOptions());
    auto b = service.Submit("blocker", kPartitionedEngine, dense_r, dense_s);
    ASSERT_TRUE(b.ok());
    blocker.emplace(std::move(*b));
    ResultChunk first;
    ASSERT_TRUE(blocker->Next(&first));  // dispatcher is running it, wedged
    for (int i = 0; i < 3; ++i) {
      auto handle =
          service.Submit("tenant", kPartitionedEngine, small_r, small_s);
      ASSERT_TRUE(handle.ok());
      queued.emplace_back(std::move(*handle));
    }
    // Release the wedged dispatcher shortly after the destructor has begun
    // abandoning the queue.
    releaser = std::thread([&] {
      // Generous delay: the destructor only needs the tiny window between
      // scope exit and taking its lock to mark the service stopping.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      blocker->Cancel();
    });
    // ~JoinService: abandons the 3 queued requests, then waits for the
    // (cancelled) blocker to retire.
  }
  releaser.join();
  EXPECT_EQ(blocker->Wait().code(), StatusCode::kAborted);
  for (auto& handle : queued) {
    EXPECT_EQ(handle->Wait().code(), StatusCode::kAborted);
  }
}

// Deadlines are enforced after admission too: a request that admission
// accepted but whose budget runs out while the dispatcher is still wedged
// never runs -- the watchdog abandons it and the stream closes
// DeadlineExceeded (not the generic Aborted of a consumer cancel).
TEST(JoinService, DeadlineExpiresWhileQueued) {
  const Dataset dense_r = DenseSide(81);
  const Dataset dense_s = DenseSide(82);
  const Dataset small_r = SmallSide(83);
  const Dataset small_s = SmallSide(84);

  JoinService service(BlockableOptions());  // max_concurrent = 1
  auto blocker =
      service.Submit("blocker", kPartitionedEngine, dense_r, dense_s);
  ASSERT_TRUE(blocker.ok());
  ResultChunk first;
  ASSERT_TRUE(blocker->Next(&first));  // dispatcher is running it, wedged

  RequestOptions request;
  request.deadline_seconds = 0.05;
  auto victim = service.Submit("victim", kPartitionedEngine, small_r,
                               small_s, {}, request);
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();

  // Wait() blocks until the watchdog expires the queued request: no
  // sleeps, no polling -- the terminal status is the synchronization.
  EXPECT_EQ(victim->Wait().code(), StatusCode::kDeadlineExceeded);

  ASSERT_TRUE(blocker->Collect().status.ok());
  service.Drain();
  const JoinServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.expired_queued, 1u);
  EXPECT_EQ(stats.expired_running, 0u);
  EXPECT_EQ(stats.completed, 1u);  // the blocker only; the victim never ran
}

// Polls service stats until `pred` holds. The deadline watchdog runs on the
// real clock, so mid-run expiry is the one event these tests must wait for
// -- draining the stream earlier would unblock the wedged producer and let
// the join finish before its deadline.
template <typename Pred>
bool WaitForStats(const JoinService& service, Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred(service.Snapshot())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// Mid-run expiry: the join is already streaming when the budget runs out.
// The watchdog cancels it cooperatively and the stream closes
// DeadlineExceeded -- the delivered chunks remain a well-defined prefix.
TEST(JoinService, DeadlineExpiresMidRunCancelsWithDeadlineExceeded) {
  const Dataset dense_r = DenseSide(85);
  const Dataset dense_s = DenseSide(86);

  JoinService service(BlockableOptions());
  RequestOptions request;
  request.deadline_seconds = 0.05;
  // A free slot: picked up immediately, so the deadline expires mid-run
  // (the unconsumed dense stream wedges the producer far past 50ms).
  auto handle = service.Submit("tenant", kPartitionedEngine, dense_r,
                               dense_s, {}, request);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  // At least one chunk proves the join genuinely ran before expiring.
  ResultChunk chunk;
  ASSERT_TRUE(handle->Next(&chunk));
  EXPECT_FALSE(chunk.pairs.empty());

  // The producer is wedged on the unconsumed stream's backpressure; hold
  // off draining until the watchdog has killed it, or the drain itself
  // would let the join finish inside the budget.
  ASSERT_TRUE(WaitForStats(service, [](const JoinServiceStats& s) {
    return s.expired_running == 1;
  }));
  EXPECT_EQ(handle->Wait().code(), StatusCode::kDeadlineExceeded);
  service.Drain();
  const JoinServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.expired_running, 1u);
  EXPECT_EQ(stats.expired_queued, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.completed, 0u);  // an expired run is not a completion
}

// Degraded-results mode: same mid-run expiry, but the stream closes OK and
// the chunks delivered before the kill are the official partial result --
// every pair genuine (a subset of the full join), none duplicated.
TEST(JoinService, DeadlineDegradeDeliversPartialPrefix) {
  const Dataset dense_r = DenseSide(87);
  const Dataset dense_s = DenseSide(88);
  EngineConfig config;
  auto full = RunJoin(kPartitionedEngine, dense_r, dense_s, config);
  ASSERT_TRUE(full.ok());

  JoinService service(BlockableOptions());
  RequestOptions request;
  request.deadline_seconds = 0.05;
  request.degrade_on_deadline = true;
  auto handle = service.Submit("tenant", kPartitionedEngine, dense_r,
                               dense_s, config, request);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  // As above: let the watchdog land the (degrading) kill before draining.
  ASSERT_TRUE(WaitForStats(service, [](const JoinServiceStats& s) {
    return s.expired_running == 1;
  }));
  StreamSummary summary = handle->Collect();
  EXPECT_TRUE(summary.status.ok()) << summary.status.ToString();
  // The kill raced the join, so the prefix may be anything from empty to
  // complete -- but every delivered pair must be a genuine result, with no
  // duplicates (multiset inclusion via std::includes over sorted pairs).
  ASSERT_LE(summary.run.result.size(), full->result.size());
  summary.run.result.Sort();
  full->result.Sort();
  EXPECT_TRUE(std::includes(
      full->result.pairs().begin(), full->result.pairs().end(),
      summary.run.result.pairs().begin(), summary.run.result.pairs().end()));

  service.Drain();
  const JoinServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.expired_running, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

// The EWMA job-duration estimate decays while the service idles, pinned
// deterministically through the injected measurement clock: a 100s job
// poisons the estimate, two idle half-lives later the same deadline that
// was bounced admits. Deadlines themselves run on the real clock, so the
// fake clock cannot stall the watchdog.
TEST(JoinService, EwmaEstimateDecaysWhileIdle) {
  const Dataset dense_r = DenseSide(91);
  const Dataset dense_s = DenseSide(92);
  const Dataset small_r = SmallSide(93);
  const Dataset small_s = SmallSide(94);

  std::atomic<double> fake_now{0.0};
  JoinServiceOptions options = BlockableOptions();  // max_concurrent = 1
  options.ewma_idle_halflife_seconds = 50.0;
  options.clock_for_testing = [&fake_now] { return fake_now.load(); };
  JoinService service(options);

  // Calibration job: picked up at fake t=0, "runs" until we advance the
  // clock to 100 and release it -> measured duration exactly 100s.
  auto calibrate =
      service.Submit("cal", kPartitionedEngine, dense_r, dense_s);
  ASSERT_TRUE(calibrate.ok());
  ResultChunk first;
  ASSERT_TRUE(calibrate->Next(&first));  // running (wedged), clock still 0
  fake_now.store(100.0);
  ASSERT_TRUE(calibrate->Collect().status.ok());
  service.Drain();

  // Wedge the dispatcher again so the estimate actually gates admission.
  auto blocker =
      service.Submit("blocker", kPartitionedEngine, dense_r, dense_s);
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(blocker->Next(&first));

  // No idle time yet: the estimate is the full measured 100s, so a 50s
  // deadline is hopeless.
  EXPECT_NEAR(service.EstimatedQueueWaitSeconds(), 100.0, 1e-6);
  RequestOptions request;
  request.deadline_seconds = 50.0;
  auto bounced = service.Submit("tenant", kPartitionedEngine, small_r,
                                small_s, {}, request);
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kDeadlineExceeded);

  // Two idle half-lives later the estimate has quartered: 25s fits a 50s
  // budget, so the identical request now admits.
  fake_now.store(200.0);
  EXPECT_NEAR(service.EstimatedQueueWaitSeconds(), 25.0, 1e-6);
  auto admitted = service.Submit("tenant", kPartitionedEngine, small_r,
                                 small_s, {}, request);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();

  ASSERT_TRUE(blocker->Collect().status.ok());
  EXPECT_TRUE(admitted->Collect().status.ok());
  service.Drain();
  EXPECT_EQ(service.Snapshot().rejected_deadline, 1u);
}

// The warm path end to end: datasets registered once, repeat SubmitNamed
// requests hit the plan cache (stats prove it) and still produce results
// bit-identical to the cold dataset-reference path.
TEST(JoinService, SubmitNamedServesWarmRequestsFromThePlanCache) {
  const Dataset r = testutil::Uniform(400, 95);
  const Dataset s = testutil::Skewed(400, 96);
  EngineConfig config;
  config.num_threads = 2;
  auto sync = RunJoin(kPartitionedEngine, r, s, config);
  ASSERT_TRUE(sync.ok());

  JoinServiceOptions options;
  options.worker_threads = 4;
  options.max_concurrent = 2;
  JoinService service(options);
  service.RegisterDataset("r", r);
  service.RegisterDataset("s", s);

  constexpr int kRequests = 4;
  for (int i = 0; i < kRequests; ++i) {
    auto handle = service.SubmitNamed("tenant", kPartitionedEngine, "r", "s",
                                      config);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    StreamSummary summary = handle->Collect();
    ASSERT_TRUE(summary.status.ok()) << summary.status.ToString();
    EXPECT_TRUE(JoinResult::SameMultiset(sync->result, summary.run.result))
        << "request " << i;
    if (i > 0) {
      // Warm requests skip Plan: the "plan" stage is just the cache
      // lookup.
      EXPECT_LT(summary.run.timing.plan_seconds, 0.05);
    }
  }
  service.Drain();
  const JoinServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.completed, static_cast<std::size_t>(kRequests));
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  EXPECT_EQ(stats.plan_cache.hits, static_cast<std::size_t>(kRequests - 1));
  EXPECT_EQ(stats.plan_cache.entries, 1u);
  EXPECT_GT(stats.plan_cache.resident_bytes, 0u);
}

TEST(JoinService, SubmitNamedFailsFastForUnknownNamesAndEngines) {
  JoinService service(BlockableOptions());
  service.RegisterDataset("r", SmallSide(97));

  auto no_dataset =
      service.SubmitNamed("tenant", kPartitionedEngine, "r", "nope");
  ASSERT_FALSE(no_dataset.ok());
  EXPECT_EQ(no_dataset.status().code(), StatusCode::kNotFound);

  auto no_engine = service.SubmitNamed("tenant", "no-such-engine", "r", "r");
  ASSERT_FALSE(no_engine.ok());
  EXPECT_EQ(no_engine.status().code(), StatusCode::kNotFound);

  // Fail-fast rejections never touch admission accounting.
  EXPECT_EQ(service.Snapshot().admitted, 0u);
}

}  // namespace
}  // namespace swiftspatial::exec
