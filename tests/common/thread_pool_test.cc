#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/sync.h"

namespace swiftspatial {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

// Contract: a task submitted from inside a running task is covered by any
// Wait() covering the submitting task -- the child is counted before the
// parent retires, so outstanding cannot touch zero in between.
TEST(ThreadPool, SubmitFromInsideTaskIsCoveredByWait) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  // Recursive fan-out: 1 root -> 3 children -> 9 grandchildren -> ...
  std::function<void(int)> spawn = [&](int depth) {
    counter.fetch_add(1);
    if (depth == 0) return;
    for (int i = 0; i < 3; ++i) {
      pool.Submit([&spawn, depth] { spawn(depth - 1); });
    }
  };
  pool.Submit([&spawn] { spawn(4); });
  pool.Wait();
  // 1 + 3 + 9 + 27 + 81 tasks must all have run before Wait returned.
  EXPECT_EQ(counter.load(), 121);
}

// Contract: Wait() may race with Submit() from other external threads; every
// task submitted before the Wait began must be covered. Stress both sides.
TEST(ThreadPool, ConcurrentSubmitDuringWaitStress) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  constexpr int kRounds = 50;
  constexpr int kPerRound = 20;
  std::thread submitter([&] {
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kPerRound; ++i) {
        pool.Submit([&done] { done.fetch_add(1); });
      }
    }
  });
  // Interleave Waits with the submitter; each Wait must return (no hang) at
  // some quiescent instant.
  for (int i = 0; i < 10; ++i) pool.Wait();
  submitter.join();
  pool.Wait();  // everything was submitted before this Wait began
  EXPECT_EQ(done.load(), kRounds * kPerRound);
}

TEST(ThreadPool, CurrentWorkerIndexInsideAndOutsideTasks) {
  ThreadPool pool(3);
  ThreadPool other(2);
  EXPECT_EQ(pool.CurrentWorkerIndex(), ThreadPool::kNotAWorker);
  std::atomic<bool> bad{false};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] {
      const std::size_t w = pool.CurrentWorkerIndex();
      if (w >= pool.num_threads()) bad = true;
      // From pool's worker, `other` must not claim the thread as its own.
      if (other.CurrentWorkerIndex() != ThreadPool::kNotAWorker) bad = true;
    });
  }
  pool.Wait();
  EXPECT_FALSE(bad.load());
}

class ParallelForTest
    : public ::testing::TestWithParam<std::tuple<Schedule, std::size_t>> {};

TEST_P(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const auto [schedule, threads] = GetParam();
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(n, threads, schedule,
              [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_P(ParallelForTest, WorkerIdsInRange) {
  const auto [schedule, threads] = GetParam();
  std::atomic<bool> bad{false};
  ParallelForWorker(500, threads, schedule,
                    [&bad, threads = threads](std::size_t, std::size_t w) {
                      if (w >= threads) bad = true;
                    });
  EXPECT_FALSE(bad.load());
}

INSTANTIATE_TEST_SUITE_P(
    SchedulesAndThreads, ParallelForTest,
    ::testing::Combine(::testing::Values(Schedule::kStatic,
                                         Schedule::kDynamic),
                       ::testing::Values<std::size_t>(1, 2, 4, 8)));

TEST(ParallelFor, ZeroIterations) {
  int runs = 0;
  ParallelFor(0, 4, Schedule::kDynamic, [&runs](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  // With one thread, iterations must run on the calling thread in order.
  std::vector<std::size_t> order;
  ParallelFor(10, 1, Schedule::kStatic,
              [&order](std::size_t i) { order.push_back(i); });
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, DynamicChunking) {
  const std::size_t n = 97;  // not a multiple of the chunk
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(
      n, 3, Schedule::kDynamic, [&hits](std::size_t i) { hits[i].fetch_add(1); },
      /*chunk=*/8);
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, static_cast<int>(n));
}

// --- Waves on a given pool ------------------------------------------------

class WaveTest : public ::testing::TestWithParam<
                     std::tuple<Schedule, std::size_t, std::size_t>> {};

// Every index runs exactly once, whatever the schedule, the width asked for
// and the pool it runs on; slots stay below min(width, workers + 1).
TEST_P(WaveTest, RunsEveryIndexOnceWithinItsWidth) {
  const auto [schedule, threads, workers] = GetParam();
  ThreadPool pool(workers);
  WaveContext wave;
  wave.pool = &pool;
  constexpr std::size_t kN = 997;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<std::size_t> max_slot{0};
  ParallelForWorker(
      kN, threads, schedule,
      [&](std::size_t i, std::size_t slot) {
        hits[i].fetch_add(1);
        std::size_t seen = max_slot.load();
        while (slot > seen && !max_slot.compare_exchange_weak(seen, slot)) {
        }
      },
      /*chunk=*/7, wave);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_LT(max_slot.load(), std::min(threads, workers + 1));
}

INSTANTIATE_TEST_SUITE_P(
    SchedulesWidthsPools, WaveTest,
    ::testing::Combine(::testing::Values(Schedule::kStatic,
                                         Schedule::kDynamic),
                       ::testing::Values<std::size_t>(1, 2, 8),
                       ::testing::Values<std::size_t>(1, 4)));

// A wave uses the calling thread plus at most `workers` pool threads: its
// `num_threads`, capped by the pool, never more.
TEST(Wave, WidthIsCappedByThePool) {
  ThreadPool pool(2);
  WaveContext wave;
  wave.pool = &pool;
  Mutex mu;
  std::set<std::thread::id> threads;
  ParallelFor(
      64, 8, Schedule::kDynamic,
      [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        MutexLock lock(&mu);
        threads.insert(std::this_thread::get_id());
      },
      1, wave);
  EXPECT_LE(threads.size(), 3u);  // min(8, 2 + 1)
  EXPECT_TRUE(threads.count(std::this_thread::get_id()) == 1)
      << "the caller is a slot of its own wave";
}

// A wave launched from inside a task on a one-worker pool: its one slot
// task can never start while the launching task holds the only worker, so
// the caller must run every claim itself and not wait for the late slot.
TEST(Wave, LaunchedFromTheOnlyWorkerCompletes) {
  ThreadPool pool(1);
  WaveContext wave;
  wave.pool = &pool;
  std::atomic<int> ran{0};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    ParallelFor(
        100, 4, Schedule::kDynamic, [&ran](std::size_t) { ran.fetch_add(1); },
        1, wave);
    done = true;
  });
  pool.Wait();  // also drains the late slot task, which returns at once
  EXPECT_TRUE(done.load());
  EXPECT_EQ(ran.load(), 100);
}

// Late slots: while the pool's only worker is busy elsewhere, a wave's slot
// task sits queued; the caller runs every claim and returns without it.
TEST(Wave, CallerDoesNotWaitForSlotsThatNeverStarted) {
  ThreadPool pool(1);
  WaveContext wave;
  wave.pool = &pool;
  std::atomic<bool> release{false};
  pool.Submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::vector<std::size_t> slots;
  ParallelForWorker(
      50, 2, Schedule::kDynamic,
      [&slots](std::size_t, std::size_t slot) { slots.push_back(slot); }, 1,
      wave);  // single-threaded in effect: only the caller can run
  EXPECT_EQ(slots, std::vector<std::size_t>(50, 0));
  release = true;
  pool.Wait();
}

// Each claim checks the token: once it reads cancelled, no slot claims
// more. Inline (width 1) the stop is exact; wider, only claims already in
// flight finish.
TEST(Wave, CancelledTokenStopsFurtherClaims) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(3);
    exec::CancellationSource cancel;
    WaveContext wave;
    wave.pool = &pool;
    wave.cancel = cancel.token();
    std::atomic<int> ran{0};
    ParallelFor(
        10000, threads, Schedule::kDynamic,
        [&](std::size_t) {
          if (ran.fetch_add(1) == 9) cancel.Cancel();
        },
        1, wave);
    if (threads == 1) {
      EXPECT_EQ(ran.load(), 10);
    } else {
      EXPECT_LE(ran.load(), 10 + static_cast<int>(threads));
    }
  }
}

// A pool slot can yield (it stops claiming after its current claim and the
// caller takes the rest); the caller's own slot cannot.
TEST(Wave, PoolSlotsYieldAndTheCallerFinishes) {
  ThreadPool pool(1);
  WaveContext wave;
  wave.pool = &pool;
  std::atomic<int> pool_claims{0};
  std::atomic<int> ran{0};
  std::atomic<bool> caller_yielded{false};
  ParallelForWorker(
      200, 2, Schedule::kDynamic,
      [&](std::size_t, std::size_t slot) {
        ran.fetch_add(1);
        if (slot == 0) {
          if (YieldWaveSlot()) caller_yielded = true;
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else {
          pool_claims.fetch_add(1);
          EXPECT_TRUE(YieldWaveSlot());
          EXPECT_TRUE(WaveSlotYielded());
        }
      },
      1, wave);
  EXPECT_EQ(ran.load(), 200);
  EXPECT_LE(pool_claims.load(), 1);
  EXPECT_FALSE(caller_yielded.load());
  EXPECT_FALSE(YieldWaveSlot()) << "outside every wave";
}

TEST(ScheduleToString, Names) {
  EXPECT_STREQ(ScheduleToString(Schedule::kStatic), "static");
  EXPECT_STREQ(ScheduleToString(Schedule::kDynamic), "dynamic");
}

}  // namespace
}  // namespace swiftspatial
