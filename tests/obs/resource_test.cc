// Per-request resource accounting: accumulator arithmetic under concurrent
// writers, the thread-CPU clock, and the end-to-end property the layer
// exists for -- a multi-slot wave reports the CPU of every slot it ran on,
// while a single-threaded run reports roughly wall time.
#include "obs/resource.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace swiftspatial::obs {
namespace {

// Busy work that the optimizer cannot elide and that burns thread CPU (no
// sleeping -- sleeps accrue wall time but not CLOCK_THREAD_CPUTIME_ID).
uint64_t BurnCpu(double seconds) {
  const double start = ThreadCpuSeconds();
  volatile uint64_t acc = 1;
  while (ThreadCpuSeconds() - start < seconds) {
    for (int i = 0; i < 1000; ++i) acc = acc * 2862933555777941757ULL + 3037ULL;
  }
  return acc;
}

TEST(ResourceTest, AccumulatorSumsAllFields) {
  ResourceAccumulator acc;
  acc.AddCpuSeconds(0.5);
  acc.AddCpuSeconds(0.25);
  acc.AddQueueWaitSeconds(0.125);
  acc.SetWallSeconds(2.0);
  acc.AddTasks(3);
  acc.AddChunk(/*pairs=*/10, /*bytes=*/80);
  acc.AddChunk(/*pairs=*/5, /*bytes=*/40);
  acc.AddRetries(2);

  const ResourceUsage u = acc.Snapshot();
#ifdef SWIFTSPATIAL_OBS_OFF
  // Compiled out: every mutator is an empty body.
  EXPECT_EQ(u.cpu_seconds, 0.0);
  EXPECT_EQ(u.tasks, 0u);
  EXPECT_EQ(u.pairs, 0u);
#else
  EXPECT_DOUBLE_EQ(u.cpu_seconds, 0.75);
  EXPECT_DOUBLE_EQ(u.queue_wait_seconds, 0.125);
  EXPECT_DOUBLE_EQ(u.wall_seconds, 2.0);
  EXPECT_EQ(u.tasks, 3u);
  EXPECT_EQ(u.chunks, 2u);
  EXPECT_EQ(u.pairs, 15u);
  EXPECT_EQ(u.bytes, 120u);
  EXPECT_EQ(u.retries, 2u);
#endif
}

#ifndef SWIFTSPATIAL_OBS_OFF

TEST(ResourceTest, ConcurrentAddsLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  ResourceAccumulator acc;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&acc] {
      for (int i = 0; i < kPerThread; ++i) {
        acc.AddCpuSeconds(0.001);
        acc.AddTasks(1);
        acc.AddChunk(2, 16);
      }
    });
  }
  for (auto& t : threads) t.join();
  const ResourceUsage u = acc.Snapshot();
  EXPECT_EQ(u.tasks, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(u.chunks, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(u.pairs, 2u * kThreads * kPerThread);
  EXPECT_EQ(u.bytes, 16u * kThreads * kPerThread);
  // The CAS loop on the double must not lose increments either.
  EXPECT_NEAR(u.cpu_seconds, 0.001 * kThreads * kPerThread, 1e-6);
}

TEST(ResourceTest, ThreadCpuClockAdvancesWithWorkNotSleep) {
  const double before = ThreadCpuSeconds();
  BurnCpu(0.02);
  const double after_work = ThreadCpuSeconds();
  EXPECT_GE(after_work - before, 0.02);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double after_sleep = ThreadCpuSeconds();
  // Sleeping burns (almost) no thread CPU.
  EXPECT_LT(after_sleep - after_work, 0.02);
}

// The headline property: a wave's cpu_seconds is the CPU paid on every
// slot that ran it, which is what distinguishes "the request was expensive"
// from "the request waited around". Four indices meet at a barrier, so they
// provably run at once in four distinct slots (the caller plus three pool
// workers), and then each burns its own thread's CPU. Whether the host
// gives them four cores (wall ~ one burn) or time-slices them (wall ~ four
// burns), the accumulator must report the sum of all four threads' CPU, so
// nothing here depends on the slots really running in parallel.
TEST(ResourceTest, WaveSumsCpuAcrossSlots) {
  constexpr int kSlots = 4;
  constexpr double kBurnPerSlot = 0.03;
  ThreadPool pool(kSlots - 1);
  ResourceAccumulator acc;
  std::atomic<int> arrived{0};
  std::vector<double> slot_cpu(kSlots, 0.0);
  std::vector<std::thread::id> slot_thread(kSlots);
  WaveContext wave;
  wave.pool = &pool;
  wave.usage = &acc;
  ParallelForWorker(
      kSlots, kSlots, Schedule::kDynamic,
      [&](std::size_t, std::size_t slot) {
        const double start = ThreadCpuSeconds();
        arrived.fetch_add(1);
        while (arrived.load() < kSlots) std::this_thread::yield();
        BurnCpu(kBurnPerSlot);
        slot_thread[slot] = std::this_thread::get_id();
        slot_cpu[slot] = ThreadCpuSeconds() - start;
      },
      1, wave);
  const ResourceUsage u = acc.Snapshot();

  // Three slots queued on the pool; the caller's did not.
  EXPECT_GT(u.task_wait_seconds, 0.0);
  EXPECT_EQ(u.queue_wait_seconds, 0.0);
  // The barrier forces one index per slot, each on its own thread.
  std::vector<std::thread::id> threads = slot_thread;
  std::sort(threads.begin(), threads.end());
  EXPECT_EQ(std::unique(threads.begin(), threads.end()) - threads.begin(),
            kSlots);
  // Every slot's CPU is accounted: the accumulator brackets each slot, so
  // it holds at least what the bodies measured themselves.
  double summed = 0;
  for (const double cpu : slot_cpu) summed += cpu;
  EXPECT_GE(summed, kSlots * kBurnPerSlot);
  EXPECT_GE(u.cpu_seconds + 1e-9, summed)
      << "cpu=" << u.cpu_seconds << " slot bodies=" << summed;
}

TEST(ResourceTest, SingleSlotWaveReportsCpuNearWall) {
  constexpr int kItems = 4;
  constexpr double kBurnPerItem = 0.03;
  ThreadPool pool(1);
  ResourceAccumulator acc;
  WaveContext wave;
  wave.pool = &pool;
  wave.usage = &acc;
  Stopwatch wall;
  ParallelFor(
      kItems, 1, Schedule::kDynamic,
      [](std::size_t) { BurnCpu(kBurnPerItem); }, 1, wave);
  const double wall_seconds = wall.ElapsedSeconds();
  const ResourceUsage u = acc.Snapshot();

  EXPECT_GE(u.cpu_seconds, kItems * kBurnPerItem);
  // One slot, inline: no pool wait, and CPU time cannot meaningfully
  // exceed elapsed wall time.
  EXPECT_EQ(u.task_wait_seconds, 0.0);
  EXPECT_LE(u.cpu_seconds, wall_seconds * 1.25)
      << "cpu=" << u.cpu_seconds << " wall=" << wall_seconds;
}

// A thread's CPU is billed once however its charges nest: the producer's
// charge around a wave whose caller slot bills the same request.
TEST(ResourceTest, NestedChargesBillAThreadOnce) {
  constexpr double kBurn = 0.03;
  ResourceAccumulator acc;
  WaveContext wave;
  wave.usage = &acc;
  const double start = ThreadCpuSeconds();
  {
    ScopedCpuCharge producer(&acc);
    ParallelFor(
        1, 1, Schedule::kStatic, [](std::size_t) { BurnCpu(kBurn); }, 1,
        wave);
  }
  const double spent = ThreadCpuSeconds() - start;
  const ResourceUsage u = acc.Snapshot();
  EXPECT_GE(u.cpu_seconds, kBurn);
  EXPECT_LE(u.cpu_seconds, spent + 1e-9);
}

TEST(ResourceTest, UntrackedWavePaysNothing) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  WaveContext wave;  // no accumulator
  wave.pool = &pool;
  ParallelFor(
      4, 3, Schedule::kDynamic, [&ran](std::size_t) { ran.fetch_add(1); }, 1,
      wave);
  EXPECT_EQ(ran.load(), 4);
}

#endif  // SWIFTSPATIAL_OBS_OFF

}  // namespace
}  // namespace swiftspatial::obs
