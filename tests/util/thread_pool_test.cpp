// Work-stealing thread pool: execution, backpressure, retirement, the
// exception backstop, RSM_THREADS worker-count resolution, and the
// parallel_for fan-out, whose parts run under the caller's stop controls.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cancellation.hpp"
#include "util/thread_pool.hpp"

namespace rsm {
namespace {

TEST(ResolveNumWorkersTest, PositiveRequestIsLiteral) {
  EXPECT_EQ(resolve_num_workers(3, 1), 3);
  EXPECT_EQ(resolve_num_workers(1, 8), 1);
}

TEST(ResolveNumWorkersTest, ZeroConsultsEnvThenFallback) {
  ::unsetenv("RSM_THREADS");
  EXPECT_EQ(resolve_num_workers(0, 5), 5);
  ::setenv("RSM_THREADS", "7", 1);
  EXPECT_EQ(resolve_num_workers(0, 5), 7);
  ::setenv("RSM_THREADS", "not-a-number", 1);
  EXPECT_EQ(resolve_num_workers(0, 5), 5);
  ::setenv("RSM_THREADS", "0", 1);
  EXPECT_EQ(resolve_num_workers(0, 5), 5);
  ::setenv("RSM_THREADS", "-3", 1);
  EXPECT_EQ(resolve_num_workers(0, 5), 5);
  ::setenv("RSM_THREADS", "4x", 1);
  EXPECT_EQ(resolve_num_workers(0, 5), 5);
  ::unsetenv("RSM_THREADS");
}

TEST(ThreadPoolTest, ExecutesEveryTaskExactlyOnce) {
  ThreadPool::Options options;
  options.num_threads = 4;
  ThreadPool pool(options);
  EXPECT_EQ(pool.num_workers(), 4);
  EXPECT_EQ(pool.active_workers(), 4);

  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  for (int i = 0; i < kTasks; ++i)
    pool.submit([&hits, i] { hits[static_cast<std::size_t>(i)]++; });
  pool.wait_idle();
  for (int i = 0; i < kTasks; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;

  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.task_exceptions, 0u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool::Options options;
  options.num_threads = 2;
  ThreadPool pool(options);
  pool.wait_idle();
  EXPECT_EQ(pool.stats().executed, 0u);
}

TEST(ThreadPoolTest, TinyQueueBackpressureLosesNothing) {
  ThreadPool::Options options;
  options.num_threads = 2;
  options.queue_capacity = 1;  // submit() must block and retry, not drop
  ThreadPool pool(options);
  std::atomic<int> executed{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i)
    pool.submit([&executed] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      executed++;
    });
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(ThreadPoolTest, ThrowingTaskIsSwallowedAndCounted) {
  ThreadPool::Options options;
  options.num_threads = 2;
  ThreadPool pool(options);
  std::atomic<int> after{0};
  pool.submit([] { throw std::runtime_error("task bug"); });
  pool.submit([&after] { after++; });
  pool.wait_idle();
  EXPECT_EQ(after.load(), 1);
  EXPECT_EQ(pool.stats().task_exceptions, 1u);
  EXPECT_EQ(pool.stats().executed, 2u);
}

TEST(ThreadPoolTest, CurrentWorkerIndexOnlyInsideTasks) {
  ThreadPool::Options options;
  options.num_threads = 3;
  ThreadPool pool(options);
  EXPECT_EQ(pool.current_worker_index(), -1);  // foreign thread
  std::atomic<bool> in_range{true};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&pool, &in_range] {
      const int w = pool.current_worker_index();
      if (w < 0 || w >= pool.num_workers()) in_range = false;
    });
  }
  pool.wait_idle();
  EXPECT_TRUE(in_range.load());
}

TEST(ThreadPoolTest, RetiredWorkerStopsClaimingAndSiblingsDrain) {
  ThreadPool::Options options;
  options.num_threads = 3;
  ThreadPool pool(options);
  // Retire the first worker that runs a task, then make sure a full batch
  // still executes and the retired worker claims none of it.
  std::atomic<int> retired_index{-1};
  pool.submit([&pool, &retired_index] {
    if (pool.retire_current_worker())
      retired_index = pool.current_worker_index();
  });
  pool.wait_idle();
  ASSERT_GE(retired_index.load(), 0);
  EXPECT_EQ(pool.active_workers(), 2);

  std::atomic<int> executed{0};
  std::atomic<bool> retired_ran{false};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&pool, &executed, &retired_ran, &retired_index] {
      if (pool.current_worker_index() == retired_index.load())
        retired_ran = true;
      executed++;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(executed.load(), 100);
  EXPECT_FALSE(retired_ran.load());
  const std::vector<ThreadPool::WorkerStats> workers = pool.worker_stats();
  ASSERT_EQ(workers.size(), 3u);
  EXPECT_TRUE(workers[static_cast<std::size_t>(retired_index.load())].retired);
}

TEST(ThreadPoolTest, LastActiveWorkerRefusesToRetire) {
  ThreadPool::Options options;
  options.num_threads = 2;
  ThreadPool pool(options);
  std::atomic<int> retire_successes{0};
  std::atomic<int> retire_refusals{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &retire_successes, &retire_refusals] {
      if (pool.retire_current_worker())
        retire_successes++;
      else
        retire_refusals++;
    });
  }
  pool.wait_idle();
  // Exactly one of the two workers may retire; the survivor refuses every
  // time so the queues always drain.
  EXPECT_EQ(retire_successes.load(), 1);
  EXPECT_EQ(retire_refusals.load(), 7);
  EXPECT_EQ(pool.active_workers(), 1);
}

TEST(ThreadPoolTest, RetireFromForeignThreadRefuses) {
  ThreadPool::Options options;
  options.num_threads = 2;
  ThreadPool pool(options);
  EXPECT_FALSE(pool.retire_current_worker());
  EXPECT_EQ(pool.active_workers(), 2);
}

TEST(ThreadPoolTest, SubmitFromInsideTasksWorks) {
  ThreadPool::Options options;
  options.num_threads = 4;
  options.queue_capacity = 512;
  ThreadPool pool(options);
  std::atomic<int> executed{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&pool, &executed] {
      executed++;
      pool.submit([&executed] { executed++; });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> executed{0};
  {
    ThreadPool::Options options;
    options.num_threads = 2;
    ThreadPool pool(options);
    for (int i = 0; i < 100; ++i)
      pool.submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        executed++;
      });
    // No wait_idle(): shutdown itself must drain every queued task.
  }
  EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPoolTest, TelemetryIsDeterministicWithOneWorker) {
  ThreadPool::Options options;
  options.num_threads = 1;
  ThreadPool pool(options);
  // Gate the single worker inside a task so the queue depth behind it is
  // fully deterministic.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  pool.submit([&started, &release] {
    started = true;
    while (!release)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  while (!started) std::this_thread::yield();
  for (int i = 0; i < 8; ++i) pool.submit([] {});
  release = true;
  pool.wait_idle();

  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 9u);
  EXPECT_EQ(stats.executed, 9u);
  EXPECT_EQ(stats.stolen, 0u);           // nobody to steal from
  EXPECT_EQ(stats.queue_highwater, 8u);  // the 8 tasks parked behind the gate
  EXPECT_EQ(stats.backpressure_stalls, 0u);

  const std::vector<ThreadPool::WorkerStats> workers = pool.worker_stats();
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0].executed, 9u);
  EXPECT_EQ(workers[0].stolen, 0u);
  EXPECT_FALSE(workers[0].retired);
  EXPECT_GT(workers[0].busy_seconds, 0.0);  // the gated task slept in task()
}

TEST(ThreadPoolTest, PerWorkerTelemetrySumsToPoolTotals) {
  ThreadPool::Options options;
  options.num_threads = 4;
  ThreadPool pool(options);
  constexpr int kTasks = 400;
  for (int i = 0; i < kTasks; ++i)
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    });
  pool.wait_idle();

  const ThreadPool::Stats stats = pool.stats();
  const std::vector<ThreadPool::WorkerStats> workers = pool.worker_stats();
  ASSERT_EQ(workers.size(), 4u);
  std::uint64_t executed = 0;
  std::uint64_t stolen = 0;
  for (const ThreadPool::WorkerStats& w : workers) {
    executed += w.executed;
    stolen += w.stolen;
    EXPECT_GE(w.busy_seconds, 0.0);
    EXPECT_GE(w.idle_seconds, 0.0);
  }
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(executed, stats.executed);
  EXPECT_EQ(stolen, stats.stolen);
  EXPECT_GE(stats.queue_highwater, 1u);
}

TEST(ThreadPoolTest, BackpressureStallsAreCounted) {
  ThreadPool::Options options;
  options.num_threads = 2;
  options.queue_capacity = 1;
  ThreadPool pool(options);
  // Both workers sleep for a long time; with one queue slot each, the
  // fifth submission must stall until a worker frees a slot.
  for (int i = 0; i < 12; ++i)
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
  pool.wait_idle();
  EXPECT_GE(pool.stats().backpressure_stalls, 1u);
  EXPECT_EQ(pool.stats().executed, 12u);
}

TEST(ThreadPoolTest, WorkStealingKeepsManyWorkersBusy) {
  ThreadPool::Options options;
  options.num_threads = 4;
  ThreadPool pool(options);
  std::set<int> seen;
  Mutex seen_mutex{"test.seen"};
  for (int i = 0; i < 400; ++i) {
    pool.submit([&pool, &seen, &seen_mutex] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      MutexLock lock(seen_mutex);
      seen.insert(pool.current_worker_index());
    });
  }
  pool.wait_idle();
  // All four workers should have participated (round-robin placement alone
  // guarantees this; stealing guarantees it even under skew).
  EXPECT_EQ(seen.size(), 4u);
}

class ParallelForTest : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] static ThreadPool::Options options() {
    ThreadPool::Options o;
    o.num_threads = GetParam();
    return o;
  }
};

TEST_P(ParallelForTest, EveryPartRunsExactlyOnce) {
  ThreadPool pool(options());
  for (const std::size_t count : {0, 1, 2, 200}) {
    std::vector<std::atomic<int>> hits(count);
    // Slow parts: workers still hold some when the caller runs out.
    pool.parallel_for(count, [&hits](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      hits[i]++;
    });
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "part " << i << " of " << count;
  }
  pool.wait_idle();
  EXPECT_EQ(pool.stats().task_exceptions, 0u);
}

// Every worker is inside a task that fans out, and none returns before all
// of their fan-outs have: no helper can start, so each call completes only
// because its caller runs every part itself.
TEST_P(ParallelForTest, CallsFromInsideEveryBusyWorkerComplete) {
  ThreadPool pool(options());
  const int workers = pool.num_workers();
  constexpr std::size_t kParts = 64;
  std::atomic<int> arrived{0};
  std::atomic<int> finished{0};
  std::atomic<std::size_t> parts{0};
  for (int w = 0; w < workers; ++w) {
    pool.submit([&] {
      arrived++;
      while (arrived.load() < workers) std::this_thread::yield();
      pool.parallel_for(kParts, [&parts](std::size_t) { parts++; });
      finished++;
      while (finished.load() < workers) std::this_thread::yield();
    });
  }
  pool.wait_idle();
  EXPECT_EQ(finished.load(), workers);
  EXPECT_EQ(parts.load(), static_cast<std::size_t>(workers) * kParts);
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelForTest,
                         ::testing::Values(1, 2, 3, 7));

// A fan-out from inside a task while both other workers are blocked in
// tasks of their own: no worker could start a helper before the caller has
// run every part, so none is queued.
TEST(ThreadPoolTest, ParallelForQueuesNoHelperWhenEveryWorkerIsBusy) {
  ThreadPool::Options options;
  options.num_threads = 3;
  ThreadPool pool(options);
  constexpr std::size_t kParts = 16;
  std::atomic<int> blocked{0};
  std::atomic<bool> release{false};
  for (int b = 0; b < 2; ++b) {
    pool.submit([&] {
      blocked++;
      while (!release.load()) std::this_thread::yield();
    });
  }
  std::vector<std::atomic<int>> hits(kParts);
  std::uint64_t submitted_before = 0;
  std::uint64_t submitted_after = 0;
  pool.submit([&] {
    while (blocked.load() < 2) std::this_thread::yield();
    submitted_before = pool.stats().submitted;
    pool.parallel_for(kParts, [&hits](std::size_t i) { hits[i]++; });
    submitted_after = pool.stats().submitted;
    release = true;
  });
  pool.wait_idle();
  EXPECT_EQ(submitted_before, 3u);
  EXPECT_EQ(submitted_after, submitted_before);
  for (std::size_t i = 0; i < kParts; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "part " << i;
}

TEST(ThreadPoolTest, ParallelForRethrowsAfterClaimedPartsFinish) {
  ThreadPool::Options options;
  options.num_threads = 3;
  ThreadPool pool(options);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::string message;
  try {
    pool.parallel_for(16, [&](std::size_t i) {
      started++;
      if (i == 5) throw std::runtime_error("part 5 failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      finished++;
    });
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "part 5 failed");
  // Every part that started, except the one that threw, had finished when
  // the exception reached the caller.
  EXPECT_EQ(finished.load(), started.load() - 1);
  pool.wait_idle();
  EXPECT_EQ(pool.stats().task_exceptions, 0u);

  // The pool is intact: the next fan-out runs every part.
  std::atomic<int> after{0};
  pool.parallel_for(16, [&after](std::size_t) { after++; });
  EXPECT_EQ(after.load(), 16);
}

// Three parts that wait for one another run on three threads: the caller
// and both workers. Each sees the caller's cancelled scope, and a worker
// drops it again once its part is done.
TEST(ThreadPoolTest, ParallelForPartsRunUnderTheCallersStopControls) {
  ThreadPool::Options options;
  options.num_threads = 2;
  ThreadPool pool(options);
  constexpr std::size_t kParts = 3;
  const auto run_parts = [&pool](std::array<bool, kParts>& stopped) {
    std::array<std::thread::id, kParts> ran_on{};
    std::atomic<std::size_t> arrived{0};
    pool.parallel_for(kParts, [&](std::size_t part) {
      arrived++;
      while (arrived.load() < kParts) std::this_thread::yield();
      ran_on[part] = std::this_thread::get_id();
      stopped[part] = cooperative_stop_requested();
    });
    return std::set<std::thread::id>(ran_on.begin(), ran_on.end()).size();
  };

  CancellationSource cancel;
  cancel.request_cancel();
  std::array<bool, kParts> stopped{};
  {
    const ScopedRunControl control(
        RunControl{.cancel = cancel.token(), .deadline = Deadline::unlimited()});
    EXPECT_EQ(run_parts(stopped), kParts);
  }
  for (std::size_t part = 0; part < kParts; ++part)
    EXPECT_TRUE(stopped[part]) << "part " << part;

  EXPECT_EQ(run_parts(stopped), kParts);
  for (std::size_t part = 0; part < kParts; ++part)
    EXPECT_FALSE(stopped[part]) << "part " << part;
}

}  // namespace
}  // namespace rsm
