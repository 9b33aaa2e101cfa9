// Work-stealing thread pool: the one sanctioned concurrency primitive.
//
// The paper's cost model makes sample rows embarrassingly parallel — each
// is an independent transistor-level simulation — but the campaign layer's
// guarantees (deterministic retry/quarantine accounting, durable
// checkpoints, bit-identical resume) must survive whatever interleaving N
// workers produce. Concentrating every thread the project spawns behind
// this pool keeps those properties auditable: rsm-lint forbids raw
// std::thread/std::async outside src/util/, and the pool itself is
// exercised under TSan in CI.
//
// Design:
//   * one bounded deque per worker; submit() round-robins across workers
//     and blocks (backpressure) while every live queue is full;
//   * a worker pops its own queue front-first and, when empty, steals from
//     the back of a victim's queue — classic work stealing, so a stalled
//     or retired worker cannot strand queued tasks;
//   * shutdown is cooperative: the destructor stops intake, drains every
//     queued task, then joins. Tasks are expected to poll the campaign's
//     cancellation token; the pool never kills a thread;
//   * retire_current_worker() lets a task permanently quarantine the
//     worker it runs on (the campaign's graceful-degradation path for
//     repeated infrastructure faults). The last active worker refuses to
//     retire so queues always drain;
//   * a task that throws is counted (task_exceptions) and swallowed — the
//     pool is infrastructure; error *classification* belongs to the
//     campaign layer, which catches per-row exceptions itself;
//   * parallel_for() is the fan-out for one caller that needs every part
//     done before it goes on (the correlation scan's column slices, the
//     server's eval_batch chunks): the caller runs parts too, and a part's
//     exception reaches the caller instead of the backstop above.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/common.hpp"
#include "util/sync.hpp"

namespace rsm {

/// Shared worker-count resolution: `requested >= 1` is taken literally;
/// `requested == 0` means "auto" — the RSM_THREADS environment variable
/// when it holds a positive integer, otherwise `fallback`. The campaign
/// layer passes fallback = 1 (one worker stays the default), the pool
/// passes the hardware concurrency.
[[nodiscard]] int resolve_num_workers(int requested, int fallback);

class ThreadPool {
 public:
  using Task = std::function<void()>;

  struct Options {
    /// Worker threads; 0 = resolve_num_workers(0, hardware_concurrency).
    int num_threads = 0;

    /// Per-worker queue bound; submit() blocks while every live queue is
    /// full, so an unbounded producer cannot exhaust memory.
    std::size_t queue_capacity = 256;
  };

  /// Lifetime counters (monotonic; racy reads are fine for reporting).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;           // executed via steal, not own queue
    std::uint64_t task_exceptions = 0;  // tasks that threw (swallowed)
    std::uint64_t backpressure_stalls = 0;  // submit() sleeps on full queues
    std::uint64_t queue_highwater = 0;  // max tasks simultaneously queued
  };

  /// Per-worker telemetry. Counters are exact; busy/idle seconds are
  /// wall-clock accumulations written only by the owning worker (reads
  /// while the pool runs may lag the current task boundary).
  struct WorkerStats {
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;    // tasks this worker stole from a sibling
    bool retired = false;
    double busy_seconds = 0;     // inside task();
    double idle_seconds = 0;     // between tasks (incl. sleeping)
  };

  ThreadPool();  // default Options
  explicit ThreadPool(const Options& options);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task; blocks for backpressure while all live queues are
  /// full. Safe to call from inside a task (workers submitting follow-up
  /// work), but not after the destructor has begun.
  void submit(Task task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  /// Runs body(0), ..., body(count - 1), each exactly once, on the calling
  /// thread and on up to num_workers() workers, and returns when all have
  /// finished. The caller claims parts from the same counter as the
  /// workers and waits only for parts a worker has already claimed, so the
  /// call completes even when every worker is busy, including when it is
  /// made from inside a task of this pool. After the first exception a
  /// part throws, unclaimed parts are skipped and that exception is
  /// rethrown here once every claimed part has finished.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  [[nodiscard]] int num_workers() const;

  /// Workers that have not been retired.
  [[nodiscard]] int active_workers() const;

  /// 0-based index of the pool worker executing the calling task, or -1
  /// when called from a thread this pool does not own.
  [[nodiscard]] int current_worker_index() const;

  /// Permanently retires the calling worker: it finishes the current task,
  /// stops claiming new ones, and its queued tasks are stolen by siblings.
  /// Returns false — and retires nothing — when the caller is not a pool
  /// worker or when it is the last active worker (someone must drain the
  /// queues). This is the campaign's graceful-degradation hook.
  bool retire_current_worker();

  /// Tasks currently sitting in queues (not yet claimed).
  [[nodiscard]] std::size_t queue_depth() const;

  [[nodiscard]] Stats stats() const;

  /// One entry per worker, indexed by worker id (stable for the pool's
  /// life, retired workers included).
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;

 private:
  struct Worker {
    Mutex mutex{"pool.queue", lock_rank::kPoolQueue};
    std::deque<Task> queue RSM_GUARDED_BY(mutex);
    std::atomic<bool> retired{false};

    // Telemetry. executed/stolen use relaxed fetch_add; the second pair is
    // single-writer (only the owning worker stores) so plain load+store.
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<double> busy_seconds{0};
    std::atomic<double> idle_seconds{0};
  };

  void worker_loop(int index);
  bool try_submit(Task& task);
  bool try_push(int worker, Task& task);
  Task try_pop_own(Worker& self);
  Task try_steal(int thief);

  Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
  std::atomic<std::int64_t> pending_{0};  // submitted, not yet finished
  std::atomic<std::int64_t> queued_{0};   // sitting in queues
  std::atomic<std::uint64_t> next_queue_{0};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> task_exceptions_{0};
  std::atomic<std::uint64_t> backpressure_stalls_{0};
  std::atomic<std::uint64_t> queue_highwater_{0};

  // One coordination mutex for all sleeping/waking; per-worker mutexes only
  // guard their deques. Notifying under the lock closes the classic
  // check-then-wait race without per-queue condition variables. coord_ and
  // the worker mutexes are never held together, so their ranks are free.
  mutable Mutex coord_{"pool.coord", lock_rank::kPoolCoord};
  CondVar work_cv_;   // queued task may be available
  CondVar idle_cv_;   // pending_ may have reached zero
  CondVar space_cv_;  // queue space may have opened up
};

/// The process-wide pool that splits the correlation scan
/// (gemv_transposed) across cores. The calling thread takes a share of
/// every parallel_for, so the pool has one worker fewer than the threads
/// a scan may use: hardware_concurrency, capped by RSM_THREADS. nullptr
/// when that leaves no worker (RSM_THREADS=1 or one core): the caller then
/// runs alone. Created on first use.
[[nodiscard]] ThreadPool* shared_pool();

}  // namespace rsm
