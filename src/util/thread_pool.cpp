#include "util/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "util/cancellation.hpp"
#include "util/log.hpp"

namespace rsm {
namespace {

/// Which pool (if any) owns the calling thread, and its worker index.
/// Plain thread_locals: a worker belongs to exactly one pool for its whole
/// life, so no synchronization is needed.
thread_local const ThreadPool* t_pool = nullptr;
thread_local int t_worker = -1;

/// Workers re-check their predicates on this cadence even without a
/// notification — a belt-and-braces bound on any missed-wakeup bug turning
/// into a hang rather than a stall.
constexpr std::chrono::milliseconds kWakePollInterval{50};

/// Single-writer accumulate: only the owning worker stores, so a plain
/// load-add-store is race-free (readers may see a slightly stale total).
void add_seconds(std::atomic<double>& acc,
                 std::chrono::steady_clock::duration d) {
  acc.store(acc.load(std::memory_order_relaxed) +
                std::chrono::duration<double>(d).count(),
            std::memory_order_relaxed);
}

/// CAS-max for the queue-depth high-water mark.
void raise_highwater(std::atomic<std::uint64_t>& highwater,
                     std::uint64_t depth) {
  std::uint64_t seen = highwater.load(std::memory_order_relaxed);
  while (depth > seen &&
         !highwater.compare_exchange_weak(seen, depth,
                                          std::memory_order_relaxed)) {
  }
}

/// What one parallel_for call shares with the helper tasks it submits. A
/// helper holds it by shared_ptr and dereferences `body` and the caller's
/// stop controls, which live on the caller's stack, only after claiming a
/// part: the caller waits for every claimed part, so a helper that starts
/// after the call has returned finds nothing left and touches only this
/// object.
class FanOut {
 public:
  FanOut(std::size_t count, const std::function<void(std::size_t)>& body)
      : count_(count), body_(&body), controls_(current_run_controls()) {}

  /// Claims and runs parts until none is left, then counts them done. A
  /// helper passes its worker's `running` flag, cleared before the count:
  /// a caller that sees every part done sees that worker idle too, so a
  /// fan-out right after this one queues a helper for it again.
  void drain(std::atomic<bool>* running = nullptr) {
    std::size_t ran = 0;
    std::exception_ptr error;
    for (;;) {
      const std::size_t part = next_.fetch_add(1, std::memory_order_relaxed);
      if (part >= count_) break;
      ++ran;
      if (failed_.load(std::memory_order_relaxed)) continue;
      try {
        const AdoptedRunControls adopted(controls_);
        (*body_)(part);
      } catch (...) {
        if (!error) error = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
      }
    }
    if (running != nullptr) running->store(false, std::memory_order_relaxed);
    if (ran == 0) return;
    MutexLock lock(mutex_);
    if (error && !error_) error_ = error;
    done_ += ran;
    if (done_ == count_) done_cv_.notify_all();
  }

  /// Blocks until every part is done; rethrows the first part's exception.
  void wait() {
    std::exception_ptr error;
    {
      MutexLock lock(mutex_);
      while (done_ < count_) done_cv_.wait(lock);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  const std::size_t count_;
  const std::function<void(std::size_t)>* const body_;
  const ScopedRunControl* const controls_;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  Mutex mutex_{"pool.fan_out", lock_rank::kPoolFanOut};
  CondVar done_cv_;
  std::size_t done_ RSM_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ RSM_GUARDED_BY(mutex_);
};

}  // namespace

int resolve_num_workers(int requested, int fallback) {
  RSM_CHECK_MSG(requested >= 0, "worker count must be >= 0");
  RSM_CHECK_MSG(fallback >= 1, "worker-count fallback must be >= 1");
  if (requested >= 1) return requested;
  if (const char* env = std::getenv("RSM_THREADS")) {
    int value = 0;
    const char* end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, value);
    if (ec == std::errc{} && ptr == end && value >= 1) return value;
    RSM_WARN("RSM_THREADS='" << env
                             << "' is not a positive integer; ignoring");
  }
  return fallback;
}

ThreadPool::ThreadPool() : ThreadPool(Options{}) {}

ThreadPool::ThreadPool(const Options& options) : options_(options) {
  const int fallback =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int n = resolve_num_workers(options_.num_threads, fallback);
  RSM_CHECK_MSG(options_.queue_capacity >= 1, "queue_capacity must be >= 1");
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.push_back(std::make_unique<Worker>());
  active_.store(n, std::memory_order_relaxed);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(coord_);
    stop_.store(true, std::memory_order_relaxed);
    work_cv_.notify_all();
    space_cv_.notify_all();
  }
  for (std::thread& thread : threads_) thread.join();
}

int ThreadPool::num_workers() const {
  return static_cast<int>(workers_.size());
}

int ThreadPool::active_workers() const {
  return active_.load(std::memory_order_relaxed);
}

int ThreadPool::current_worker_index() const {
  return t_pool == this ? t_worker : -1;
}

std::size_t ThreadPool::queue_depth() const {
  const std::int64_t depth = queued_.load(std::memory_order_relaxed);
  return depth > 0 ? static_cast<std::size_t>(depth) : 0;
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.executed = executed_.load(std::memory_order_relaxed);
  stats.stolen = stolen_.load(std::memory_order_relaxed);
  stats.task_exceptions = task_exceptions_.load(std::memory_order_relaxed);
  stats.backpressure_stalls =
      backpressure_stalls_.load(std::memory_order_relaxed);
  stats.queue_highwater = queue_highwater_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) {
    WorkerStats ws;
    ws.executed = worker->executed.load(std::memory_order_relaxed);
    ws.stolen = worker->stolen.load(std::memory_order_relaxed);
    ws.retired = worker->retired.load(std::memory_order_relaxed);
    ws.busy_seconds = worker->busy_seconds.load(std::memory_order_relaxed);
    ws.idle_seconds = worker->idle_seconds.load(std::memory_order_relaxed);
    out.push_back(ws);
  }
  return out;
}

bool ThreadPool::try_push(int worker, Task& task) {
  Worker& target = *workers_[static_cast<std::size_t>(worker)];
  if (target.retired.load(std::memory_order_relaxed)) return false;
  MutexLock lock(target.mutex);
  if (target.queue.size() >= options_.queue_capacity) return false;
  target.queue.push_back(std::move(task));
  return true;
}

bool ThreadPool::try_submit(Task& task) {
  // Count the task as pending *before* it becomes visible to workers, so
  // wait_idle() can never observe a spurious zero between push and count.
  pending_.fetch_add(1, std::memory_order_acq_rel);
  const int n = num_workers();
  const std::uint64_t start =
      next_queue_.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    const int target =
        static_cast<int>((start + static_cast<std::uint64_t>(i)) %
                         static_cast<std::uint64_t>(n));
    if (!try_push(target, task)) continue;
    submitted_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t depth =
        queued_.fetch_add(1, std::memory_order_acq_rel) + 1;
    raise_highwater(queue_highwater_, static_cast<std::uint64_t>(depth));
    MutexLock lock(coord_);
    work_cv_.notify_one();
    return true;
  }
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    MutexLock lock(coord_);
    idle_cv_.notify_all();
  }
  return false;
}

void ThreadPool::submit(Task task) {
  RSM_CHECK_MSG(static_cast<bool>(task), "submit() needs a callable task");
  RSM_CHECK_MSG(!stop_.load(std::memory_order_relaxed),
                "submit() after shutdown began");
  while (!try_submit(task)) {
    // Every live queue is full: backpressure. Timed wait so a burst of
    // completions that raced the notify cannot strand this producer.
    backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(coord_);
    space_cv_.wait_for(lock, kWakePollInterval);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const auto fan_out = std::make_shared<FanOut>(count, body);
  // One helper per part the caller will not run itself, at most one per
  // worker that is not running a task: a busy worker would reach its
  // helper only after its own task, when the caller has usually run every
  // part. Full queues mean busy workers too: the caller runs those parts
  // rather than wait for space.
  std::size_t idle = 0;
  for (const auto& worker : workers_) {
    if (!worker->retired.load(std::memory_order_relaxed) &&
        !worker->running.load(std::memory_order_relaxed)) {
      ++idle;
    }
  }
  const std::size_t helpers = std::min(count - 1, idle);
  try {
    for (std::size_t h = 0; h < helpers; ++h) {
      Task helper = [this, fan_out] {
        fan_out->drain(
            &workers_[static_cast<std::size_t>(t_worker)]->running);
      };
      if (!try_submit(helper)) break;
    }
  } catch (...) {
    // A helper already queued may claim a part and call `body`: every
    // part must finish before this frame unwinds.
    fan_out->drain();
    fan_out->wait();
    throw;
  }
  fan_out->drain();
  fan_out->wait();
}

void ThreadPool::wait_idle() {
  MutexLock lock(coord_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

bool ThreadPool::retire_current_worker() {
  const int index = current_worker_index();
  if (index < 0) return false;
  int active = active_.load(std::memory_order_relaxed);
  do {
    if (active <= 1) return false;  // someone must drain the queues
  } while (!active_.compare_exchange_weak(active, active - 1,
                                          std::memory_order_acq_rel));
  workers_[static_cast<std::size_t>(index)]->retired.store(
      true, std::memory_order_relaxed);
  // Siblings must wake to steal whatever this worker still has queued.
  MutexLock lock(coord_);
  work_cv_.notify_all();
  return true;
}

ThreadPool::Task ThreadPool::try_pop_own(Worker& self) {
  MutexLock lock(self.mutex);
  if (self.queue.empty()) return nullptr;
  Task task = std::move(self.queue.front());
  self.queue.pop_front();
  return task;
}

ThreadPool::Task ThreadPool::try_steal(int thief) {
  const int n = num_workers();
  for (int i = 1; i < n; ++i) {
    // Victims include retired workers: their queues must still drain.
    const int victim = (thief + i) % n;
    Worker& target = *workers_[static_cast<std::size_t>(victim)];
    MutexLock lock(target.mutex);
    if (target.queue.empty()) continue;
    Task task = std::move(target.queue.back());
    target.queue.pop_back();
    return task;
  }
  return nullptr;
}

void ThreadPool::worker_loop(int index) {
  t_pool = this;
  t_worker = index;
  Worker& self = *workers_[static_cast<std::size_t>(index)];
  // Busy/idle accounting: `mark` is the end of the previous task (or thread
  // start); time up to the next task() call is idle, the call itself busy.
  auto mark = std::chrono::steady_clock::now();
  for (;;) {
    Task task;
    bool stole = false;
    if (!self.retired.load(std::memory_order_relaxed)) {
      task = try_pop_own(self);
      if (task == nullptr) {
        task = try_steal(index);
        stole = task != nullptr;
      }
    }
    if (task != nullptr) {
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      {
        MutexLock lock(coord_);
        space_cv_.notify_one();
      }
      if (stole) {
        stolen_.fetch_add(1, std::memory_order_relaxed);
        self.stolen.fetch_add(1, std::memory_order_relaxed);
      }
      const auto start = std::chrono::steady_clock::now();
      add_seconds(self.idle_seconds, start - mark);
      self.running.store(true, std::memory_order_relaxed);
      try {
        task();
      } catch (...) {
        // Infrastructure backstop only: campaign tasks classify and record
        // their own failures; anything escaping to here is a task bug, not
        // a reason to take the pool down.
        task_exceptions_.fetch_add(1, std::memory_order_relaxed);
        RSM_WARN("thread_pool: task on worker " << index
                                                << " threw; swallowed");
      }
      self.running.store(false, std::memory_order_relaxed);
      mark = std::chrono::steady_clock::now();
      add_seconds(self.busy_seconds, mark - start);
      executed_.fetch_add(1, std::memory_order_relaxed);
      self.executed.fetch_add(1, std::memory_order_relaxed);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        MutexLock lock(coord_);
        idle_cv_.notify_all();
      }
      continue;
    }
    if (self.retired.load(std::memory_order_relaxed)) {
      add_seconds(self.idle_seconds, std::chrono::steady_clock::now() - mark);
      return;
    }
    MutexLock lock(coord_);
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_acquire) == 0) {
      // Cooperative shutdown: every queued task has been drained.
      add_seconds(self.idle_seconds, std::chrono::steady_clock::now() - mark);
      return;
    }
    work_cv_.wait_for(lock, kWakePollInterval, [this, &self] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_acquire) > 0 ||
             self.retired.load(std::memory_order_relaxed);
    });
  }
}

void parallel_for_ranges(
    ThreadPool* pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t threads =
      pool == nullptr ? 1 : static_cast<std::size_t>(pool->num_workers()) + 1;
  const std::size_t parts = std::min(threads, count);
  if (parts <= 1) {
    if (count > 0) body(0, count);
    return;
  }
  pool->parallel_for(parts, [&](std::size_t p) {
    body(count * p / parts, count * (p + 1) / parts);
  });
}

ThreadPool* shared_pool() {
  static const int threads = [] {
    const int cores =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    return std::min(cores, resolve_num_workers(0, cores));
  }();
  if (threads <= 1) return nullptr;
  static ThreadPool pool(ThreadPool::Options{threads - 1, 256});
  return &pool;
}

}  // namespace rsm
