// Annotated synchronization layer: the one sanctioned mutex vocabulary.
//
// Every lock in the tree is an rsm::Mutex (or rsm::SharedMutex) created
// with a *name* and a *rank*, and every acquisition goes through the
// scoped wrappers below. That buys two kinds of checking the bare
// std::mutex never had:
//
//   1. Compile-time discipline (Clang Thread Safety Analysis). The
//      RSM_CAPABILITY / RSM_GUARDED_BY / RSM_REQUIRES / RSM_ACQUIRE /
//      RSM_RELEASE macros expand to Clang's capability attributes, so
//      under `clang++ -Wthread-safety -Werror` touching guarded state
//      without holding its mutex is a build break, not a TSan roll of the
//      dice. Under GCC (and any non-Clang compiler) the macros expand to
//      nothing and the wrappers cost exactly what std::lock_guard costs.
//
//   2. Run-time deadlock detection (the lock-rank checker). Ranks define
//      the global acquisition order: a thread may only acquire a mutex
//      whose rank is STRICTLY GREATER than every rank it already holds.
//      Any A->B / B->A inversion — the raw material of every deadlock —
//      trips the checker deterministically on first occurrence, with both
//      lock names and the full held-lock stack, instead of deadlocking
//      once a year under the right interleaving. The checker is compiled
//      in when RSM_LOCK_RANK_CHECKS is 1 (the repo's CMake default; see
//      the RSM_LOCK_RANKS option) and costs a thread-local array push/pop
//      plus an integer compare per acquisition.
//
// scripts/rsm_lint.py's `no-naked-mutex` rule bans std::mutex,
// std::shared_mutex, std::lock_guard & co everywhere outside this file
// pair, so the vocabulary cannot erode. The rank table (one row per
// Mutex in the tree) and the rule for ranking new locks live in
// docs/static-analysis.md.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

// --------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (no-ops elsewhere).
// Vocabulary and semantics follow the Clang documentation; the RSM_ prefix
// keeps them grep-able and lets non-Clang builds compile them away.

#if defined(__clang__)
#define RSM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define RSM_THREAD_ANNOTATION(x)  // non-Clang: annotations compile away
#endif

/// Marks a type as a capability (lockable). The string names the kind.
#define RSM_CAPABILITY(x) RSM_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires in its constructor and releases in its
/// destructor (MutexLock, ReaderLock, WriterLock).
#define RSM_SCOPED_CAPABILITY RSM_THREAD_ANNOTATION(scoped_lockable)

/// Data member / global: may only be touched while holding `x`.
#define RSM_GUARDED_BY(x) RSM_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the *pointee* may only be touched while holding `x`.
#define RSM_PT_GUARDED_BY(x) RSM_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function precondition: caller must hold the capability (exclusively).
#define RSM_REQUIRES(...) \
  RSM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function precondition: caller must hold the capability (shared).
#define RSM_REQUIRES_SHARED(...) \
  RSM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and does not release it.
#define RSM_ACQUIRE(...) \
  RSM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RSM_ACQUIRE_SHARED(...) \
  RSM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability.
#define RSM_RELEASE(...) \
  RSM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RSM_RELEASE_SHARED(...) \
  RSM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `value`.
#define RSM_TRY_ACQUIRE(...) \
  RSM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function must be entered NOT holding the listed capabilities (they will
/// be acquired inside). This is the negative-capability vocabulary the CI
/// thread-safety job's -Wthread-safety-negative pass reads.
#define RSM_EXCLUDES(...) RSM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (for code reached only
/// under a lock taken by a caller the analysis cannot see).
#define RSM_ASSERT_CAPABILITY(x) RSM_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the capability `x`.
#define RSM_RETURN_CAPABILITY(x) RSM_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disable the analysis for one function. Every use is a
/// code-review flag; prefer restructuring.
#define RSM_NO_THREAD_SAFETY_ANALYSIS \
  RSM_THREAD_ANNOTATION(no_thread_safety_analysis)

// --------------------------------------------------------------------------
// Lock-rank checking gate. CMake normally forces this on (RSM_LOCK_RANKS=ON
// -> -DRSM_LOCK_RANK_CHECKS=1) so the Release test suite exercises it too;
// without an explicit definition it follows NDEBUG.

#ifndef RSM_LOCK_RANK_CHECKS
#ifdef NDEBUG
#define RSM_LOCK_RANK_CHECKS 0
#else
#define RSM_LOCK_RANK_CHECKS 1
#endif
#endif

namespace rsm {

/// True when acquisitions are rank-checked at runtime; tests assert the
/// checker fires exactly when it should.
inline constexpr bool kLockRankChecksEnabled = RSM_LOCK_RANK_CHECKS != 0;

/// The global acquisition order, lowest first: while holding a lock of
/// rank R a thread may only acquire locks of rank strictly greater than R.
/// One named constant per lock site in the tree — the authoritative table
/// (with the nesting edges that motivated each value) is in
/// docs/static-analysis.md. Rule for new locks: find every path that can
/// hold an existing lock while taking yours (and vice versa), then pick an
/// unused value strictly between the ranks you nest inside and the ranks
/// you acquire while held; leave gaps of 10 for future insertions. A lock
/// that never nests takes kDefault.
namespace lock_rank {
inline constexpr int kCampaignProgress = 10;  ///< campaign.progress
inline constexpr int kPoolCoord = 20;         ///< pool.coord
inline constexpr int kPoolQueue = 30;         ///< pool.queue (per worker)
inline constexpr int kTelemetrySlot = 40;     ///< obs.telemetry.slot
inline constexpr int kTelemetryRing = 50;     ///< obs.telemetry.ring
inline constexpr int kTelemetryJsonl = 55;    ///< obs.telemetry.jsonl
inline constexpr int kMetricsRegistry = 60;   ///< obs.metrics
inline constexpr int kTraceRetired = 70;      ///< obs.trace.retired
inline constexpr int kProgressReporter = 80;  ///< obs.progress.reporter
inline constexpr int kLog = 90;  ///< log — near-leaf: code logs under locks
/// pool.fan_out — leaf: counts finished parallel_for parts, and a caller
/// may hold any other lock while it waits.
inline constexpr int kPoolFanOut = 95;
/// Unranked scratch (tests, tools): acquirable while holding anything,
/// forbids nesting anything under it — including another kDefault lock.
inline constexpr int kDefault = 1000;
}  // namespace lock_rank

/// One entry of a thread's held-lock stack, as reported to violation
/// handlers and tests (acquisition order, oldest first).
struct HeldLockInfo {
  const char* name = "";
  int rank = 0;
};

/// Everything a rank-violation handler learns: the offending acquisition
/// and the full held-lock stack of the acquiring thread.
struct RankViolation {
  const char* acquiring_name = "";
  int acquiring_rank = 0;
  bool recursive = false;  ///< the acquiring mutex itself is already held
  std::vector<HeldLockInfo> held;  ///< acquisition order, oldest first
};

/// Handler invoked on a rank violation. The default (nullptr) prints both
/// lock names plus the held-lock stack to stderr and aborts — a potential
/// deadlock becomes a deterministic test failure. Tests install a
/// recording handler; if a handler returns normally the acquisition
/// proceeds (record-and-continue), and a handler may throw instead.
using RankViolationHandler = void (*)(const RankViolation&);

/// Installs a handler, returning the previous one (nullptr = default
/// abort). Not synchronized with in-flight acquisitions: install before
/// spawning threads, as tests do.
RankViolationHandler set_rank_violation_handler(RankViolationHandler handler);

/// The calling thread's current held-lock stack (empty when rank checks
/// are compiled out). Test/debug introspection only.
[[nodiscard]] std::vector<HeldLockInfo> held_locks_for_testing();

namespace detail {
#if RSM_LOCK_RANK_CHECKS
void rank_note_acquire(const void* mutex, const char* name, int rank);
void rank_note_release(const void* mutex);
#else
inline void rank_note_acquire(const void*, const char*, int) {}
inline void rank_note_release(const void*) {}
#endif
}  // namespace detail

/// Exclusive mutex with a Clang TSA capability, a name, and a rank.
/// Constexpr-constructible so namespace-scope instances need no dynamic
/// initialization. Prefer the MutexLock wrapper to calling lock()/unlock()
/// directly; direct calls exist for the rare manual-pairing site.
class RSM_CAPABILITY("mutex") Mutex {
 public:
  constexpr explicit Mutex(const char* name = "mutex",
                           int rank = lock_rank::kDefault)
      : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RSM_ACQUIRE() {
    detail::rank_note_acquire(this, name_, rank_);
    raw_.lock();
  }

  void unlock() RSM_RELEASE() {
    raw_.unlock();
    detail::rank_note_release(this);
  }

  /// Rank-checked like lock(): a try_lock in rank-inverted order cannot
  /// deadlock by itself, but it establishes the inverted edge the next
  /// blocking acquire will deadlock on, so the discipline applies.
  [[nodiscard]] bool try_lock() RSM_TRY_ACQUIRE(true) {
    detail::rank_note_acquire(this, name_, rank_);
    if (raw_.try_lock()) return true;
    detail::rank_note_release(this);
    return false;
  }

  [[nodiscard]] constexpr const char* name() const { return name_; }
  [[nodiscard]] constexpr int rank() const { return rank_; }

 private:
  friend class MutexLock;
  friend class CondVar;
  std::mutex raw_;
  const char* name_;
  int rank_;
};

/// Reader/writer mutex with the same name+rank discipline. Shared
/// acquisitions follow the same rank order as exclusive ones.
class RSM_CAPABILITY("shared_mutex") SharedMutex {
 public:
  constexpr explicit SharedMutex(const char* name = "shared_mutex",
                                 int rank = lock_rank::kDefault)
      : name_(name), rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() RSM_ACQUIRE() {
    detail::rank_note_acquire(this, name_, rank_);
    raw_.lock();
  }

  void unlock() RSM_RELEASE() {
    raw_.unlock();
    detail::rank_note_release(this);
  }

  void lock_shared() RSM_ACQUIRE_SHARED() {
    detail::rank_note_acquire(this, name_, rank_);
    raw_.lock_shared();
  }

  void unlock_shared() RSM_RELEASE_SHARED() {
    raw_.unlock_shared();
    detail::rank_note_release(this);
  }

  [[nodiscard]] bool try_lock() RSM_TRY_ACQUIRE(true) {
    detail::rank_note_acquire(this, name_, rank_);
    if (raw_.try_lock()) return true;
    detail::rank_note_release(this);
    return false;
  }

  [[nodiscard]] constexpr const char* name() const { return name_; }
  [[nodiscard]] constexpr int rank() const { return rank_; }

 private:
  std::shared_mutex raw_;
  const char* name_;
  int rank_;
};

/// Scoped exclusive lock on an rsm::Mutex — the std::lock_guard of this
/// layer, plus the capability handoff TSA needs and CondVar compatibility.
class RSM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) RSM_ACQUIRE(mutex) : mutex_(mutex) {
    detail::rank_note_acquire(&mutex_, mutex_.name_, mutex_.rank_);
    lock_ = std::unique_lock<std::mutex>(mutex_.raw_);
  }

  ~MutexLock() RSM_RELEASE() {
    lock_.unlock();
    detail::rank_note_release(&mutex_);
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mutex_;
  std::unique_lock<std::mutex> lock_;
};

/// Scoped shared (reader) lock on an rsm::SharedMutex.
class RSM_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mutex) RSM_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }

  ~ReaderLock() RSM_RELEASE() { mutex_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Scoped exclusive (writer) lock on an rsm::SharedMutex.
class RSM_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mutex) RSM_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }

  ~WriterLock() RSM_RELEASE() { mutex_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Condition variable paired with MutexLock. While wait() internally
/// releases and reacquires the mutex, both the TSA capability and the
/// rank-checker's held-stack treat it as continuously held (the Abseil
/// CondVar convention) — so wait predicates must not acquire other rsm
/// locks of rank <= the waited mutex (the ones in the tree only read
/// atomics).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { raw_.notify_one(); }
  void notify_all() { raw_.notify_all(); }

  void wait(MutexLock& lock) { raw_.wait(lock.lock_); }

  template <typename Predicate>
  void wait(MutexLock& lock, Predicate predicate) {
    raw_.wait(lock.lock_, std::move(predicate));
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(MutexLock& lock,
                          const std::chrono::duration<Rep, Period>& timeout) {
    return raw_.wait_for(lock.lock_, timeout);
  }

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(MutexLock& lock,
                const std::chrono::duration<Rep, Period>& timeout,
                Predicate predicate) {
    return raw_.wait_for(lock.lock_, timeout, std::move(predicate));
  }

 private:
  std::condition_variable raw_;
};

}  // namespace rsm
