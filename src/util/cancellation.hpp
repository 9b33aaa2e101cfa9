// Cooperative cancellation and wall-clock deadlines.
//
// Long campaigns need two stop signals that a SIGKILL does not give them a
// chance to honor gracefully: *cancellation* (operator pressed Ctrl-C, a
// supervisor wants the slot back) and *deadlines* (a per-sample watchdog
// against a hung Newton loop, a global campaign time budget). Both are
// cooperative: hot loops — the DC Newton iteration, the transient stepper,
// the OMP/LAR/STAR greedy steps — poll a check site and unwind with a
// structured DeadlineExceededError, so the campaign layer can quarantine the
// sample or flush its checkpoint and return best-so-far.
//
// The signal path is lock-free: CancellationSource::request_cancel is one
// relaxed atomic store (async-signal-safe, see util/signals.hpp), tokens are
// shared_ptr copies of the same flag, and a check costs one atomic load plus
// (when a deadline is armed) one steady_clock read.
//
// Controls reach inner loops *ambiently*: ScopedRunControl installs a
// thread-local RunControl for its lifetime, and check sites call
// check_cooperative_stop(), which is a no-op when no scope is active. This
// keeps SampleEvaluator and the solver Options structs unchanged — the
// campaign wraps each attempt in a scope and every instrumented loop below
// it becomes interruptible. Scopes nest; a check honors every level. Work
// that ThreadPool::parallel_for hands to another thread runs under its
// caller's scopes there (AdoptedRunControls).
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

#include "util/common.hpp"

namespace rsm {

/// Read side of a cancellation flag. Default-constructed tokens are never
/// cancelled; real ones come from CancellationSource::token().
class CancellationToken {
 public:
  CancellationToken() = default;

  [[nodiscard]] bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Write side: owns the flag, hands out tokens. request_cancel is a single
/// relaxed store, safe to call from a signal handler on a pre-built source.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] CancellationToken token() const {
    return CancellationToken(flag_);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// A wall-clock budget on the steady clock. Default-constructed deadlines
/// are unlimited (never expire), so plumbing one through options costs
/// nothing until a caller arms it.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  // unlimited

  /// Deadline `seconds` from now; non-positive budgets expire immediately.
  [[nodiscard]] static Deadline after_seconds(double seconds) {
    Deadline d;
    d.limited_ = true;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    return d;
  }

  [[nodiscard]] static Deadline unlimited() { return Deadline{}; }

  [[nodiscard]] bool is_limited() const { return limited_; }
  [[nodiscard]] bool expired() const {
    return limited_ && Clock::now() >= at_;
  }

  /// Seconds until expiry (negative once expired); +inf when unlimited.
  [[nodiscard]] double remaining_seconds() const;

  /// The earlier of the two deadlines (unlimited is the identity).
  [[nodiscard]] static Deadline sooner(const Deadline& a, const Deadline& b);

 private:
  Clock::time_point at_{};
  bool limited_ = false;
};

/// One stop-control bundle: cancellation wins over the deadline in check().
struct RunControl {
  CancellationToken cancel;
  Deadline deadline;

  [[nodiscard]] bool should_stop() const {
    return cancel.cancelled() || deadline.expired();
  }

  /// Throws DeadlineExceededError naming `where` when cancelled or expired.
  void check(const char* where, Index sample = -1) const;
};

/// Installs `control` as the thread's ambient stop control for the scope's
/// lifetime; scopes nest and check sites honor every active level.
class ScopedRunControl {
 public:
  explicit ScopedRunControl(RunControl control);
  ~ScopedRunControl();
  ScopedRunControl(const ScopedRunControl&) = delete;
  ScopedRunControl& operator=(const ScopedRunControl&) = delete;

 private:
  friend void check_cooperative_stop(const char* where, Index sample);
  friend bool cooperative_stop_requested();

  RunControl control_;
  const ScopedRunControl* prev_;
};

namespace detail {
extern thread_local const ScopedRunControl* g_run_control_top;
}

/// The calling thread's ambient stop controls: its innermost scope, which
/// links every enclosing one; nullptr when no scope is active.
[[nodiscard]] const ScopedRunControl* current_run_controls();

/// Makes `controls`, captured with current_run_controls() on another thread,
/// the calling thread's ambient stop controls for the adopter's lifetime, so
/// a check here honors that thread's deadlines and cancellation. Those
/// scopes must outlive the adopter.
class AdoptedRunControls {
 public:
  explicit AdoptedRunControls(const ScopedRunControl* controls);
  ~AdoptedRunControls();
  AdoptedRunControls(const AdoptedRunControls&) = delete;
  AdoptedRunControls& operator=(const AdoptedRunControls&) = delete;

 private:
  const ScopedRunControl* prev_;
};

/// Check site for interruptible loops: throws DeadlineExceededError when any
/// ambient RunControl is cancelled or past its deadline; no-op (one
/// thread-local load) when no scope is active.
void check_cooperative_stop(const char* where, Index sample = -1);

/// Non-throwing form for sites that prefer to drain gracefully.
[[nodiscard]] bool cooperative_stop_requested();

}  // namespace rsm
