// Deterministic fault schedules for robustness testing.
//
// Production fault tolerance is only trustworthy if the recovery paths run
// in CI. A FaultSchedule<Kind> decides — from a seed and an operation index
// alone, via a splitmix64 hash, so the decision is independent of
// evaluation order and thread count — whether operation `op` faults and
// with which mode. One template serves every layer; a FaultTraits<Kind>
// specialization holds what differs between them: the hash lane of the
// fault draw (the mode draw takes the next lane), the default seed and the
// mode names (whose count is the number of modes). Faulted ops split evenly
// between the modes.
//
// The layers in src/:
//   * FaultKind — campaign sample attempts. The campaign calls
//     `throw_if_faulted(sample, attempt)` before each evaluation attempt; a
//     fault is *transient* (clears on retry, exercising the escalation path)
//     or *persistent* (fails every attempt, exercising quarantine), and
//     tests assert exact quarantine sets and per-code histograms against
//     `kind()` / `is_persistent()`.
//   * WorkerFaultKind — campaign rows: the first execution of a faulted row
//     dies in the task wrapper, outside the evaluator.
//   * FsFaultKind — the durable-I/O writers' physical writes.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>

#include "util/common.hpp"
#include "util/errors.hpp"

namespace rsm {

enum class FaultKind {
  kNone = 0,
  kSingularSolve,  // raises SingularMatrixError
  kNewtonStall,    // raises ConvergenceError
};

/// Worker-level (infrastructure) faults for the campaign executor: whether
/// the *first* execution of a row dies in the task wrapper (a crashed
/// worker process, an OOM kill, a lost RPC). Keying by row, never by worker
/// identity, keeps the schedule identical regardless of worker count or
/// interleaving; the executor requeues the row (the retry succeeds: the
/// fault is infrastructural, not the sample's) and retires whichever worker
/// claimed it.
enum class WorkerFaultKind {
  kNone = 0,
  kCrash,
};

/// Filesystem failure modes the src/io writers can be made to exhibit. Each
/// DurableFile counts its physical writes from a first op index (0 unless
/// its owner says otherwise) and consults kind(op) before each one, so a
/// test can predict exactly which write faults and with which mode.
enum class FsFaultKind {
  kNone = 0,
  kTornWrite,   // a prefix of the buffer reaches the file, then the write
                // fails — the crash-consistency hazard checkpoints must
                // survive (partial record on disk)
  kShortWrite,  // the write persists all but the final byte and the writer
                // detects the count mismatch — tail corruption
  kNoSpace,     // nothing is written; the operation fails like ENOSPC
};

/// Per-layer schedule constants; one specialization per Kind.
template <typename Kind>
struct FaultTraits;

template <>
struct FaultTraits<FaultKind> {
  static constexpr std::uint64_t kLane = 0;  // lane 2: is_persistent
  static constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ull;
  static constexpr std::array<const char*, 3> kNames = {
      "none", "singular-solve", "newton-stall"};
};

template <>
struct FaultTraits<WorkerFaultKind> {
  static constexpr std::uint64_t kLane = 3;
  static constexpr std::uint64_t kSeed = 0xa0761d6478bd642full;
  static constexpr std::array<const char*, 2> kNames = {"none", "crash"};
};

template <>
struct FaultTraits<FsFaultKind> {
  static constexpr std::uint64_t kLane = 0;
  static constexpr std::uint64_t kSeed = 0x6a09e667f3bcc909ull;
  static constexpr std::array<const char*, 4> kNames = {
      "none", "torn-write", "short-write", "no-space"};
};

/// Stable name of a fault mode ("none" for Kind::kNone).
template <typename Kind>
[[nodiscard]] const char* fault_kind_name(Kind kind) {
  const auto i = static_cast<std::size_t>(kind);
  constexpr auto& names = FaultTraits<Kind>::kNames;
  return i < names.size() ? names[i] : "?";
}

template <typename Kind>
struct FaultScheduleOptions {
  /// Expected fraction of operations that fault (0 disables the schedule).
  Real fault_rate = 0;

  /// Hash seed, so one seed reproduces an entire failure schedule.
  std::uint64_t seed = FaultTraits<Kind>::kSeed;
};

template <>
struct FaultScheduleOptions<FaultKind> {
  Real fault_rate = 0;

  /// Of the faulted samples, the fraction whose fault persists across
  /// every retry (and therefore must be quarantined).
  Real persistent_fraction = 0.5;

  /// Campaigns derive the seed from their own RNG seed so one seed
  /// reproduces both the sample draw and the fault pattern.
  std::uint64_t seed = FaultTraits<FaultKind>::kSeed;
};

/// Throws the structured error of a faulted sample's mode (SingularMatrixError
/// or ConvergenceError, strategy "fault-injection").
void throw_injected_fault(FaultKind kind, Index sample);

/// Uniform in [0, 1) from the splitmix64 hash of (seed, op, lane).
[[nodiscard]] constexpr Real fault_draw(std::uint64_t seed, std::uint64_t op,
                                        std::uint64_t lane) {
  const std::uint64_t z =
      splitmix64_finalize(seed + 0x9e3779b97f4a7c15ull * (op + 1) + lane);
  return static_cast<Real>(z >> 11) * 0x1.0p-53;
}

template <typename Kind>
class FaultSchedule {
 public:
  using Options = FaultScheduleOptions<Kind>;
  static constexpr bool kSampleLayer = std::same_as<Kind, FaultKind>;

  /// Disabled schedule (never faults).
  FaultSchedule() = default;
  explicit FaultSchedule(const Options& options) : options_(options) {
    RSM_CHECK_MSG(options.fault_rate >= 0 && options.fault_rate <= 1,
                  "fault_rate must be in [0, 1]");
    if constexpr (kSampleLayer) {
      const Real p = options.persistent_fraction;
      RSM_CHECK_MSG(p >= 0 && p <= 1, "persistent_fraction must be in [0, 1]");
    }
  }

  [[nodiscard]] bool enabled() const { return options_.fault_rate > 0; }

  /// Fault mode assigned to operation `op` (Kind::kNone when unfaulted).
  /// Mode m (1-based) takes the mode draw's m-th of `modes` equal slices.
  [[nodiscard]] Kind kind(std::uint64_t op) const {
    constexpr std::uint64_t lane = FaultTraits<Kind>::kLane;
    constexpr std::size_t modes = FaultTraits<Kind>::kNames.size() - 1;
    if (!enabled() ||
        fault_draw(options_.seed, op, lane) >= options_.fault_rate)
      return Kind::kNone;
    const Real mode = fault_draw(options_.seed, op, lane + 1);
    for (std::size_t m = 1; m < modes; ++m)
      if (mode < static_cast<Real>(m) / static_cast<Real>(modes))
        return static_cast<Kind>(m);
    return static_cast<Kind>(modes);
  }

  // Sample layer only: is_persistent, should_fail and throw_if_faulted.

  /// True if `sample` faults on every attempt (unrecoverable).
  [[nodiscard]] bool is_persistent(Index sample) const {
    static_assert(kSampleLayer, "only sample faults persist across retries");
    const auto op = static_cast<std::uint64_t>(sample);
    return kind(op) != Kind::kNone &&
           fault_draw(options_.seed, op, 2) < options_.persistent_fraction;
  }

  /// True if attempt `attempt` (0-based) on `sample` should fail:
  /// transient faults fail only attempt 0, persistent faults fail all.
  [[nodiscard]] bool should_fail(Index sample, int attempt) const {
    return kind(static_cast<std::uint64_t>(sample)) != Kind::kNone &&
           (attempt == 0 || is_persistent(sample));
  }

  /// Raises the structured error for (sample, attempt) when it should fail;
  /// no-op otherwise.
  void throw_if_faulted(Index sample, int attempt) const {
    if (should_fail(sample, attempt))
      throw_injected_fault(kind(static_cast<std::uint64_t>(sample)), sample);
  }

  /// The configuration (checkpoint headers hash the sample layer's to bind
  /// a resume to the fault plan of the interrupted run).
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace rsm
