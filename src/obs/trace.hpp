// Hierarchical scoped trace spans: where wall-time goes inside the solvers.
//
//   void OmpSolver::fit_path(...) {
//     RSM_TRACE_SPAN("omp.fit");
//     for (...) {
//       RSM_TRACE_SPAN("omp.iteration");
//       ...
//     }
//   }
//
// Every lexical span site accumulates into a node of a per-thread tree keyed
// by the nesting path of span names; a node carries call count, total/min/max
// wall seconds, and total thread-CPU seconds. `trace_snapshot()` merges the
// calling thread's live tree with the trees of already-exited threads and
// returns a plain value-type tree for reporting (obs/report.hpp serializes
// it into BENCH_*.json).
//
// Cost model: a span on the hot path is two clock reads plus a pointer-keyed
// child lookup (~100 ns). Tracing can be disabled two ways:
//   * runtime — set_tracing_enabled(false) (or RSM_OBS_LEVEL=0): each span
//     site is a single relaxed atomic load;
//   * compile time — configure with -DRSM_TRACING=OFF: RSM_TRACE_SPAN
//     expands to nothing and the tracer cannot be re-enabled.
//
// Span names must be string literals (or otherwise outlive the process):
// nodes store the pointer and compare by pointer first, content second.
// Naming convention: lowercase dotted "subsystem.action" ("omp.fit",
// "cv.fold", "dc.solve") — see docs/observability.md.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rsm {
class ThreadPool;
}

namespace rsm::obs {

/// Compile-time gate. CMake's -DRSM_TRACING=OFF defines
/// RSM_TRACING_ENABLED=0; standalone inclusion defaults to on.
#ifndef RSM_TRACING_ENABLED
#define RSM_TRACING_ENABLED 1
#endif

/// True when span sites were compiled in.
inline constexpr bool kTracingCompiled = RSM_TRACING_ENABLED != 0;

/// Value-type snapshot of one span-tree node.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0;
  double min_seconds = 0;
  double max_seconds = 0;
  double cpu_seconds = 0;
  std::vector<SpanStats> children;

  /// Depth-first sum of `total_seconds` over this node and all descendants
  /// whose name equals `span_name`.
  [[nodiscard]] double total_named(const std::string& span_name) const;

  /// First direct child with the given name; nullptr when absent.
  [[nodiscard]] const SpanStats* child(const std::string& child_name) const;
};

/// Runtime gate. Defaults to on (when compiled in); the first query applies
/// the RSM_OBS_LEVEL environment override (obs/env.hpp).
[[nodiscard]] bool tracing_enabled();
void set_tracing_enabled(bool enabled);

/// Merged snapshot: the synthetic root ("") aggregates the calling thread's
/// live tree and the retired trees of threads that have exited. Trees of
/// *other still-running* threads are not visible until those threads exit —
/// this keeps span recording lock-free on the hot path.
[[nodiscard]] SpanStats trace_snapshot();

/// One thread's span tree, tagged with a small stable ordinal (1, 2, ...)
/// assigned the first time the thread records a span. Ordinals — not OS
/// thread ids — keep exported traces (obs/trace_export.hpp) deterministic
/// across runs with the same span structure.
struct ThreadSpanStats {
  std::uint64_t thread_ordinal = 0;
  SpanStats tree;  // synthetic root ""
};

/// Per-thread snapshot: the retired trees of exited threads plus the calling
/// thread's live tree (when non-empty), ordered by ordinal. The same
/// visibility caveat as trace_snapshot() applies to still-running threads.
[[nodiscard]] std::vector<ThreadSpanStats> trace_snapshot_threads();

/// Discards all accumulated span statistics (calling thread + retired).
void reset_tracing();

/// Runs body(0), ..., body(count - 1) as the parts of pool->parallel_for,
/// or in order on the calling thread when pool is nullptr. A pool worker
/// never exits, so spans it kept in its own tree would never reach a
/// snapshot: a part that runs on another thread records into a detached
/// tree instead, and once every part has finished those trees are merged
/// under the caller's current span. Totals under that span then sum over
/// threads and can exceed its wall time.
void traced_parallel_for(ThreadPool* pool, std::size_t count,
                         const std::function<void(std::size_t)>& body);

namespace detail {

struct SpanNode;

/// Enters a span: finds or creates the child `name` of the calling thread's
/// current node and makes it current. Returns the entered node.
SpanNode* span_push(const char* name);

/// Leaves `node`, folding the measured durations into its statistics and
/// restoring its parent as current.
void span_pop(SpanNode* node, double wall_seconds, double cpu_seconds);

/// Thread-CPU clock read used by spans (delegates to ThreadCpuTimer::now).
[[nodiscard]] double cpu_now();

}  // namespace detail

/// RAII span. Prefer the RSM_TRACE_SPAN macro, which compiles away under
/// -DRSM_TRACING=OFF.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (!tracing_enabled()) return;
    node_ = detail::span_push(name);
    cpu_start_ = detail::cpu_now();
    wall_start_ = std::chrono::steady_clock::now();
  }

  ~ScopedSpan() {
    if (node_ == nullptr) return;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start_)
            .count();
    detail::span_pop(node_, wall, detail::cpu_now() - cpu_start_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  detail::SpanNode* node_ = nullptr;
  std::chrono::steady_clock::time_point wall_start_;
  double cpu_start_ = 0;
};

}  // namespace rsm::obs

#define RSM_OBS_CONCAT_INNER(a, b) a##b
#define RSM_OBS_CONCAT(a, b) RSM_OBS_CONCAT_INNER(a, b)

#if RSM_TRACING_ENABLED
/// Opens a trace span covering the rest of the enclosing scope.
#define RSM_TRACE_SPAN(name) \
  ::rsm::obs::ScopedSpan RSM_OBS_CONCAT(rsm_trace_span_, __LINE__)(name)
#else
#define RSM_TRACE_SPAN(name) static_cast<void>(0)
#endif
