// Shared pieces of the paper-chain benchmark: run arguments, seed streams,
// latency samples, span-tree arithmetic and the result printer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace paperbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // registries, checkpoints and the server socket
};

/// Independent input streams from one --seed: the same (seed, stream) pair
/// always gives the same value (splitmix64 of the pair).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Timing samples; quantiles use linear interpolation between order
/// statistics.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void add(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double sum() const;
  /// sum() over count(); 0 without samples.
  [[nodiscard]] double mean() const {
    return values_.empty() ? 0 : sum() / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
};

/// Scope span recorded from the benchmark's own files around each call into
/// a layer ("bench.build_model", ...). Inert while tracing is off.
using BenchSpan = rsm::obs::ScopedSpan;

/// Count, total and largest single call of every span with one name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_seconds = 0;
  double max_seconds = 0;
};
[[nodiscard]] SpanTotals sum_spans(const rsm::obs::SpanStats& tree,
                                   std::string_view name);
[[nodiscard]] SpanTotals sum_spans(
    const std::vector<rsm::obs::ThreadSpanStats>& threads,
    std::string_view name);

/// Self time (span minus its child spans) of every node below `node`,
/// summed by layer: basis, cv, solver, pipeline, and "bench" for the
/// benchmark span's own remainder.
[[nodiscard]] std::map<std::string, double> self_seconds_by_layer(
    const rsm::obs::SpanStats& node);

/// Every node named `name` in the tree, outermost first.
void collect_spans(const rsm::obs::SpanStats& tree, std::string_view name,
                   std::vector<const rsm::obs::SpanStats*>& out);

/// Peak resident set of this process [MB], from getrusage.
[[nodiscard]] double peak_rss_mb();

/// Last-level cache sizes as the C library reports them (0 when unknown).
struct CacheSizes {
  long l2_bytes = 0;
  long l3_bytes = 0;
};
[[nodiscard]] CacheSizes cache_sizes();

/// Bitwise equality of two prediction vectors.
[[nodiscard]] bool bit_identical(std::span<const double> a,
                                 std::span<const double> b);

/// The run's metrics, correctness verdict and failure counts. Metric names
/// must be ones main.cpp lists; print() emits exactly the requested list.
class Report {
 public:
  void set(std::string_view name, double value);
  /// A metric whose layer this workload does not run: printed as 0 with
  /// the reason on its own line.
  void absent(std::string_view name, std::string reason);
  /// Correctness gate: a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  void add_operations(std::int64_t attempted, std::int64_t failed);
  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  /// failed() over attempted(); 0 before any operation.
  [[nodiscard]] double failed_frac() const {
    return attempted_ > 0 ? static_cast<double>(failed_) /
                                static_cast<double>(attempted_)
                          : 0.0;
  }

  /// Prints the human-readable lines, then the one-line JSON result with
  /// exactly `names` as metrics. Returns the process exit code.
  int print(const Args& args, std::span<const std::string> names,
            std::span<const std::string> units) const;

 private:
  std::map<std::string, double, std::less<>> values_;
  std::map<std::string, std::string, std::less<>> absent_;
  std::vector<std::string> failures_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

}  // namespace paperbench
