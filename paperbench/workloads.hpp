// The two workloads. Each fills `report` with every end-to-end metric
// (untraced run) or every per-layer metric (traced run); see README.md.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "basis/dictionary.hpp"
#include "circuits/opamp.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "linalg/matrix.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serving.hpp"
#include "support.hpp"

namespace paperbench {

void run_sram_paper(const Args& args, Report& report);
void run_opamp_quadratic(const Args& args, Report& report);

/// A fitted model fails the run when its test error exceeds this multiple
/// of the error EXPERIMENTS.md records for its configuration.
inline constexpr double kCeilingFactor = 3.0;

/// Set-ups at the start of a run: five in an untraced run, whose setup_s
/// is their median; one in a traced run, which does not report setup_s.
[[nodiscard]] inline int setup_repeats(const Args& args) {
  return args.trace ? 1 : 5;
}

/// What the chains of one run measured.
struct ChainStats {
  Samples time_to_model_s;
  Samples fit_s;
  Samples sample_s;
  std::vector<double> test_errors;  // one per checked fit
  double path_steps = 0;            // fold-curve lengths plus final lambda
  double lambda_sum = 0;
  double design_evals = 0;          // sum of K * M
};

/// Validates a fit on the test set and records it in `stats`: test error,
/// path steps, lambda, and `train_rows` times the dictionary size in
/// design evaluations. Fails the run on a non-finite coefficient or a test
/// error above `ceiling`. Returns the validate_model error.
rsm::Real check_fit(const std::string& name, const rsm::BuildReport& fit,
                    rsm::Index train_rows, const rsm::Matrix& test_inputs,
                    std::span<const rsm::Real> test_values, double ceiling,
                    ChainStats& stats, Report& report);

/// A published model as read back from the registry.
struct PublishedModel {
  std::string name;
  std::uint32_t version = 0;
  rsm::SparseModel model;
};

/// Publishes `model` as the next version of `name`, reads it back and
/// fails the run unless the loaded model predicts the test set
/// bit-identically to `model` and its relative RMS error equals `error`
/// (the check_fit result) bit for bit. Returns the loaded model.
PublishedModel publish_checked(const std::string& name,
                               const rsm::SparseModel& model, rsm::Real error,
                               const rsm::Matrix& test_inputs,
                               std::span<const rsm::Real> test_values,
                               rsm::serve::ModelRegistry& registry,
                               Report& report);

/// The end-to-end metrics every workload reports the same way.
void report_end_to_end(const ChainStats& stats, const LoopStats& serving,
                       const Samples& setup_s, Report& report);

/// Per-layer metrics every workload derives the same way: chain counts,
/// registry and codec figures, the serving loop's unbounded figures, the
/// server's counters and the protocol probe. `serving` is the traced loop;
/// the server's threads must have exited.
void report_chain_layers(const ChainStats& stats, const LoopStats& serving,
                         const rsm::serve::ServerStats& server,
                         const ServingSession& session,
                         const rsm::serve::ModelRegistry& registry,
                         const std::vector<rsm::obs::ThreadSpanStats>& threads,
                         Report& report);

// The paper's quadratic OpAmp flow (bench/table3_quadratic_cost defaults):
// 600 screening samples, linear OMP to at most 80 terms per metric, the top
// 50 variables kept, then quadratic OMP to at most 120 terms.
inline constexpr rsm::Index kOpAmpScreen = 600;
inline constexpr rsm::Index kScreenLambda = 80;
inline constexpr rsm::Index kOpAmpTopVars = 50;
inline constexpr rsm::Index kOpAmpOmpLambda = 120;

/// Serially simulated OpAmp samples with all four metrics. A sample whose
/// DC/AC solve throws is counted in `failed` and left out.
struct OpAmpSimulated {
  rsm::Matrix inputs;
  std::vector<std::vector<rsm::Real>> values;  // [metric][row]
  rsm::Index failed = 0;
};
[[nodiscard]] OpAmpSimulated simulate_opamp(
    const rsm::circuits::OpAmpWorkload& opamp, const rsm::Matrix& inputs,
    Samples* eval_us);

/// Fit seconds and design evaluations (K*M) spent by a group of fits.
struct FitTally {
  double seconds = 0;
  double design_evals = 0;
};

/// Stage 1: linear OMP per metric; variables ranked by |coefficient| over
/// the metric's model spread; the top `top_vars` returned in ascending
/// order.
[[nodiscard]] std::vector<rsm::Index> screen_variables(
    const std::shared_ptr<const rsm::BasisDictionary>& linear,
    const OpAmpSimulated& screen, rsm::Index top_vars, FitTally& tally);

/// The chosen variable columns of `samples`.
[[nodiscard]] rsm::Matrix select_columns(const rsm::Matrix& samples,
                                         const std::vector<rsm::Index>& vars);

/// Per-layer metrics every workload derives the same way from the traced
/// span tree of its fits: CV, final fit, solver, design and self-time split
/// under bench.build_model (with the span-coverage check).
void report_fit_layers(const rsm::obs::SpanStats& root, double traced_fit_s,
                       Report& report);

/// gemv_transposed probe on the workload's own design matrix G (K x M);
/// reports linalg.scan_gbps and prints G's size against the caches.
void probe_scan(const rsm::Matrix& g, std::uint64_t seed, Report& report);

/// spice.* per-layer metrics from the dc.* span counts over `samples`
/// simulated OpAmp samples.
void report_spice_layers(const std::vector<rsm::obs::ThreadSpanStats>& threads,
                         std::size_t samples, Report& report);

/// In-process predict_batch of `model` on the first `rows` rows of
/// `inputs`, repeated for a fixed time.
struct RowRate {
  double rows = 0;
  double seconds = 0;
};
[[nodiscard]] RowRate probe_predict(const rsm::SparseModel& model,
                                    const rsm::Matrix& inputs, rsm::Index rows);

}  // namespace paperbench
