// Per-layer figures shared by the workloads: the self-time split of the
// traced fits, the chain, registry and server figures, and the G'r scan,
// protocol and in-process predict_batch probes.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string_view>

#include "linalg/blas.hpp"
#include "serve/protocol.hpp"
#include "stats/rng.hpp"
#include "workloads.hpp"

namespace paperbench {

namespace {

constexpr double kProbeSeconds = 0.3;
constexpr int kProbeMinCalls = 3;

/// Largest share of bench.build_model time that no program span covers
/// before the traced per-layer split is declared untrustworthy.
constexpr double kMaxUnattributed = 0.05;

/// Sets `metric` from the summed spans named `span`, or marks it absent
/// when the program no longer records that span.
void set_from_spans(Report& report, const char* metric, const char* span,
                    std::uint64_t count, double value) {
  if (count == 0) {
    report.absent(metric, std::string("span ") + span + " not recorded");
    return;
  }
  report.set(metric, value);
}

/// Sets `metric` to the mean duration [ms] of the spans named `span` on
/// every thread, or marks it absent when the program no longer records it.
void set_mean_ms(Report& report, const char* metric, const char* span,
                 const std::vector<rsm::obs::ThreadSpanStats>& threads) {
  const SpanTotals t = sum_spans(threads, span);
  set_from_spans(report, metric, span, t.count,
                 t.count > 0 ? 1e3 * t.total_seconds / static_cast<double>(t.count)
                             : 0.0);
}

/// server.* per-layer metrics: ServerStats counters and the mean
/// serve.eval_batch span.
void report_server_layers(const rsm::serve::ServerStats& stats,
                          const std::vector<rsm::obs::ThreadSpanStats>& threads,
                          Report& report) {
  set_mean_ms(report, "server.service_ms", "serve.eval_batch", threads);
  report.set("server.requests", static_cast<double>(stats.requests_served));
  report.set("server.shed", static_cast<double>(stats.requests_shed));
  report.set("server.request_errors", static_cast<double>(stats.request_errors));
  report.set("server.protocol_errors", static_cast<double>(stats.protocol_errors));
}

/// encode_frame and try_extract_frame throughput on the workload's own
/// request frames (payload bytes through encode, frame bytes through
/// decode).
void probe_protocol(const std::vector<std::string_view>& frames,
                    Report& report) {
  double encode_bytes = 0, encode_seconds = 0, decode_bytes = 0, decode_seconds = 0;
  const Clock::time_point start = Clock::now();
  std::string buffer;
  while (seconds_since(start) < kProbeSeconds) {
    for (const std::string_view frame : frames) {
      const std::string_view payload = frame.substr(
          rsm::serve::kFrameHeaderBytes,
          frame.size() - rsm::serve::kFrameHeaderBytes - 4);
      Clock::time_point t = Clock::now();
      const auto type = static_cast<rsm::serve::MessageType>(
          static_cast<std::uint8_t>(frame[4]));
      const std::string encoded = rsm::serve::encode_frame(type, payload);
      encode_seconds += seconds_since(t);
      encode_bytes += static_cast<double>(payload.size());
      buffer.assign(frame);
      t = Clock::now();
      const std::optional<rsm::serve::Frame> decoded =
          rsm::serve::try_extract_frame(buffer);
      decode_seconds += seconds_since(t);
      decode_bytes += static_cast<double>(frame.size());
      report.check(decoded.has_value() && decoded->payload == payload,
                   "protocol probe: frame did not round-trip");
    }
  }
  report.set("protocol.encode_mb_per_s", encode_bytes / encode_seconds / 1e6);
  report.set("protocol.decode_mb_per_s", decode_bytes / decode_seconds / 1e6);
}

}  // namespace

void report_fit_layers(const rsm::obs::SpanStats& root, double traced_fit_s,
                       Report& report) {
  std::vector<const rsm::obs::SpanStats*> fits;
  collect_spans(root, "bench.build_model", fits);
  double span_total = 0;
  std::map<std::string, double> self;
  SpanTotals design, cv, fold, final_fit, omp;
  for (const rsm::obs::SpanStats* fit : fits) {
    span_total += fit->total_seconds;
    for (const auto& [layer, seconds] : self_seconds_by_layer(*fit))
      self[layer] += seconds;
    const auto add = [&](SpanTotals& into, const char* name) {
      const SpanTotals t = sum_spans(*fit, name);
      into.count += t.count;
      into.total_seconds += t.total_seconds;
      into.max_seconds = std::max(into.max_seconds, t.max_seconds);
    };
    add(design, "pipeline.design_matrix");
    add(cv, "pipeline.cross_validation");
    add(fold, "cv.fold");
    add(final_fit, "pipeline.final_fit");
    add(omp, "omp.fit");
  }
  set_from_spans(report, "basis.design_s", "pipeline.design_matrix",
                 design.count, design.total_seconds);
  set_from_spans(report, "cv.run_s", "pipeline.cross_validation", cv.count,
                 cv.total_seconds);
  set_from_spans(report, "cv.fold_s_max", "cv.fold", fold.count,
                 fold.max_seconds);
  set_from_spans(report, "core.final_fit_s", "pipeline.final_fit",
                 final_fit.count, final_fit.total_seconds);
  set_from_spans(report, "core.omp.fit_s", "omp.fit", omp.count,
                 omp.total_seconds);
  report.set("basis.self_s", self["basis"]);
  report.set("cv.self_s", self["cv"]);
  report.set("solver.self_s", self["solver"]);
  report.set("pipeline.self_s", self["pipeline"]);
  const double unattributed = span_total > 0 ? self["bench"] / span_total : 1;
  report.set("bench.unattributed_frac", unattributed);
  std::printf("bench.build_model: %zu span nodes, %.4f s (traced fit_s "
              "%.4f s); self time basis %.4f cv %.4f solver %.4f pipeline "
              "%.4f other %.4f unattributed %.4f\n",
              fits.size(), span_total, traced_fit_s, self["basis"], self["cv"],
              self["solver"], self["pipeline"], self["other"], self["bench"]);
  report.check(unattributed <= kMaxUnattributed,
               "program spans cover only " +
                   std::to_string(100 * (1 - unattributed)) +
                   "% of bench.build_model");
  report.check(span_total >= (1 - kMaxUnattributed) * traced_fit_s &&
                   span_total <= traced_fit_s,
               "bench.build_model spans disagree with the traced fit_s");
}

void report_chain_layers(const ChainStats& stats, const LoopStats& serving,
                         const rsm::serve::ServerStats& server,
                         const ServingSession& session,
                         const rsm::serve::ModelRegistry& registry,
                         const std::vector<rsm::obs::ThreadSpanStats>& threads,
                         Report& report) {
  report.set("stats.sample_s", stats.sample_s.sum());
  report.set("basis.design_evals", stats.design_evals);
  report.set("core.path_steps", stats.path_steps);
  report.set("core.lambda",
             stats.lambda_sum / static_cast<double>(stats.test_errors.size()));
  set_mean_ms(report, "registry.save_ms", "serve.registry.save", threads);
  set_mean_ms(report, "registry.load_ms", "serve.registry.load", threads);
  double bytes = 0;
  const std::vector<rsm::serve::ModelRecord> records = registry.list();
  for (const rsm::serve::ModelRecord& r : records)
    bytes += static_cast<double>(r.size_bytes);
  report.set("codec.artifact_bytes", bytes / static_cast<double>(records.size()));
  // What a version-0 request costs the server on top of a named one.
  Samples lookup_us;
  for (int i = 0; i < 15; ++i) {
    const Clock::time_point t = Clock::now();
    (void)registry.latest_version(records.front().name);
    lookup_us.add(1e6 * seconds_since(t));
  }
  report.set("registry.lookup_us", lookup_us.median());
  std::printf("registry: %zu artifacts; latest_version p50 %.1f us\n",
              records.size(), lookup_us.median());
  report_serving_unbounded(serving, report);
  report_server_layers(server, threads, report);
  probe_protocol(session.frames(), report);
}

void probe_scan(const rsm::Matrix& g, std::uint64_t seed, Report& report) {
  rsm::Rng rng(seed);
  const std::vector<rsm::Real> r = rng.normal_vector(g.rows());
  std::vector<rsm::Real> y(static_cast<std::size_t>(g.cols()));
  rsm::gemv_transposed(g, r, y);  // warm-up
  Samples seconds;
  const Clock::time_point start = Clock::now();
  while (seconds.count() < kProbeMinCalls || seconds_since(start) < kProbeSeconds) {
    BenchSpan span("bench.scan_probe");
    const Clock::time_point t = Clock::now();
    rsm::gemv_transposed(g, r, y);
    seconds.add(seconds_since(t));
  }
  const double bytes = 8.0 * static_cast<double>(g.rows()) *
                       static_cast<double>(g.cols());
  report.set("linalg.scan_gbps", bytes / seconds.median() / 1e9);
  const CacheSizes caches = cache_sizes();
  std::printf("linalg.scan: G is %ld x %ld, computed bytes 8*K*M = %.1f MB; "
              "L2 %.1f MiB, L3 %.1f MiB (G/L3 = %.2f); %zu calls\n",
              static_cast<long>(g.rows()), static_cast<long>(g.cols()),
              bytes / 1e6, static_cast<double>(caches.l2_bytes) / 1048576.0,
              static_cast<double>(caches.l3_bytes) / 1048576.0,
              caches.l3_bytes > 0 ? bytes / static_cast<double>(caches.l3_bytes)
                                  : 0.0,
              seconds.count());
}

void report_spice_layers(const std::vector<rsm::obs::ThreadSpanStats>& threads,
                         std::size_t samples, Report& report) {
  const SpanTotals solves = sum_spans(threads, "dc.solve");
  if (solves.count == 0 || samples == 0) {
    report.absent("spice.dc_solves_per_sample", "span dc.solve not recorded");
    report.absent("spice.fallback_frac", "span dc.solve not recorded");
    return;
  }
  const double fallbacks =
      static_cast<double>(sum_spans(threads, "dc.gmin_stepping").count +
                          sum_spans(threads, "dc.source_stepping").count +
                          sum_spans(threads, "dc.pseudo_transient").count);
  const double count = static_cast<double>(solves.count);
  report.set("spice.dc_solves_per_sample", count / static_cast<double>(samples));
  report.set("spice.fallback_frac", fallbacks / count);
}

RowRate probe_predict(const rsm::SparseModel& model, const rsm::Matrix& inputs,
                      rsm::Index rows) {
  const std::span<const rsm::Real> block(
      inputs.data(), static_cast<std::size_t>(rows * inputs.cols()));
  std::vector<rsm::Real> out(static_cast<std::size_t>(rows));
  RowRate rate;
  const Clock::time_point start = Clock::now();
  while (rate.rows < kProbeMinCalls * static_cast<double>(rows) ||
         seconds_since(start) < kProbeSeconds) {
    model.predict_batch(block, rows, out);
    rate.rows += static_cast<double>(rows);
  }
  rate.seconds = seconds_since(start);
  return rate;
}

}  // namespace paperbench
