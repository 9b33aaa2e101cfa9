// paperbench: one workload of the paper's sample -> fit -> publish -> serve
// chain, from one seed, checked and measured.
//
//   paperbench --workload sram_paper|opamp_quadratic
//              --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics with tracing off; --trace 1 runs
// with spans on and prints the per-layer metrics. The last stdout line is
// the JSON result; the exit code is 0 only when every correctness check
// passed. paperbench/run.py builds this binary and calls it.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace {

using paperbench::Args;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed names against it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"time_to_model_s", "s"},
    {"fit_s", "s"},            {"test_error", "ratio"},
    {"peak_rss_mb", "MB"},     {"eval_p50_us", "us"},
    {"batch_p50_ms", "ms"},    {"served_rows_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"stats.sample_s", "s"},
    {"sram.eval_us", "us"},
    {"opamp.eval_p50_us", "us"},
    {"opamp.eval_p99_us", "us"},
    {"spice.dc_solves_per_sample", "count"},
    {"spice.fallback_frac", "ratio"},
    {"campaign.wall_s", "s"},
    {"campaign.busy_frac", "ratio"},
    {"campaign.retries", "count"},
    {"campaign.quarantined", "count"},
    {"campaign.tasks_stolen", "count"},
    {"io.checkpoint_bytes", "bytes"},
    {"basis.design_s", "s"},
    {"basis.design_evals", "count"},
    {"basis.self_s", "s"},
    {"linalg.scan_gbps", "GB/s"},
    {"cv.run_s", "s"},
    {"cv.fold_s_max", "s"},
    {"cv.self_s", "s"},
    {"core.final_fit_s", "s"},
    {"core.omp.fit_s", "s"},
    {"core.lar.fit_s", "s"},
    {"core.lar_over_omp", "ratio"},
    {"core.path_steps", "count"},
    {"core.lambda", "count"},
    {"solver.self_s", "s"},
    {"pipeline.self_s", "s"},
    {"bench.unattributed_frac", "ratio"},
    {"model.predict_rows_per_s", "1/s"},
    {"eval_p99_us", "us"},
    {"batch_p99_ms", "ms"},
    {"protocol.encode_mb_per_s", "MB/s"},
    {"protocol.decode_mb_per_s", "MB/s"},
    {"server.service_ms", "ms"},
    {"registry.save_ms", "ms"},
    {"registry.load_ms", "ms"},
    {"registry.lookup_us", "us"},
    {"codec.artifact_bytes", "bytes"},
    {"server.requests", "count"},
    {"server.shed", "count"},
    {"server.request_errors", "count"},
    {"server.protocol_errors", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"failed_frac", "ratio"},
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "paperbench: %s\nusage: paperbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n",
               message.c_str());
  std::exit(64);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty() || !have_seed) usage_error("--workload and --seed are required");
  if (!(args.seconds > 0)) usage_error("--seconds must be positive");
  if (args.workdir.empty())
    args.workdir = ".bench_build/paperbench-work/" + args.workload;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Freed memory stays in this process's heap: no mmap for large blocks, no
  // trimming. Every chain frees and reallocates its large matrices (G and
  // each CV fold's copy of it). Handed back to the kernel, that memory goes
  // on to the host through the virtual machine's free-page reporting and
  // must be faulted in again at a cost that follows the host's load: a
  // quarter of a sram_paper chain, and runs of the same code 35 % apart.
  // Kept, every chain after the first reuses mapped pages. peak_rss_mb
  // therefore counts the heap's free space too.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  namespace fs = std::filesystem;
  fs::remove_all(args.workdir);
  fs::create_directories(args.workdir);

  // Tracing stays off except for the traced half of a --trace 1 run.
  rsm::obs::set_tracing_enabled(false);
  paperbench::Report report;
  try {
    if (args.workload == "sram_paper") {
      paperbench::run_sram_paper(args, report);
    } else if (args.workload == "opamp_quadratic") {
      paperbench::run_opamp_quadratic(args, report);
    } else {
      usage_error("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paperbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 3;
  }
  rsm::obs::set_tracing_enabled(false);
  if (args.trace && !rsm::obs::trace_export_path().empty()) {
    report.check(rsm::obs::export_trace_if_configured("paperbench." +
                                                      args.workload),
                 "Chrome trace export to " + rsm::obs::trace_export_path() +
                     " failed");
  }

  std::vector<std::string> names;
  std::vector<std::string> units;
  if (args.trace) {
    report.set("failed_frac", report.failed_frac());
    for (const auto& m : kPerLayer) names.push_back(m.name), units.push_back(m.unit);
  } else {
    for (const auto& m : kEndToEnd) names.push_back(m.name), units.push_back(m.unit);
  }
  const int code = report.print(args, names, units);
  fs::remove_all(args.workdir);
  return code;
}
