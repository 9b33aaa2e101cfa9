// The serving phase of every round: the models a chain published, behind a
// ModelServer on its own thread, and a closed loop on one AF_UNIX
// connection with one request outstanding, because the server's callers
// (yield and worst-case loops) wait for every reply. A loop sends either
// single-point eval frames or eval_batch frames, cycling over the models.
// After a chain publishes new versions, the next loops name them.
// Threads: the benchmark's (client), the server's event loop and its
// kServerThreads pool workers - four in all. The client and the event loop
// share one CPU (see ServingSession).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "support.hpp"
#include "util/cancellation.hpp"

namespace paperbench {

inline constexpr int kServerThreads = 2;

/// A published model behind the server, its request frames and the reply
/// in-process predict / predict_batch gives to each.
struct Served {
  std::string name;
  std::uint32_t version = 0;
  rsm::SparseModel model;
  std::vector<std::string> eval_frames;
  std::vector<std::string> batch_frames;
  std::vector<rsm::Real> eval_expected;                // per eval frame
  std::vector<std::vector<rsm::Real>> batch_expected;  // per batch frame
};

/// Encodes eval and eval_batch request frames for `version` of `name`
/// (batches of `batch_rows` rows) at standard-normal points drawn from
/// `seed`, with `model`'s expected replies. The frames name the version
/// rather than ask for the latest (version 0): a version-0 request makes
/// the server list the registry directory (ModelRegistry::latest_version),
/// which grows by every publish. On opamp_quadratic that listing took 70 %
/// of an eval's round trip and spread the eval p50 by 20 % over ten runs,
/// against 12 % with named versions; registry.lookup_us tracks it.
[[nodiscard]] Served make_served(std::string name, std::uint32_t version,
                                 rsm::SparseModel model, std::uint64_t seed,
                                 rsm::Index batch_rows);

/// One loop's samples and counts, or several loops' pooled.
struct LoopStats {
  Samples eval_us;
  Samples batch_ms;
  // The p50 of every loop that sent eval (batch) frames.
  Samples loop_eval_p50_us;
  Samples loop_batch_p50_ms;
  double rows = 0;
  double seconds = 0;
  std::int64_t sent = 0;
  std::int64_t failed = 0;  // error or shed replies
  std::int64_t mismatches = 0;

  /// Pools another loop's samples and counts into this one.
  void add(const LoopStats& other);
};

/// What a loop sends.
enum class Traffic { kEval, kBatches };

/// A ModelServer on its own thread, whose event loop runs on `cpu` (any
/// CPU when negative); stop() drains it and joins.
class ServerThread {
 public:
  ServerThread(const std::string& socket_path, const std::string& registry_root,
               int cpu);
  ~ServerThread() { stop(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  void stop();
  /// Valid after stop().
  [[nodiscard]] const rsm::serve::ServerStats& stats() const {
    return server_->stats();
  }
  /// What run() threw, if anything.
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  rsm::CancellationSource cancel_;
  std::unique_ptr<rsm::serve::ModelServer> server_;
  std::string error_;
  std::thread thread_;  // last: started after the members it uses
};

/// Starts the server on `registry`, in which every model of `models` must
/// be published, and connects the client. The caller keeps `models`
/// current: after it publishes new versions it replaces the entries
/// before the next run().
///
/// The client thread (while a loop runs) and the server's
/// event loop share the highest CPU this process may use, so an eval's
/// round trip costs two context switches on that CPU. Left to the
/// scheduler, the two threads sit on one CPU or on two from run to run,
/// and the cross-CPU wake-ups of a shared virtual machine cost what the
/// host's load makes them: over six opamp_quadratic seeds run both ways
/// (with version-0 requests), eval p50 read 33-60 us unpinned and
/// 32-40 us pinned, batch p50 8.3-10.0 ms and 8.1-8.8 ms. The pool
/// workers that compute a batch's chunks run on the other CPUs.
class ServingSession {
 public:
  ServingSession(std::vector<Served>& models,
                 rsm::serve::ModelRegistry& registry,
                 const std::string& workdir);
  ~ServingSession();
  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  /// Runs the closed loop for `seconds` with `traffic`.
  [[nodiscard]] LoopStats run(double seconds, Traffic traffic);

  /// Stops the server, adds the loops' operations to `report` and checks
  /// that no reply differed and the server logged no error. Returns the
  /// server's counters.
  const rsm::serve::ServerStats& finish(Report& report);

  /// The request frames, for the protocol probe.
  [[nodiscard]] std::vector<std::string_view> frames() const;

 private:
  struct Connection;
  std::vector<Served>& models_;
  const int cpu_;
  std::unique_ptr<ServerThread> server_;
  std::unique_ptr<Connection> connection_;
  LoopStats total_;
};

/// eval_p50_us and batch_p50_ms, the mean of the pooled loops' p50s, so
/// that each round weighs the same; and served_rows_per_s over all loops.
/// Prints a line with the sample counts and the unbounded serving figures.
void report_serving(const LoopStats& loop, Report& report);

/// The serving figures too noisy on a shared host to bound: eval_p99_us
/// and batch_p99_ms (per-layer view).
void report_serving_unbounded(const LoopStats& loop, Report& report);

}  // namespace paperbench
