// The model server: fitted models behind a local socket.
//
// A single-threaded poll(2) event loop on an AF_UNIX stream socket accepts
// connections, extracts protocol frames (serve/protocol.hpp), and answers
// eval / eval_batch / yield / worst_case / list_models / reload requests
// against a ModelRegistry. Large batches are split into chunks that run on
// the server's rsm::ThreadPool and the event-loop thread, so one
// million-row request uses every core; requests themselves are handled in
// arrival order, which keeps responses on one connection ordered without
// any per-connection queueing.
//
// Overload and misbehaving-peer defenses (all per-connection — one bad
// client never degrades the others):
//
//   admission control  Every extracted frame is either *admitted* or *shed*.
//                      A poll cycle admits at most max_inflight_requests
//                      frames total and max_pending_per_connection frames
//                      per connection; the excess is answered immediately
//                      with a retryable kOverloaded error frame carrying a
//                      retry-after hint, instead of queueing unboundedly.
//   I/O deadlines      Sockets are non-blocking and responses are buffered
//                      per connection, so a peer that stops reading can
//                      never park the event loop in send(). A connection
//                      that leaves a frame unfinished past the read timeout
//                      (slow loris) is answered with kConnectionTimeout and
//                      closed; one that will not drain its responses past
//                      the write timeout is closed outright; one that sits
//                      idle past the idle timeout is quietly reaped.
//   hot reload         A kReloadRequest frame — or, when reload_probe
//                      _seconds is set, a cheap registry state-fingerprint
//                      probe — re-resolves the latest version of every
//                      served model and swaps the cache atomically between
//                      requests (handling is synchronous, so no in-flight
//                      request ever observes the swap). A corrupt new
//                      version fails closed: the codec's CRC rejects it,
//                      the version is remembered as bad, and the server
//                      keeps serving the last-good model.
//
// Error containment mirrors the taxonomy: a structurally invalid frame
// (ProtocolError) earns an error frame and a connection close — after a
// framing error the stream offset is unknowable; a well-framed but bad
// request (unknown model, malformed payload, version mismatch) earns an
// error frame carrying the structured ErrorCode and the connection lives
// on. The serving loop never crashes on client input.
//
// Shutdown is the repo's standard cooperative drain: run() polls the
// cancellation token (wired to SIGINT/SIGTERM by the caller via
// util/signals.hpp); on cancellation it stops accepting, answers every
// complete frame already received (admission control is bypassed — a drain
// must not shed), flushes responses, and returns — no in-flight response
// is dropped.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "core/model.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/cancellation.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace rsm::serve {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX listening socket (unlinked and rebound
  /// on startup, removed on shutdown).
  std::string socket_path;

  /// Registry directory the server loads models from.
  std::string registry_root;

  /// Pool worker threads for batched evaluation, which the event-loop
  /// thread joins; 0 = auto (RSM_THREADS or hardware concurrency).
  int num_threads = 0;

  /// Rows per part when splitting an eval_batch request.
  Index batch_chunk = 2048;

  /// Drain-and-exit signal; poll cadence bounds shutdown latency.
  CancellationToken cancel;
  double poll_interval_seconds = 0.05;

  /// Admission control: at most this many frames are admitted per poll
  /// cycle across all connections (0 = unlimited); the rest are shed with
  /// a kOverloaded error frame.
  int max_inflight_requests = 256;

  /// Per-connection admission cap per poll cycle (0 = unlimited): one
  /// firehose client cannot consume the whole global budget.
  int max_pending_per_connection = 64;

  /// Backoff hint carried in every kOverloaded error frame.
  std::uint32_t retry_after_ms = 50;

  /// A connection that holds a partial frame longer than this is answered
  /// kConnectionTimeout and closed (0 = no read deadline).
  double read_timeout_seconds = 30.0;

  /// A connection that will not drain its buffered responses within this
  /// is closed outright — it is not reading, so an error frame would only
  /// grow the buffer (0 = no write deadline).
  double write_timeout_seconds = 30.0;

  /// A connection with no traffic in either direction for this long is
  /// quietly closed (0 = never reap).
  double idle_timeout_seconds = 0;

  /// When set, the registry's state fingerprint is probed at this cadence
  /// and a change triggers the same swap as an explicit reload frame
  /// (0 = reload only on request).
  double reload_probe_seconds = 0;
};

/// Lifetime counters, readable after run() returns. Every extracted frame
/// is counted in requests_served and exactly one of requests_admitted /
/// requests_shed — the schema validator holds reports to that invariant.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_shed = 0;
  std::uint64_t evals = 0;        // single-point evaluations answered
  std::uint64_t batch_rows = 0;   // rows answered through eval_batch
  std::uint64_t protocol_errors = 0;
  std::uint64_t request_errors = 0;  // structured errors returned to clients
  std::uint64_t connections_timed_out = 0;  // read/write deadline expiries
  std::uint64_t idle_closed = 0;            // reaped by the idle timeout
  std::uint64_t reloads = 0;           // model versions hot-swapped in
  std::uint64_t reload_failures = 0;   // corrupt versions kept out
};

class ModelServer {
 public:
  /// Binds and listens immediately (so a caller that forks a client after
  /// construction never races the listener); throws IoError on failure.
  explicit ModelServer(ServerOptions options);
  ~ModelServer();

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// Serves until the cancellation token fires, then drains: answers every
  /// fully received frame, flushes, closes, and returns.
  void run();

  /// One event-loop cycle: poll (up to `timeout_ms`), accept, read, answer,
  /// flush, enforce deadlines, reap. run() is a loop of these; benches and
  /// tests call it directly to drive the server deterministically without
  /// a second thread.
  void poll_once(int timeout_ms);

  /// Adopts an already-connected stream socket (e.g. one end of a
  /// socketpair) as a client connection. With poll_once this lets a bench
  /// script exact request/shed/timeout counts with no listener race.
  void adopt_connection(int fd);

  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const ModelRegistry& registry() const { return registry_; }

 private:
  struct Connection;

  /// Loads (name, version) through a cache keyed by resolved version; the
  /// registry's durable load path runs once per distinct artifact. For
  /// version-0 (latest) requests, a corrupt latest falls back to the
  /// last-good version; an explicitly pinned version never falls back.
  const SparseModel& model_for(const std::string& name, std::uint32_t version);

  /// Re-resolves the latest version of every model served so far, swapping
  /// each changed one into the cache; returns {reloaded, failed}.
  std::pair<std::uint32_t, std::uint32_t> reload_models();

  [[nodiscard]] std::string handle_request(const FrameView& frame);
  [[nodiscard]] std::string handle_eval(std::string_view payload);
  [[nodiscard]] std::string handle_eval_batch(std::string_view payload);
  [[nodiscard]] std::string handle_yield(std::string_view payload);
  [[nodiscard]] std::string handle_worst_case(std::string_view payload);
  [[nodiscard]] std::string handle_list_models();
  [[nodiscard]] std::string handle_reload(std::string_view payload);

  [[nodiscard]] std::string error_frame(ErrorCode code,
                                        const std::string& message) const;

  void accept_ready();
  void service_connection(Connection& connection);
  void drain_connection(Connection& connection);
  /// Appends a frame to the connection's send buffer and flushes
  /// opportunistically.
  void queue_frame(Connection& connection, std::string frame);
  /// Sends as much buffered output as the socket accepts without blocking;
  /// arms/disarms the write deadline and completes close_after_flush.
  void flush_connection(Connection& connection);
  void enforce_deadlines(Connection& connection);
  void probe_registry();

  ServerOptions options_;
  ModelRegistry registry_;
  ThreadPool pool_;
  int listen_fd_ = -1;
  std::map<int, std::unique_ptr<Connection>> connections_;
  std::map<std::pair<std::string, std::uint32_t>, SparseModel> model_cache_;
  /// name -> version currently served for version-0 requests (the reload
  /// swap point and the corrupt-version fallback target).
  std::map<std::string, std::uint32_t> latest_good_;
  /// Versions that failed to load (CRC/codec rejection): remembered so the
  /// fallback path does not re-read the corrupt file on every request.
  std::set<std::pair<std::string, std::uint32_t>> bad_versions_;
  std::uint64_t registry_fingerprint_ = 0;
  Deadline reload_probe_deadline_;
  int admitted_this_cycle_ = 0;
  bool draining_ = false;
  ServerStats stats_;
};

}  // namespace rsm::serve
