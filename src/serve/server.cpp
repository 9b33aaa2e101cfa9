#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <vector>

#include "core/worst_case.hpp"
#include "core/yield.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/model_codec.hpp"
#include "serve/wire.hpp"
#include "stats/rng.hpp"
#include "util/errors.hpp"

namespace rsm::serve {
namespace {

/// Monte-Carlo budget cap for yield requests: a client must not be able to
/// park the serving loop on one request for minutes.
constexpr std::uint64_t kMaxYieldSamples = 100'000'000;

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Rethrows WireReader truncation (IoError) as the protocol-layer error a
/// malformed-but-well-framed request deserves.
template <typename Fn>
auto parse_payload(const char* request_name, Fn&& fn) {
  try {
    return fn();
  } catch (const IoError& e) {
    std::ostringstream os;
    os << "malformed " << request_name << " payload: " << e.what();
    throw ProtocolError(os.str());
  }
}

}  // namespace

struct ModelServer::Connection {
  int fd = -1;
  std::string rx;
  std::string tx;
  bool closed = false;
  /// Stream is done (framing error, read timeout): stop reading, flush the
  /// buffered responses — the error frame must reach the peer — then close.
  bool close_after_flush = false;
  int admitted_this_cycle = 0;
  /// Armed while rx holds a partial frame (the slow-loris detector).
  Deadline read_deadline;
  /// Armed while tx holds unsent bytes (the stalled-reader detector).
  Deadline write_deadline;
  /// Armed between requests when the idle reaper is on.
  Deadline idle_deadline;
};

ModelServer::ModelServer(ServerOptions options)
    : options_(std::move(options)),
      registry_(options_.registry_root),
      pool_(ThreadPool::Options{options_.num_threads, 256}) {
  RSM_CHECK_MSG(!options_.socket_path.empty(),
                "server requires a socket path");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path))
    throw IoError("socket path '" + options_.socket_path +
                  "' exceeds AF_UNIX length limit");
  std::copy(options_.socket_path.begin(), options_.socket_path.end(),
            addr.sun_path);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket()");
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("bind('" + options_.socket_path + "')");
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("listen('" + options_.socket_path + "')");
  }
  set_nonblocking(listen_fd_);
  registry_fingerprint_ = registry_.state_fingerprint();
}

ModelServer::~ModelServer() {
  for (auto& [fd, connection] : connections_) ::close(fd);
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
}

const SparseModel& ModelServer::model_for(const std::string& name,
                                          std::uint32_t version) {
  std::uint32_t resolved = version;
  const bool want_latest = resolved == 0;
  if (want_latest) {
    resolved = registry_.latest_version(name);
    if (resolved == 0)
      throw IoError("registry: no versions of model '" + name + "'");
  }
  const auto key = std::make_pair(name, resolved);

  if (want_latest && bad_versions_.count(key) != 0) {
    // Known-corrupt latest: fail closed to the last-good version without
    // re-reading the bad file on every request.
    const auto good = latest_good_.find(name);
    if (good != latest_good_.end()) {
      const auto good_it =
          model_cache_.find(std::make_pair(name, good->second));
      if (good_it != model_cache_.end()) return good_it->second;
    }
    throw IoError("registry: model '" + name + "' v" +
                  std::to_string(resolved) +
                  " is corrupt and no last-good version is cached");
  }

  auto it = model_cache_.find(key);
  if (it == model_cache_.end()) {
    try {
      it = model_cache_.emplace(key, registry_.load(name, resolved)).first;
    } catch (const StructuredError&) {
      if (!want_latest) throw;  // a pinned version never falls back
      bad_versions_.insert(key);
      ++stats_.reload_failures;
      obs::metrics().counter("serve.reload_failures").increment();
      const auto good = latest_good_.find(name);
      if (good == latest_good_.end()) throw;
      const auto good_it =
          model_cache_.find(std::make_pair(name, good->second));
      if (good_it == model_cache_.end()) throw;
      return good_it->second;
    }
  }
  if (want_latest) latest_good_[name] = resolved;
  return it->second;
}

std::pair<std::uint32_t, std::uint32_t> ModelServer::reload_models() {
  RSM_TRACE_SPAN("serve.reload");
  // A reload is a fresh look at the registry: forget prior corruption
  // verdicts so a republished (fixed) version gets another chance.
  bad_versions_.clear();
  std::uint32_t reloaded = 0;
  std::uint32_t failed = 0;
  for (auto& [name, current] : latest_good_) {
    const std::uint32_t latest = registry_.latest_version(name);
    if (latest == 0 || latest == current) continue;
    try {
      SparseModel model = registry_.load(name, latest);
      model_cache_.insert_or_assign(std::make_pair(name, latest),
                                    std::move(model));
      const std::string& swapped = name;
      std::erase_if(model_cache_, [&](const auto& entry) {
        return entry.first.first == swapped && entry.first.second != latest;
      });
      current = latest;
      ++reloaded;
      ++stats_.reloads;
      obs::metrics().counter("serve.reloads").increment();
    } catch (const StructuredError&) {
      // Fail closed: remember the version as bad and keep serving
      // `current` — the registry publish was torn or corrupt.
      bad_versions_.insert(std::make_pair(name, latest));
      ++failed;
      ++stats_.reload_failures;
      obs::metrics().counter("serve.reload_failures").increment();
    }
  }
  registry_fingerprint_ = registry_.state_fingerprint();
  return {reloaded, failed};
}

std::string ModelServer::handle_eval(const std::string& payload) {
  RSM_TRACE_SPAN("serve.eval");
  struct Parsed {
    std::string name;
    std::uint32_t version;
    std::vector<Real> sample;
  };
  const Parsed parsed = parse_payload("eval", [&] {
    WireReader in(payload, "eval request");
    Parsed p;
    p.name = in.bytes();
    p.version = in.u32();
    const std::uint32_t n = in.u32();
    p.sample.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) p.sample.push_back(in.real());
    in.expect_done();
    return p;
  });
  const SparseModel& model = model_for(parsed.name, parsed.version);
  if (static_cast<Index>(parsed.sample.size()) !=
      model.dictionary().num_variables()) {
    std::ostringstream os;
    os << "eval: sample has " << parsed.sample.size() << " values but model '"
       << parsed.name << "' has " << model.dictionary().num_variables()
       << " variables";
    throw ProtocolError(os.str());
  }
  const Real value = model.predict(parsed.sample);
  ++stats_.evals;
  obs::metrics().counter("serve.evals").increment();
  std::string response;
  put_real(response, value);
  return encode_frame(MessageType::kEvalResponse, response);
}

std::string ModelServer::handle_eval_batch(const std::string& payload) {
  RSM_TRACE_SPAN("serve.eval_batch");
  struct Parsed {
    std::string name;
    std::uint32_t version;
    Index rows;
    Index cols;
    std::vector<Real> samples;
  };
  const Parsed parsed = parse_payload("eval_batch", [&] {
    WireReader in(payload, "eval_batch request");
    Parsed p;
    p.name = in.bytes();
    p.version = in.u32();
    p.rows = static_cast<Index>(in.u32());
    p.cols = static_cast<Index>(in.u32());
    p.samples.reserve(static_cast<std::size_t>(p.rows * p.cols));
    for (Index i = 0; i < p.rows * p.cols; ++i)
      p.samples.push_back(in.real());
    in.expect_done();
    return p;
  });
  const SparseModel& model = model_for(parsed.name, parsed.version);
  if (parsed.cols != model.dictionary().num_variables()) {
    std::ostringstream os;
    os << "eval_batch: rows have " << parsed.cols << " values but model '"
       << parsed.name << "' has " << model.dictionary().num_variables()
       << " variables";
    throw ProtocolError(os.str());
  }

  std::vector<Real> out(static_cast<std::size_t>(parsed.rows));
  const Index chunk = std::max<Index>(Index{1}, options_.batch_chunk);
  if (parsed.rows <= chunk) {
    model.predict_batch(parsed.samples, parsed.rows, out);
  } else {
    // Fan the request across the pool and this thread in `chunk`-row
    // slices; each writes a disjoint range of `out`. A chunk that throws
    // fails the whole request through the error frame below.
    const Index chunks = (parsed.rows + chunk - 1) / chunk;
    pool_.parallel_for(static_cast<std::size_t>(chunks), [&](std::size_t c) {
      const Index r0 = static_cast<Index>(c) * chunk;
      const Index nb = std::min(chunk, parsed.rows - r0);
      const std::size_t offset = static_cast<std::size_t>(r0 * parsed.cols);
      model.predict_batch(
          std::span<const Real>(parsed.samples.data() + offset,
                                static_cast<std::size_t>(nb * parsed.cols)),
          nb, std::span<Real>(out.data() + r0, static_cast<std::size_t>(nb)));
    });
  }
  stats_.batch_rows += static_cast<std::uint64_t>(parsed.rows);
  obs::metrics().counter("serve.batch_rows").increment(parsed.rows);

  std::string response;
  put_u32(response, static_cast<std::uint32_t>(parsed.rows));
  for (const Real v : out) put_real(response, v);
  return encode_frame(MessageType::kEvalBatchResponse, response);
}

std::string ModelServer::handle_yield(const std::string& payload) {
  RSM_TRACE_SPAN("serve.yield");
  struct Parsed {
    std::string name;
    std::uint32_t version;
    Specification spec;
    std::uint64_t num_samples;
    std::uint64_t seed;
  };
  const Parsed parsed = parse_payload("yield", [&] {
    WireReader in(payload, "yield request");
    Parsed p;
    p.name = in.bytes();
    p.version = in.u32();
    p.spec.lower = in.real();
    p.spec.upper = in.real();
    p.num_samples = in.u64();
    p.seed = in.u64();
    in.expect_done();
    return p;
  });
  if (parsed.num_samples == 0 || parsed.num_samples > kMaxYieldSamples) {
    std::ostringstream os;
    os << "yield: num_samples " << parsed.num_samples
       << " outside [1, " << kMaxYieldSamples << "]";
    throw ProtocolError(os.str());
  }
  const SparseModel& model = model_for(parsed.name, parsed.version);
  Rng rng(parsed.seed);
  const YieldResult result = estimate_yield(
      model, parsed.spec, static_cast<Index>(parsed.num_samples), rng);
  std::string response;
  put_real(response, result.yield);
  put_real(response, result.standard_error);
  put_u64(response, static_cast<std::uint64_t>(result.num_samples));
  put_u64(response, static_cast<std::uint64_t>(result.num_failures));
  return encode_frame(MessageType::kYieldResponse, response);
}

std::string ModelServer::handle_worst_case(const std::string& payload) {
  RSM_TRACE_SPAN("serve.worst_case");
  struct Parsed {
    std::string name;
    std::uint32_t version;
    Real radius;
    bool maximize;
  };
  const Parsed parsed = parse_payload("worst_case", [&] {
    WireReader in(payload, "worst_case request");
    Parsed p;
    p.name = in.bytes();
    p.version = in.u32();
    p.radius = in.real();
    p.maximize = in.u8() != 0;
    in.expect_done();
    return p;
  });
  if (!(parsed.radius > 0) || parsed.radius > Real{100})
    throw ProtocolError("worst_case: radius outside (0, 100] sigma");
  const SparseModel& model = model_for(parsed.name, parsed.version);
  WorstCaseOptions wc_options;
  wc_options.radius = parsed.radius;
  wc_options.maximize = parsed.maximize;
  const WorstCaseResult result = find_worst_case(model, wc_options);
  std::string response;
  put_real(response, result.value);
  put_real(response, result.sigma_distance);
  put_u32(response, static_cast<std::uint32_t>(result.iterations));
  put_u8(response, result.converged ? 1 : 0);
  put_u32(response, static_cast<std::uint32_t>(result.corner.size()));
  for (const Real v : result.corner) put_real(response, v);
  return encode_frame(MessageType::kWorstCaseResponse, response);
}

std::string ModelServer::handle_list_models() {
  RSM_TRACE_SPAN("serve.list_models");
  const std::vector<ModelRecord> records = registry_.list();
  std::string response;
  put_u32(response, static_cast<std::uint32_t>(records.size()));
  for (const ModelRecord& r : records) {
    put_bytes(response, r.name);
    put_u32(response, r.version);
    put_u64(response, r.fingerprint);
    put_u32(response, static_cast<std::uint32_t>(r.num_variables));
    put_u32(response, static_cast<std::uint32_t>(r.num_terms));
  }
  return encode_frame(MessageType::kListModelsResponse, response);
}

std::string ModelServer::handle_reload(const std::string& payload) {
  if (!payload.empty())
    throw ProtocolError("reload: request carries an unexpected payload");
  const auto [reloaded, failed] = reload_models();
  std::string response;
  put_u32(response, reloaded);
  put_u32(response, failed);
  return encode_frame(MessageType::kReloadResponse, response);
}

std::string ModelServer::error_frame(ErrorCode code,
                                     const std::string& message) const {
  std::string response;
  put_u8(response, static_cast<std::uint8_t>(code));
  put_bytes(response, message);
  // Overload is retryable by contract: tell the client how long to back
  // off (protocol.hpp documents the extra field).
  if (code == ErrorCode::kOverloaded)
    put_u32(response, options_.retry_after_ms);
  return encode_frame(MessageType::kErrorResponse, response);
}

std::string ModelServer::handle_request(const Frame& frame) {
  RSM_TRACE_SPAN("serve.request");
  try {
    switch (frame.type) {
      case MessageType::kEvalRequest: return handle_eval(frame.payload);
      case MessageType::kEvalBatchRequest:
        return handle_eval_batch(frame.payload);
      case MessageType::kYieldRequest: return handle_yield(frame.payload);
      case MessageType::kWorstCaseRequest:
        return handle_worst_case(frame.payload);
      case MessageType::kListModelsRequest: return handle_list_models();
      case MessageType::kReloadRequest: return handle_reload(frame.payload);
      default: {
        std::ostringstream os;
        os << "unknown request type "
           << static_cast<int>(static_cast<std::uint8_t>(frame.type));
        throw ProtocolError(os.str());
      }
    }
  } catch (const StructuredError& e) {
    ++stats_.request_errors;
    obs::metrics().counter("serve.request_errors").increment();
    return error_frame(e.code(), e.what());
  } catch (const std::exception& e) {
    ++stats_.request_errors;
    obs::metrics().counter("serve.request_errors").increment();
    return error_frame(ErrorCode::kUnclassified, e.what());
  }
}

void ModelServer::accept_ready() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;  // transient (EINTR, aborted handshake): poll retries
  adopt_connection(fd);
}

void ModelServer::adopt_connection(int fd) {
  set_nonblocking(fd);
  auto connection = std::make_unique<Connection>();
  connection->fd = fd;
  if (options_.idle_timeout_seconds > 0)
    connection->idle_deadline =
        Deadline::after_seconds(options_.idle_timeout_seconds);
  connections_.emplace(fd, std::move(connection));
  ++stats_.connections_accepted;
  obs::metrics().counter("serve.connections").increment();
}

void ModelServer::queue_frame(Connection& connection, std::string frame) {
  if (connection.closed) return;
  connection.tx += frame;
  flush_connection(connection);
}

void ModelServer::flush_connection(Connection& connection) {
  if (connection.closed) return;
  while (!connection.tx.empty()) {
    const ssize_t n = ::send(connection.fd, connection.tx.data(),
                             connection.tx.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      connection.closed = true;
      return;
    }
    connection.tx.erase(0, static_cast<std::size_t>(n));
  }
  if (connection.tx.empty()) {
    connection.write_deadline = Deadline::unlimited();
    if (connection.close_after_flush) connection.closed = true;
  } else if (!connection.write_deadline.is_limited() &&
             options_.write_timeout_seconds > 0) {
    connection.write_deadline =
        Deadline::after_seconds(options_.write_timeout_seconds);
  }
}

void ModelServer::service_connection(Connection& connection) {
  char buf[65536];
  const ssize_t n = ::recv(connection.fd, buf, sizeof(buf), 0);
  if (n == 0) {
    connection.closed = true;
    return;
  }
  if (n < 0) {
    if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
      connection.closed = true;
    return;
  }
  connection.rx.append(buf, static_cast<std::size_t>(n));
  if (options_.idle_timeout_seconds > 0)
    connection.idle_deadline =
        Deadline::after_seconds(options_.idle_timeout_seconds);
  drain_connection(connection);
}

void ModelServer::drain_connection(Connection& connection) {
  std::size_t frames_extracted = 0;
  while (!connection.closed && !connection.close_after_flush) {
    std::optional<Frame> frame;
    try {
      frame = try_extract_frame(connection.rx);
    } catch (const ProtocolError& e) {
      // The stream offset is unknowable after a framing error: answer with
      // a structured error frame, then close rather than resync-guess. The
      // close waits for the flush so responses to earlier frames — and the
      // error frame itself — still reach the peer, in order.
      ++stats_.protocol_errors;
      obs::metrics().counter("serve.protocol_errors").increment();
      queue_frame(connection,
                  error_frame(ErrorCode::kProtocolError, e.what()));
      connection.close_after_flush = true;
      if (connection.tx.empty()) connection.closed = true;
      break;
    }
    if (!frame.has_value()) break;
    ++frames_extracted;
    ++stats_.requests_served;
    obs::metrics().counter("serve.requests").increment();

    const bool over_global =
        options_.max_inflight_requests > 0 &&
        admitted_this_cycle_ >= options_.max_inflight_requests;
    const bool over_connection =
        options_.max_pending_per_connection > 0 &&
        connection.admitted_this_cycle >= options_.max_pending_per_connection;
    if (!draining_ && (over_global || over_connection)) {
      // Shed instead of queueing unboundedly. The frame is consumed (the
      // stream stays in sync) and answered with a retryable error.
      ++stats_.requests_shed;
      obs::metrics().counter("serve.requests_shed").increment();
      std::ostringstream os;
      os << "overloaded: "
         << (over_connection ? "connection pending-frame cap ("
                             : "in-flight request budget (")
         << (over_connection ? options_.max_pending_per_connection
                             : options_.max_inflight_requests)
         << ") exhausted; retry after backoff";
      queue_frame(connection, error_frame(ErrorCode::kOverloaded, os.str()));
      continue;
    }
    ++admitted_this_cycle_;
    ++connection.admitted_this_cycle;
    ++stats_.requests_admitted;
    obs::metrics().counter("serve.requests_admitted").increment();
    queue_frame(connection, handle_request(*frame));
  }

  // Read-deadline bookkeeping: armed while a partial frame sits in rx, and
  // re-armed whenever a frame completed this pass — so a slow-loris client
  // trickling one byte per cadence still faces a fixed per-frame budget.
  if (connection.closed || connection.close_after_flush) return;
  if (connection.rx.empty()) {
    connection.read_deadline = Deadline::unlimited();
  } else if (options_.read_timeout_seconds > 0 &&
             (frames_extracted > 0 || !connection.read_deadline.is_limited())) {
    connection.read_deadline =
        Deadline::after_seconds(options_.read_timeout_seconds);
  }
}

void ModelServer::enforce_deadlines(Connection& connection) {
  if (connection.closed) return;
  if (connection.write_deadline.expired()) {
    // The peer is not draining its responses; an error frame would only
    // grow the very buffer it refuses to read. Close outright.
    ++stats_.connections_timed_out;
    obs::metrics().counter("serve.connection_timeouts").increment();
    connection.closed = true;
    return;
  }
  if (connection.read_deadline.expired()) {
    ++stats_.connections_timed_out;
    obs::metrics().counter("serve.connection_timeouts").increment();
    queue_frame(connection,
                error_frame(ErrorCode::kConnectionTimeout,
                            "connection-timeout: partial frame exceeded the "
                            "read deadline"));
    connection.read_deadline = Deadline::unlimited();
    connection.close_after_flush = true;
    if (connection.tx.empty()) connection.closed = true;
    return;
  }
  if (options_.idle_timeout_seconds > 0 && connection.idle_deadline.expired() &&
      connection.rx.empty() && connection.tx.empty() &&
      !connection.close_after_flush) {
    ++stats_.idle_closed;
    obs::metrics().counter("serve.idle_closed").increment();
    connection.closed = true;
  }
}

void ModelServer::probe_registry() {
  if (options_.reload_probe_seconds <= 0) return;
  if (reload_probe_deadline_.is_limited() && !reload_probe_deadline_.expired())
    return;
  reload_probe_deadline_ =
      Deadline::after_seconds(options_.reload_probe_seconds);
  try {
    const std::uint64_t fingerprint = registry_.state_fingerprint();
    if (fingerprint == registry_fingerprint_) return;
    registry_fingerprint_ = fingerprint;
    reload_models();
  } catch (const StructuredError&) {
    // A transient registry listing failure must not kill the serving loop;
    // the next probe retries.
  }
}

void ModelServer::poll_once(int timeout_ms) {
  admitted_this_cycle_ = 0;
  std::vector<pollfd> fds;
  fds.reserve(connections_.size() + 1);
  fds.push_back(pollfd{listen_fd_, POLLIN, 0});
  for (auto& [fd, connection] : connections_) {
    connection->admitted_this_cycle = 0;
    int events = 0;
    if (!connection->close_after_flush) events |= POLLIN;
    if (!connection->tx.empty()) events |= POLLOUT;
    fds.push_back(pollfd{fd, static_cast<short>(events), 0});
  }

  const int ready =
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return;
    throw_errno("poll()");
  }
  if (ready > 0) {
    if ((fds[0].revents & POLLIN) != 0) accept_ready();
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const auto it = connections_.find(fds[i].fd);
      if (it == connections_.end()) continue;
      Connection& connection = *it->second;
      if ((fds[i].revents & POLLOUT) != 0) flush_connection(connection);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
        service_connection(connection);
    }
  }
  for (auto& [fd, connection] : connections_) enforce_deadlines(*connection);
  probe_registry();
  std::erase_if(connections_, [](const auto& entry) {
    if (!entry.second->closed) return false;
    ::close(entry.second->fd);
    return true;
  });
}

void ModelServer::run() {
  RSM_TRACE_SPAN("serve.run");
  const int timeout_ms = std::max(
      1, static_cast<int>(options_.poll_interval_seconds * 1000.0));
  while (!options_.cancel.cancelled()) poll_once(timeout_ms);

  // Graceful drain: accept the handshakes already completed in the listen
  // backlog (those clients connected before cancellation and may have
  // requests in flight), scoop any bytes already queued in the kernel,
  // answer every complete frame — admission control is bypassed, a drain
  // must not shed — flush, close. No response to a fully received request
  // is dropped.
  RSM_TRACE_SPAN("serve.drain");
  draining_ = true;
  while (true) {
    pollfd pending{listen_fd_, POLLIN, 0};
    if (::poll(&pending, 1, 0) <= 0 || (pending.revents & POLLIN) == 0) break;
    accept_ready();
  }
  for (auto& [fd, connection] : connections_) {
    char buf[65536];
    while (!connection->closed) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) break;
      connection->rx.append(buf, static_cast<std::size_t>(n));
    }
    if (!connection->closed) drain_connection(*connection);
    // Flush whatever the opportunistic sends left behind, bounded by the
    // write deadline so one stalled reader cannot park shutdown forever.
    Deadline limit = options_.write_timeout_seconds > 0
        ? Deadline::after_seconds(options_.write_timeout_seconds)
        : Deadline::unlimited();
    while (!connection->closed && !connection->tx.empty()) {
      if (limit.expired()) {
        ++stats_.connections_timed_out;
        obs::metrics().counter("serve.connection_timeouts").increment();
        break;
      }
      pollfd out{fd, POLLOUT, 0};
      (void)::poll(&out, 1, 10);
      flush_connection(*connection);
    }
    ::close(fd);
  }
  connections_.clear();
}

}  // namespace rsm::serve
