#include "serving.hpp"

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>

#include "linalg/matrix.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace paperbench {
namespace {

using rsm::Index;
using rsm::Matrix;
using rsm::Real;
using rsm::serve::MessageType;

constexpr int kEvalFrames = 64;  // distinct eval payloads per model
constexpr int kBatchFrames = 2;  // distinct eval_batch payloads per model
constexpr double kReplyTimeout = 20;

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect(" + path + ") failed: " + reason);
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

std::string request_header(const std::string& name, std::uint32_t version) {
  std::string out;
  rsm::serve::put_bytes(out, name);
  rsm::serve::put_u32(out, version);
  return out;
}

std::string eval_payload(const std::string& name, std::uint32_t version,
                         std::span<const Real> x) {
  std::string out = request_header(name, version);
  rsm::serve::put_u32(out, static_cast<std::uint32_t>(x.size()));
  for (const Real v : x) rsm::serve::put_real(out, v);
  return out;
}

std::string batch_payload(const std::string& name, std::uint32_t version,
                          const Matrix& points, Index first, Index rows) {
  std::string out = request_header(name, version);
  rsm::serve::put_u32(out, static_cast<std::uint32_t>(rows));
  rsm::serve::put_u32(out, static_cast<std::uint32_t>(points.cols()));
  for (Index r = first; r < first + rows; ++r)
    for (const Real v : points.row(r)) rsm::serve::put_real(out, v);
  return out;
}

/// The highest CPU this process may use; -1 when unknown.
int serving_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
    if (CPU_ISSET(cpu, &set)) return cpu;
  return -1;
}

/// `cpu` alone, or (`others`) every CPU this process may use but `cpu`;
/// empty when `cpu` is negative or no other CPU is allowed.
cpu_set_t cpus(int cpu, bool others) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu < 0) return set;
  if (!others) {
    CPU_SET(cpu, &set);
    return set;
  }
  if (::sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
  CPU_CLR(cpu, &set);
  return set;
}

/// Runs the calling thread on `set` (nothing when it is empty) for the
/// object's lifetime, then restores its CPU set.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const cpu_set_t& set) {
    if (CPU_COUNT(&set) == 0) return;
    CPU_ZERO(&saved_);
    set_ = ::pthread_getaffinity_np(::pthread_self(), sizeof saved_, &saved_) == 0 &&
           ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set) == 0;
  }
  ~ScopedAffinity() {
    if (set_) ::pthread_setaffinity_np(::pthread_self(), sizeof saved_, &saved_);
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t saved_;
  bool set_ = false;
};

}  // namespace

Served make_served(std::string name, std::uint32_t version,
                   rsm::SparseModel model, std::uint64_t seed, Index batch_rows) {
  Served m;
  m.name = std::move(name);
  m.version = version;
  m.model = std::move(model);
  const Index n = m.model.dictionary().num_variables();
  rsm::Rng rng(seed);
  const Matrix eval_points = rsm::monte_carlo_normal(kEvalFrames, n, rng);
  for (Index r = 0; r < kEvalFrames; ++r) {
    m.eval_frames.push_back(rsm::serve::encode_frame(
        MessageType::kEvalRequest,
        eval_payload(m.name, m.version, eval_points.row(r))));
    m.eval_expected.push_back(m.model.predict(eval_points.row(r)));
  }
  const Matrix batch_points = rsm::monte_carlo_normal(kBatchFrames * batch_rows, n, rng);
  for (int f = 0; f < kBatchFrames; ++f) {
    const Index first = f * batch_rows;
    m.batch_frames.push_back(rsm::serve::encode_frame(
        MessageType::kEvalBatchRequest,
        batch_payload(m.name, m.version, batch_points, first, batch_rows)));
    const std::span<const Real> block(batch_points.data() + first * n,
                                      static_cast<std::size_t>(batch_rows * n));
    std::vector<Real> expected(static_cast<std::size_t>(batch_rows));
    BenchSpan span("bench.predict_batch");
    m.model.predict_batch(block, batch_rows, expected);
    m.batch_expected.push_back(std::move(expected));
  }
  return m;
}

ServerThread::ServerThread(const std::string& socket_path,
                           const std::string& registry_root, int cpu) {
  rsm::serve::ServerOptions options;
  options.socket_path = socket_path;
  options.registry_root = registry_root;
  options.num_threads = kServerThreads;
  options.cancel = cancel_.token();
  {
    // The pool workers start here and keep this thread's CPU set: every
    // CPU but the event loop's.
    const ScopedAffinity others(cpus(cpu, true));
    server_ = std::make_unique<rsm::serve::ModelServer>(std::move(options));
  }
  thread_ = std::thread([this, cpu] {
    const cpu_set_t one = cpus(cpu, false);
    if (CPU_COUNT(&one) > 0)
      (void)::pthread_setaffinity_np(::pthread_self(), sizeof one, &one);
    try {
      server_->run();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  });
}

void ServerThread::stop() {
  cancel_.request_cancel();
  if (thread_.joinable()) thread_.join();
}

// ------------------------------------------------------------ closed loop

struct ServingSession::Connection {
  explicit Connection(const std::string& path) : fd(connect_unix(path)) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `frame` and waits for the whole reply frame.
  rsm::serve::Frame round_trip(std::string_view frame) {
    const Clock::time_point sent = Clock::now();
    std::string_view out = frame;
    while (true) {
      while (!out.empty()) {
        const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
        if (n > 0) {
          out.remove_prefix(static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("send to the server failed");
      }
      char buffer[1 << 16];
      while (true) {
        const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
        if (n > 0) {
          in.append(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("the server closed the connection");
      }
      std::optional<rsm::serve::Frame> reply;
      if (!in.empty()) {
        BenchSpan span("bench.frame");
        reply = rsm::serve::try_extract_frame(in);
      }
      if (reply) {
        if (!out.empty() || !in.empty())
          throw std::runtime_error("unexpected reply bytes from the server");
        return std::move(*reply);
      }
      if (seconds_since(sent) > kReplyTimeout)
        throw std::runtime_error("a request to the server went unanswered");
      pollfd p{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
      if (::poll(&p, 1, 50) < 0 && errno != EINTR)
        throw std::runtime_error("poll failed");
    }
  }

  const int fd;
  std::string in;
};

ServingSession::ServingSession(std::vector<Served>& models,
                               rsm::serve::ModelRegistry& registry,
                               const std::string& workdir)
    : models_(models), cpu_(serving_cpu()) {
  const std::string socket_path = workdir + "/server.sock";
  server_ = std::make_unique<ServerThread>(socket_path, registry.root(), cpu_);
  connection_ = std::make_unique<Connection>(socket_path);
}

ServingSession::~ServingSession() {
  connection_.reset();
  if (server_) server_->stop();
}

void LoopStats::add(const LoopStats& other) {
  eval_us.add(other.eval_us);
  batch_ms.add(other.batch_ms);
  loop_eval_p50_us.add(other.loop_eval_p50_us);
  loop_batch_p50_ms.add(other.loop_batch_p50_ms);
  rows += other.rows;
  seconds += other.seconds;
  sent += other.sent;
  failed += other.failed;
  mismatches += other.mismatches;
}

LoopStats ServingSession::run(double seconds, Traffic traffic) {
  const ScopedAffinity pin(cpus(cpu_, false));
  const bool eval = traffic == Traffic::kEval;
  LoopStats stats;
  const std::uint64_t n = models_.size();
  const Clock::time_point start = Clock::now();
  for (std::uint64_t k = 0; seconds_since(start) < seconds; ++k) {
    const Served& m = models_[static_cast<std::size_t>(k % n)];
    const std::size_t item =
        static_cast<std::size_t>(k / n) % (eval ? m.eval_frames.size() : m.batch_frames.size());
    const Clock::time_point sent = Clock::now();
    const rsm::serve::Frame reply =
        connection_->round_trip(eval ? m.eval_frames[item] : m.batch_frames[item]);
    const double elapsed = seconds_since(sent);
    ++stats.sent;
    if (reply.type == MessageType::kErrorResponse) {
      ++stats.failed;  // request error or shed
      continue;
    }
    rsm::serve::WireReader in(reply.payload, "reply");
    bool match = false;
    if (eval) {
      if (reply.type != MessageType::kEvalResponse)
        throw std::runtime_error("wrong reply type to eval");
      const Real value = in.real();
      match = std::memcmp(&value, &m.eval_expected[item], sizeof value) == 0;
      stats.eval_us.add(1e6 * elapsed);
      stats.rows += 1;
    } else {
      if (reply.type != MessageType::kEvalBatchResponse)
        throw std::runtime_error("wrong reply type to eval_batch");
      std::vector<Real> values(in.u32());
      for (Real& v : values) v = in.real();
      match = bit_identical(values, m.batch_expected[item]);
      stats.batch_ms.add(1e3 * elapsed);
      stats.rows += static_cast<double>(values.size());
    }
    if (!match) ++stats.mismatches;
  }
  stats.seconds = seconds_since(start);
  if (eval)
    stats.loop_eval_p50_us.add(stats.eval_us.median());
  else
    stats.loop_batch_p50_ms.add(stats.batch_ms.median());
  total_.add(stats);
  std::printf("serving loop: %.2f s of %s, frames %lld, failed %lld, rows/s "
              "%.0f, p50 %.4g %s\n",
              stats.seconds, eval ? "eval" : "eval_batch",
              static_cast<long long>(stats.sent),
              static_cast<long long>(stats.failed), stats.rows / stats.seconds,
              eval ? stats.eval_us.median() : stats.batch_ms.median(),
              eval ? "us" : "ms");
  return stats;
}

const rsm::serve::ServerStats& ServingSession::finish(Report& report) {
  connection_.reset();
  server_->stop();
  const rsm::serve::ServerStats& s = server_->stats();
  report.add_operations(total_.sent, total_.failed);
  report.check(server_->error().empty(), "server failed: " + server_->error());
  report.check(total_.mismatches == 0,
               std::to_string(total_.mismatches) +
                   " replies differ from in-process predict of the served version");
  report.check(s.protocol_errors == 0, "server reported protocol errors");
  report.check(s.request_errors == 0, "server reported request errors");
  report.check(s.reload_failures == 0, "server reported reload failures");
  return s;
}

std::vector<std::string_view> ServingSession::frames() const {
  std::vector<std::string_view> out;
  for (const Served& m : models_) {
    out.insert(out.end(), m.eval_frames.begin(), m.eval_frames.end());
    out.insert(out.end(), m.batch_frames.begin(), m.batch_frames.end());
  }
  return out;
}

void report_serving(const LoopStats& loop, Report& report) {
  report.set("eval_p50_us", loop.loop_eval_p50_us.mean());
  report.set("batch_p50_ms", loop.loop_batch_p50_ms.mean());
  report.set("served_rows_per_s", loop.rows / loop.seconds);
  std::printf("serving: eval p50 of %zu; batch p50 of %zu; unbounded: eval "
              "p99 %.1f us, batch p99 %.3f ms\n",
              loop.eval_us.count(), loop.batch_ms.count(),
              loop.eval_us.quantile(0.99), loop.batch_ms.quantile(0.99));
}

void report_serving_unbounded(const LoopStats& loop, Report& report) {
  report.set("eval_p99_us", loop.eval_us.quantile(0.99));
  report.set("batch_p99_ms", loop.batch_ms.quantile(0.99));
}

}  // namespace paperbench
