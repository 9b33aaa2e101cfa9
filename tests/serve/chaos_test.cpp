// Socket chaos harness: the overload / deadline / reload defenses and the
// receive path (pipelined frames, a frame trickled byte by byte) under
// deterministic abuse. Connections are socketpair ends adopted via
// adopt_connection() and every event-loop cycle is an explicit poll_once()
// call, so each scenario is a scripted sequence with exact expected
// counters — no sleeps racing a server thread. The storm test draws its
// abuse schedule from FaultSchedule<SocketFaultKind>, the socket-side
// sibling of the filesystem schedule, so "which connection misbehaves how"
// is a pure function of the seed and the expected counters can be
// recomputed in the test from the same schedule.
#include "serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/crc32.hpp"
#include "io/wire.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"

namespace rsm {

/// Socket-level misbehavior a serving-protocol peer can exhibit. These are
/// the client-side failure modes the ModelServer must contain to one
/// connection: a write that stops mid-frame, a peer that reads one byte at
/// a time, a peer that stops reading responses entirely, and a peer that
/// vanishes with a frame half sent. A chaos client counts its own requests
/// and consults kind(op) before each one, so a test can predict exactly
/// which request misbehaves and how — independent of scheduling,
/// connection count, or retry order.
enum class SocketFaultKind {
  kNone = 0,
  kTornWrite,          // only a prefix of the frame is sent before a pause
  kShortRead,          // responses are drained one byte per recv
  kStalledPeer,        // requests keep coming but responses are never read
  kMidFrameDisconnect, // the connection closes with a frame half sent
};

template <>
struct FaultTraits<SocketFaultKind> {
  // Lanes 4/5: lanes 0-3 are taken by the sample, worker and fs schedules,
  // and a shared seed must not correlate socket faults with fs faults.
  static constexpr std::uint64_t kLane = 4;
  static constexpr std::uint64_t kSeed = 0x243f6a8885a308d3ull;
  static constexpr std::array<const char*, 5> kNames = {
      "none", "torn-write", "short-read", "stalled-peer",
      "mid-frame-disconnect"};
};

}  // namespace rsm

namespace rsm::serve {
namespace {

bool same_bits(Real a, Real b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Non-blocking client end of an adopted socketpair connection.
class PairClient {
 public:
  PairClient() = default;
  ~PairClient() { close(); }
  PairClient(const PairClient&) = delete;
  PairClient& operator=(const PairClient&) = delete;

  /// Creates the pair and hands the server end to `server`. A non-zero
  /// `server_sndbuf` shrinks the server->client pipe first (the kernel
  /// clamps to its floor), so a response can overflow it — the setup the
  /// write-deadline test needs to model a peer that stops reading.
  void connect(ModelServer& server, int server_sndbuf = 0) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    if (server_sndbuf > 0) {
      ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &server_sndbuf,
                             sizeof server_sndbuf),
                0);
    }
    fd_ = fds[0];
    server.adopt_connection(fds[1]);
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_raw(std::string_view bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Drains whatever the server has flushed so far into the frame buffer.
  void pump() {
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n <= 0) break;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::optional<Frame> next_frame() { return try_extract_frame(buffer_); }

  /// True when the server has closed its end and nothing remains buffered.
  bool at_eof() {
    if (!buffer_.empty()) return false;
    char byte = 0;
    return ::recv(fd_, &byte, 1, MSG_DONTWAIT) == 0;
  }

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct ErrorFrame {
  ErrorCode code;
  std::string message;
  std::uint32_t retry_after_ms = 0;
};

ErrorFrame parse_error(const Frame& frame) {
  EXPECT_EQ(frame.type, MessageType::kErrorResponse);
  io::WireReader in(frame.payload, "chaos error frame");
  ErrorFrame out;
  out.code = static_cast<ErrorCode>(in.u8());
  out.message = in.bytes();
  if (out.code == ErrorCode::kOverloaded) out.retry_after_ms = in.u32();
  return out;
}

class ChaosTest : public ::testing::Test {
 protected:
  static constexpr Index kVars = 4;

  void SetUp() override {
    root_ = ::testing::TempDir() + "rsm_chaos_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    auto dict =
        std::make_shared<BasisDictionary>(BasisDictionary::quadratic(kVars));
    Rng rng(5);
    std::vector<ModelTerm> terms;
    for (Index m = 0; m < dict->size(); m += 2)
      terms.push_back({m, rng.normal()});
    model_ = SparseModel(dict, std::move(terms));
    registry_ = std::make_unique<ModelRegistry>(root_ + "/registry");
    registry_->save("m", model_);
  }

  /// A server driven only through poll_once(); never run() — no thread.
  void start(ServerOptions overrides) {
    overrides.socket_path = root_ + "/server.sock";
    overrides.registry_root = root_ + "/registry";
    overrides.num_threads = 1;
    server_ = std::make_unique<ModelServer>(std::move(overrides));
  }

  [[nodiscard]] static std::string eval_payload(const std::vector<Real>& x,
                                                std::uint32_t version = 0) {
    std::string payload;
    io::put_bytes(payload, "m");
    io::put_u32(payload, version);  // 0 = latest
    io::put_u32(payload, static_cast<std::uint32_t>(x.size()));
    for (const Real v : x) io::put_real(payload, v);
    return payload;
  }

  [[nodiscard]] static std::string eval_frame(const std::vector<Real>& x,
                                              std::uint32_t version = 0) {
    return encode_frame(MessageType::kEvalRequest, eval_payload(x, version));
  }

  std::string root_;
  SparseModel model_;
  std::unique_ptr<ModelRegistry> registry_;
  std::unique_ptr<ModelServer> server_;
};

// ---- The injector itself: deterministic, seeded, lane-isolated. ----

TEST(SocketFaultInjectorTest, SameSeedSameSchedule) {
  FaultSchedule<SocketFaultKind>::Options options;
  options.fault_rate = 0.5;
  options.seed = 1234;
  FaultSchedule<SocketFaultKind> a(options);
  FaultSchedule<SocketFaultKind> b(options);
  for (std::uint64_t op = 0; op < 200; ++op)
    EXPECT_EQ(a.kind(op), b.kind(op)) << "op " << op;
}

TEST(SocketFaultInjectorTest, RateZeroIsSilentRateOneAlwaysFires) {
  FaultSchedule<SocketFaultKind> off(
      FaultSchedule<SocketFaultKind>::Options{});
  FaultSchedule<SocketFaultKind>::Options always;
  always.fault_rate = 1.0;
  FaultSchedule<SocketFaultKind> on(always);
  for (std::uint64_t op = 0; op < 200; ++op) {
    EXPECT_EQ(off.kind(op), SocketFaultKind::kNone);
    EXPECT_NE(on.kind(op), SocketFaultKind::kNone);
  }
}

TEST(SocketFaultInjectorTest, FullRateCoversEveryFaultKind) {
  FaultSchedule<SocketFaultKind>::Options options;
  options.fault_rate = 1.0;
  options.seed = 99;
  FaultSchedule<SocketFaultKind> injector(options);
  int seen[5] = {0, 0, 0, 0, 0};
  for (std::uint64_t op = 0; op < 400; ++op)
    ++seen[static_cast<int>(injector.kind(op))];
  EXPECT_EQ(seen[static_cast<int>(SocketFaultKind::kNone)], 0);
  EXPECT_GT(seen[static_cast<int>(SocketFaultKind::kTornWrite)], 0);
  EXPECT_GT(seen[static_cast<int>(SocketFaultKind::kShortRead)], 0);
  EXPECT_GT(seen[static_cast<int>(SocketFaultKind::kStalledPeer)], 0);
  EXPECT_GT(seen[static_cast<int>(SocketFaultKind::kMidFrameDisconnect)], 0);
}

TEST(SocketFaultInjectorTest, KindNamesAreStable) {
  EXPECT_STREQ(fault_kind_name(SocketFaultKind::kNone), "none");
  EXPECT_STREQ(fault_kind_name(SocketFaultKind::kTornWrite), "torn-write");
  EXPECT_STREQ(fault_kind_name(SocketFaultKind::kShortRead), "short-read");
  EXPECT_STREQ(fault_kind_name(SocketFaultKind::kStalledPeer), "stalled-peer");
  EXPECT_STREQ(fault_kind_name(SocketFaultKind::kMidFrameDisconnect),
               "mid-frame-disconnect");
}

TEST(FaultSchedulePins, SocketLayer) {
  // As the other layers' pins (tests/util/common_test.cpp): the expected
  // hash was printed by the same sweep linked against the socket injector
  // class that FaultSchedule<SocketFaultKind> replaced.
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto fold = [&hash](const FaultSchedule<SocketFaultKind>::Options& plan) {
    const FaultSchedule<SocketFaultKind> schedule(plan);
    for (std::uint64_t op = 0; op < 4096; ++op) {
      const auto kind = static_cast<std::uint64_t>(schedule.kind(op));
      hash = io::fnv1a64(&kind, sizeof kind, hash);
    }
  };
  fold({.fault_rate = 0.05});
  fold({.fault_rate = 0.8, .seed = 4242});
  fold({.fault_rate = 1.0, .seed = 99});
  EXPECT_EQ(hash, 0xe9663550e1218286ull);
}

// ---- The receive path: samples are read where the kernel wrote them. ----

TEST_F(ChaosTest, PipelinedFramesAtEveryAlignmentMatchInProcessPredict) {
  // One write carries eval and eval_batch frames, alternating, under model
  // names of lengths 1-8, which puts their sample arrays at every offset
  // mod 8 of the receive buffer; one batch is longer than batch_chunk and
  // goes to the pool. Each reply must carry the bytes of in-process
  // prediction, in request order, after one poll cycle. The write ends
  // with the start of one more eval, which must wait, moved to the front
  // of the buffer, for the write that completes it.
  std::vector<std::string> names;
  for (std::size_t length = 1; length <= 8; ++length) {
    names.push_back(std::string("m").append(length - 1, 'x'));
    if (length > 1) registry_->save(names.back(), model_);
  }
  ServerOptions options;
  options.batch_chunk = 8;
  start(std::move(options));
  PairClient client;
  client.connect(*server_);

  Rng rng(61);
  std::string wire;
  std::vector<std::pair<MessageType, std::string>> expected;
  std::set<std::size_t> sample_offsets_mod_8;
  for (std::size_t i = 0; i < 2 * names.size(); ++i) {
    const bool batch = i % 2 == 1;
    const Index rows = batch ? (i == 3 ? 70 : 3) : 1;
    const Matrix points = monte_carlo_normal(rows, kVars, rng);
    std::string payload;
    io::put_bytes(payload, names[i % names.size()]);
    io::put_u32(payload, 0);
    if (batch) io::put_u32(payload, static_cast<std::uint32_t>(rows));
    io::put_u32(payload, static_cast<std::uint32_t>(kVars));
    sample_offsets_mod_8.insert(
        (wire.size() + kFrameHeaderBytes + payload.size()) % 8);
    for (Index r = 0; r < rows; ++r) io::put_reals(payload, points.row(r));
    wire += encode_frame(
        batch ? MessageType::kEvalBatchRequest : MessageType::kEvalRequest,
        payload);

    std::string reply;
    if (batch) {
      std::vector<Real> predicted(static_cast<std::size_t>(rows));
      model_.predict_batch(points, predicted);
      io::put_u32(reply, static_cast<std::uint32_t>(rows));
      io::put_reals(reply, predicted);
    } else {
      io::put_real(reply, model_.predict(points.row(0)));
    }
    expected.emplace_back(batch ? MessageType::kEvalBatchResponse
                                : MessageType::kEvalResponse,
                          std::move(reply));
  }
  EXPECT_EQ(sample_offsets_mod_8.size(), 8u);
  const std::vector<Real> last = {0.3, -0.7, 1.1, -1.9};
  const std::string last_frame = eval_frame(last);
  const std::size_t split = last_frame.size() / 2 + 1;  // in the samples
  ASSERT_LE(wire.size() + split, FrameBuffer::kReadChunk);  // one read

  client.send_raw(wire + last_frame.substr(0, split));
  server_->poll_once(0);
  client.pump();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::optional<Frame> reply = client.next_frame();
    ASSERT_TRUE(reply.has_value()) << "reply " << i << " missing";
    EXPECT_EQ(reply->type, expected[i].first) << "reply " << i;
    EXPECT_EQ(reply->payload, expected[i].second) << "reply " << i;
  }
  EXPECT_FALSE(client.next_frame().has_value());

  client.send_raw(last_frame.substr(split));
  server_->poll_once(0);
  client.pump();
  const std::optional<Frame> reply = client.next_frame();
  ASSERT_TRUE(reply.has_value()) << "the split eval was not answered";
  ASSERT_EQ(reply->type, MessageType::kEvalResponse);
  io::WireReader in(reply->payload, "split eval");
  EXPECT_TRUE(same_bits(in.real(), model_.predict(last)));
  EXPECT_EQ(server_->stats().requests_admitted, expected.size() + 1);
  EXPECT_EQ(server_->stats().request_errors, 0u);
}

TEST_F(ChaosTest, FrameFedOneByteAtATimeIsAnsweredOnce) {
  // One byte per poll cycle splits the header at every offset, and every
  // read after it is sized from a partial frame: the eval is answered
  // exactly once, after its last byte, with the in-process bits.
  start(ServerOptions{});
  PairClient client;
  client.connect(*server_);
  const std::vector<Real> point = {0.125, -1.5, 2.0, 0.75};
  const std::string frame = eval_frame(point);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    client.send_raw(frame.substr(i, 1));
    server_->poll_once(0);
    client.pump();
    if (i + 1 < frame.size()) {
      ASSERT_FALSE(client.next_frame().has_value())
          << "answered after " << i + 1 << " of " << frame.size()
          << " bytes";
    }
  }
  const std::optional<Frame> reply = client.next_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MessageType::kEvalResponse);
  io::WireReader in(reply->payload, "trickled eval");
  EXPECT_TRUE(same_bits(in.real(), model_.predict(point)));

  server_->poll_once(0);
  client.pump();
  EXPECT_FALSE(client.next_frame().has_value());
  EXPECT_EQ(server_->stats().requests_served, 1u);
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
  EXPECT_FALSE(client.at_eof());
}

// ---- Overload: shedding is per offender, never global. ----

TEST_F(ChaosTest, SheddingNeverBlocksHealthyConnections) {
  ServerOptions options;
  options.max_inflight_requests = 8;
  options.max_pending_per_connection = 2;
  options.retry_after_ms = 17;
  start(std::move(options));

  PairClient firehose;
  PairClient healthy;
  firehose.connect(*server_);
  healthy.connect(*server_);

  // Six tiny frames in one cycle against a per-connection cap of 2: the
  // global budget (8) is never the limiter, so the healthy request in the
  // same cycle must be admitted.
  const std::string list_frame =
      encode_frame(MessageType::kListModelsRequest, "");
  std::string burst;
  for (int i = 0; i < 6; ++i) burst += list_frame;
  firehose.send_raw(burst);
  const std::vector<Real> point(static_cast<std::size_t>(kVars), 0.5);
  healthy.send_raw(eval_frame(point));
  server_->poll_once(0);

  firehose.pump();
  int answered = 0;
  int shed = 0;
  while (auto frame = firehose.next_frame()) {
    if (frame->type == MessageType::kListModelsResponse) {
      ++answered;
    } else {
      const ErrorFrame error = parse_error(*frame);
      EXPECT_EQ(error.code, ErrorCode::kOverloaded);
      EXPECT_EQ(error.retry_after_ms, 17u);
      ++shed;
    }
  }
  EXPECT_EQ(answered, 2);
  EXPECT_EQ(shed, 4);
  EXPECT_FALSE(firehose.at_eof());  // shed is an answer, not a hangup

  healthy.pump();
  const std::optional<Frame> response = healthy.next_frame();
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, MessageType::kEvalResponse);
  io::WireReader in(response->payload, "healthy eval");
  EXPECT_TRUE(same_bits(in.real(), model_.predict(point)));

  // The budget is per poll cycle: the same client retrying next cycle — the
  // contract serve_client.py's backoff relies on — is served.
  firehose.send_raw(list_frame);
  server_->poll_once(0);
  firehose.pump();
  const std::optional<Frame> retry = firehose.next_frame();
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->type, MessageType::kListModelsResponse);

  EXPECT_EQ(server_->stats().requests_shed, 4u);
  EXPECT_EQ(server_->stats().requests_admitted, 4u);
  EXPECT_EQ(server_->stats().requests_served,
            server_->stats().requests_admitted +
                server_->stats().requests_shed);
}

// ---- Read deadline: a slow loris is quarantined, not tolerated. ----

TEST_F(ChaosTest, SlowLorisIsClosedWhileOthersComplete) {
  ServerOptions options;
  options.read_timeout_seconds = 0.05;
  start(std::move(options));

  PairClient loris;
  PairClient worker;
  loris.connect(*server_);
  worker.connect(*server_);

  const std::vector<Real> point(static_cast<std::size_t>(kVars), 0.25);
  const std::string frame = eval_frame(point);
  loris.send_raw(frame.substr(0, 5));  // header fragment, then silence
  server_->poll_once(0);               // ingest; read deadline arms
  server_->poll_once(70);              // sit past the 50 ms deadline
  server_->poll_once(0);               // enforce it

  // The worker connection is untouched before, during, and after.
  worker.send_raw(frame);
  server_->poll_once(0);
  worker.pump();
  const std::optional<Frame> response = worker.next_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, MessageType::kEvalResponse);

  loris.pump();
  const std::optional<Frame> verdict = loris.next_frame();
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(parse_error(*verdict).code, ErrorCode::kConnectionTimeout);
  EXPECT_TRUE(loris.at_eof());
  EXPECT_EQ(server_->stats().connections_timed_out, 1u);

  // Completing a frame re-arms the deadline: a steady client that simply
  // spans two cycles is not a loris.
  PairClient steady;
  steady.connect(*server_);
  steady.send_raw(frame.substr(0, 5));
  server_->poll_once(0);
  steady.send_raw(frame.substr(5));
  server_->poll_once(0);
  steady.pump();
  const std::optional<Frame> completed = steady.next_frame();
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(completed->type, MessageType::kEvalResponse);
  EXPECT_EQ(server_->stats().connections_timed_out, 1u);
}

// ---- Write deadline: a peer that stops reading cannot pin memory. ----

TEST_F(ChaosTest, StalledReaderIsClosedByWriteDeadline) {
  ServerOptions options;
  options.write_timeout_seconds = 0.05;
  start(std::move(options));

  PairClient stalled;
  PairClient worker;
  stalled.connect(*server_, /*server_sndbuf=*/1);
  worker.connect(*server_);

  // One eval_batch whose ~32 KiB response overflows the shrunken send
  // buffer; the request itself (~128 KiB) still fits the client's default
  // send buffer, so one blocking send cannot deadlock against the server.
  const Index rows = 4096;
  std::string payload;
  io::put_bytes(payload, "m");
  io::put_u32(payload, 0);
  io::put_u32(payload, static_cast<std::uint32_t>(rows));
  io::put_u32(payload, static_cast<std::uint32_t>(kVars));
  for (Index r = 0; r < rows; ++r)
    for (Index c = 0; c < kVars; ++c) io::put_real(payload, 0.125);
  stalled.send_raw(encode_frame(MessageType::kEvalBatchRequest, payload));

  // Cycle until the request is fully read, the partially flushed response
  // arms the write deadline, and the deadline (50 ms) expires — a hard
  // close with no courtesy frame (the peer is not reading anyway).
  for (int i = 0; i < 100 && server_->stats().connections_timed_out == 0; ++i)
    server_->poll_once(10);
  EXPECT_EQ(server_->stats().connections_timed_out, 1u);

  const std::vector<Real> point(static_cast<std::size_t>(kVars), 0.75);
  worker.send_raw(eval_frame(point));
  server_->poll_once(0);
  worker.pump();
  const std::optional<Frame> response = worker.next_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, MessageType::kEvalResponse);
}

// ---- Idle reaper. ----

TEST_F(ChaosTest, IdleConnectionsAreQuietlyReaped) {
  ServerOptions options;
  options.idle_timeout_seconds = 0.1;
  start(std::move(options));

  PairClient idle;
  PairClient active;
  idle.connect(*server_);
  active.connect(*server_);

  // Both idle clocks start at adoption. `active` speaks at ~60 ms —
  // re-arming its clock to ~160 ms — and the reaper loop below exits the
  // moment `idle` crosses 100 ms, well before `active` would.
  const std::vector<Real> point(static_cast<std::size_t>(kVars), 0.5);
  server_->poll_once(0);
  server_->poll_once(60);
  active.send_raw(eval_frame(point));
  server_->poll_once(0);
  for (int i = 0; i < 100 && server_->stats().idle_closed == 0; ++i)
    server_->poll_once(10);

  idle.pump();
  EXPECT_TRUE(idle.at_eof());
  EXPECT_EQ(server_->stats().idle_closed, 1u);

  active.pump();
  const std::optional<Frame> response = active.next_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, MessageType::kEvalResponse);
}

// ---- Hot reload. ----

TEST_F(ChaosTest, HotReloadDropsNoInFlightRequestAndSwapsVersions) {
  start(ServerOptions{});

  PairClient client;
  client.connect(*server_);

  // Serve latest once so the server tracks "m" (last-good = v1) — reload
  // only re-resolves names it has served.
  const std::vector<Real> point(static_cast<std::size_t>(kVars), 0.5);
  client.send_raw(eval_frame(point));
  server_->poll_once(0);
  client.pump();
  ASSERT_TRUE(client.next_frame().has_value());

  // Publish v2, then queue pinned-v1 evals ahead of the reload and a
  // latest eval behind it, all in one burst: every response must arrive,
  // in order, with the v1 -> v2 swap landing between them. (Pinned
  // requests, unlike latest requests, cannot pick v2 up lazily — the swap
  // observed here is the reload's.)
  ASSERT_EQ(registry_->save("m", model_), 2u);
  std::string wire;
  wire += eval_frame(point, 1);
  wire += eval_frame(point, 1);
  wire += encode_frame(MessageType::kReloadRequest, "");
  wire += eval_frame(point);
  client.send_raw(wire);
  server_->poll_once(0);
  client.pump();

  const Real expected = model_.predict(point);
  for (int i = 0; i < 2; ++i) {
    const std::optional<Frame> response = client.next_frame();
    ASSERT_TRUE(response.has_value()) << "pre-reload eval " << i;
    ASSERT_EQ(response->type, MessageType::kEvalResponse);
    io::WireReader in(response->payload, "pre-reload eval");
    EXPECT_TRUE(same_bits(in.real(), expected));
  }
  const std::optional<Frame> reload = client.next_frame();
  ASSERT_TRUE(reload.has_value());
  ASSERT_EQ(reload->type, MessageType::kReloadResponse);
  io::WireReader counts(reload->payload, "reload response");
  EXPECT_EQ(counts.u32(), 1u);  // reloaded
  EXPECT_EQ(counts.u32(), 0u);  // failed
  const std::optional<Frame> after = client.next_frame();
  ASSERT_TRUE(after.has_value()) << "eval after reload lost";
  ASSERT_EQ(after->type, MessageType::kEvalResponse);
  io::WireReader in(after->payload, "post-reload eval");
  EXPECT_TRUE(same_bits(in.real(), expected));  // same bytes, v2 == v1 here

  EXPECT_EQ(server_->stats().reloads, 1u);
  EXPECT_EQ(server_->stats().reload_failures, 0u);
  EXPECT_FALSE(client.at_eof());
}

TEST_F(ChaosTest, ReloadToCorruptVersionKeepsServingLastGood) {
  start(ServerOptions{});

  PairClient client;
  client.connect(*server_);

  // Serve once from v1 so the server has a last-good to fall back to.
  const std::vector<Real> point(static_cast<std::size_t>(kVars), 0.25);
  client.send_raw(eval_frame(point));
  server_->poll_once(0);
  client.pump();
  ASSERT_TRUE(client.next_frame().has_value());

  // Publish a corrupt v2, reload: the swap must fail closed.
  const std::uint32_t bad = registry_->save("m", model_);
  {
    std::ofstream corrupt(registry_->path_for("m", bad),
                          std::ios::binary | std::ios::trunc);
    corrupt << "garbage";
  }
  client.send_raw(encode_frame(MessageType::kReloadRequest, ""));
  server_->poll_once(0);
  client.pump();
  const std::optional<Frame> reload = client.next_frame();
  ASSERT_TRUE(reload.has_value());
  ASSERT_EQ(reload->type, MessageType::kReloadResponse);
  io::WireReader counts(reload->payload, "reload response");
  EXPECT_EQ(counts.u32(), 0u);  // reloaded
  EXPECT_EQ(counts.u32(), 1u);  // failed
  EXPECT_EQ(server_->stats().reload_failures, 1u);

  // Evals keep answering from v1, repeatedly, without re-reading the
  // corrupt file (the failure counter must not climb per request).
  const Real expected = model_.predict(point);
  for (int i = 0; i < 3; ++i) {
    client.send_raw(eval_frame(point));
    server_->poll_once(0);
    client.pump();
    const std::optional<Frame> response = client.next_frame();
    ASSERT_TRUE(response.has_value()) << "post-corruption eval " << i;
    ASSERT_EQ(response->type, MessageType::kEvalResponse);
    io::WireReader in(response->payload, "last-good eval");
    EXPECT_TRUE(same_bits(in.real(), expected));
  }
  EXPECT_EQ(server_->stats().reload_failures, 1u);
  EXPECT_FALSE(client.at_eof());
}

TEST_F(ChaosTest, FingerprintProbePicksUpNewVersionsWithoutARequest) {
  ServerOptions options;
  options.reload_probe_seconds = 0.02;
  start(std::move(options));

  PairClient client;
  client.connect(*server_);
  const std::vector<Real> point(static_cast<std::size_t>(kVars), 0.5);
  client.send_raw(eval_frame(point));
  server_->poll_once(0);
  client.pump();
  ASSERT_TRUE(client.next_frame().has_value());

  ASSERT_EQ(registry_->save("m", model_), 2u);
  for (int i = 0; i < 4 && server_->stats().reloads == 0; ++i)
    server_->poll_once(30);  // idle cycles; only the probe can see the save
  EXPECT_EQ(server_->stats().reloads, 1u);
  EXPECT_EQ(server_->stats().reload_failures, 0u);
}

// ---- The storm: an injector-scheduled mix of abuse, one invariant. ----

TEST_F(ChaosTest, InjectorScheduledStormLeavesServerConsistent) {
  ServerOptions options;
  options.read_timeout_seconds = 0.05;
  options.max_pending_per_connection = 1;
  start(std::move(options));

  FaultSchedule<SocketFaultKind>::Options schedule_options;
  schedule_options.fault_rate = 0.8;
  schedule_options.seed = 4242;
  FaultSchedule<SocketFaultKind> schedule(schedule_options);

  constexpr int kOps = 24;
  const std::vector<Real> point(static_cast<std::size_t>(kVars), 0.5);
  const std::string frame = eval_frame(point);

  std::vector<std::unique_ptr<PairClient>> clients;
  int expect_answered = 0;
  int expect_stalled = 0;
  for (int op = 0; op < kOps; ++op) {
    auto client = std::make_unique<PairClient>();
    client->connect(*server_);
    switch (schedule.kind(static_cast<std::uint64_t>(op))) {
      case SocketFaultKind::kNone:
        client->send_raw(frame);
        ++expect_answered;
        break;
      case SocketFaultKind::kTornWrite:
        // First half now, second half next cycle: must still be answered.
        client->send_raw(frame.substr(0, frame.size() / 2));
        server_->poll_once(0);
        client->send_raw(frame.substr(frame.size() / 2));
        ++expect_answered;
        break;
      case SocketFaultKind::kShortRead:
        // Sends fine, then reads almost nothing and hangs up: the server
        // must shrug — the response it flushed dies with the socket.
        client->send_raw(frame);
        server_->poll_once(0);
        client->close();
        break;
      case SocketFaultKind::kStalledPeer:
        client->send_raw(frame.substr(0, 5));
        ++expect_stalled;
        break;
      case SocketFaultKind::kMidFrameDisconnect:
        client->send_raw(frame.substr(0, 5));
        client->close();
        break;
    }
    clients.push_back(std::move(client));
  }
  ASSERT_GT(expect_answered, 0) << "seed produced no clean ops; pick another";
  ASSERT_GT(expect_stalled, 0) << "seed produced no stalled peer";

  // Settle: closed peers are reaped as their EOFs surface (those POLLHUP
  // events make fixed-length poll sleeps return early, so loop on the
  // counter instead) and stalled peers cross the 50 ms read deadline.
  server_->poll_once(0);
  for (int i = 0; i < 100 && server_->stats().connections_timed_out <
                                 static_cast<std::uint64_t>(expect_stalled);
       ++i)
    server_->poll_once(10);

  int answered = 0;
  for (int op = 0; op < kOps; ++op) {
    PairClient& client = *clients[static_cast<std::size_t>(op)];
    if (client.fd() < 0) continue;
    client.pump();
    while (auto response = client.next_frame())
      if (response->type == MessageType::kEvalResponse) ++answered;
  }
  EXPECT_EQ(answered, expect_answered);
  EXPECT_EQ(server_->stats().connections_timed_out,
            static_cast<std::uint64_t>(expect_stalled));
  EXPECT_EQ(server_->stats().requests_served,
            server_->stats().requests_admitted +
                server_->stats().requests_shed);

  // After the storm, a fresh connection gets a clean, correct answer.
  PairClient survivor;
  survivor.connect(*server_);
  survivor.send_raw(frame);
  server_->poll_once(0);
  survivor.pump();
  const std::optional<Frame> response = survivor.next_frame();
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, MessageType::kEvalResponse);
  io::WireReader in(response->payload, "survivor eval");
  EXPECT_TRUE(same_bits(in.real(), model_.predict(point)));
}

}  // namespace
}  // namespace rsm::serve
