// End-to-end serving contract, exercised through a real AF_UNIX socket: a
// served eval is bit-identical to calling the model in-process, bad
// requests earn structured error frames without killing the connection,
// framing corruption kills exactly one connection, and cancellation drains
// — every buffered request is answered before the socket closes.
#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/yield.hpp"
#include "io/wire.hpp"
#include "serve/model_codec.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace rsm::serve {
namespace {

bool same_bits(Real a, Real b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Minimal blocking client speaking the frame protocol over AF_UNIX.
class TestClient {
 public:
  explicit TestClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    RSM_CHECK_MSG(fd_ >= 0, "test client socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    RSM_CHECK_MSG(path.size() < sizeof(addr.sun_path), "socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    RSM_CHECK_MSG(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) == 0,
                  "test client connect() failed");
  }
  ~TestClient() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_raw(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      ASSERT_GT(n, 0) << "send failed";
      sent += static_cast<std::size_t>(n);
    }
  }

  void send_frame(MessageType type, const std::string& payload) {
    send_raw(encode_frame(type, payload));
  }

  /// Blocks until one full frame arrives; nullopt on clean EOF.
  std::optional<Frame> recv_frame() {
    while (true) {
      if (std::optional<Frame> frame = try_extract_frame(buffer_))
        return frame;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the peer has closed and no byte remains buffered.
  bool at_eof() {
    if (!buffer_.empty()) return false;
    char byte = 0;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct ErrorFrame {
  ErrorCode code;
  std::string message;
};

ErrorFrame parse_error(const Frame& frame) {
  EXPECT_EQ(frame.type, MessageType::kErrorResponse);
  io::WireReader in(frame.payload, "test error frame");
  const auto code = static_cast<ErrorCode>(in.u8());
  return {code, std::string(in.bytes())};
}

class ServerTest : public ::testing::Test {
 protected:
  static constexpr Index kVars = 4;

  void SetUp() override {
    // Per-test root: ctest runs each TEST_F in its own parallel process, so
    // a shared path would let tests unlink each other's sockets.
    root_ = ::testing::TempDir() + "rsm_server_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    auto dict =
        std::make_shared<BasisDictionary>(BasisDictionary::quadratic(kVars));
    Rng rng(5);
    std::vector<ModelTerm> terms;
    for (Index m = 0; m < dict->size(); m += 2)
      terms.push_back({m, rng.normal()});
    model_ = SparseModel(dict, std::move(terms));
    ModelRegistry registry(root_ + "/registry");
    registry.save("m", model_);

    ServerOptions options;
    options.socket_path = root_ + "/server.sock";
    options.registry_root = root_ + "/registry";
    options.num_threads = 2;
    options.batch_chunk = 8;  // small, so modest batches exercise the pool
    options.cancel = cancel_.token();
    options.poll_interval_seconds = 0.01;
    server_ = std::make_unique<ModelServer>(std::move(options));
    // The listener is bound by the constructor, so the client below cannot
    // race it; run() executes on the repo's pool abstraction.
    runner_.submit([this] { server_->run(); });
  }

  void TearDown() override {
    cancel_.request_cancel();
    runner_.wait_idle();
    server_.reset();
  }

  [[nodiscard]] std::string socket_path() const {
    return root_ + "/server.sock";
  }

  [[nodiscard]] static std::string eval_payload(std::span<const Real> point) {
    std::string payload;
    io::put_bytes(payload, "m");
    io::put_u32(payload, 0);  // version 0 = latest
    io::put_u32(payload, static_cast<std::uint32_t>(point.size()));
    for (const Real x : point) io::put_real(payload, x);
    return payload;
  }

  std::string root_;
  SparseModel model_;
  CancellationSource cancel_;
  ThreadPool runner_{ThreadPool::Options{.num_threads = 1}};
  std::unique_ptr<ModelServer> server_;
};

TEST_F(ServerTest, EvalIsBitIdenticalToInProcessPredict) {
  TestClient client(socket_path());
  Rng rng(31);
  const Matrix points = monte_carlo_normal(20, kVars, rng);
  for (Index r = 0; r < points.rows(); ++r) {
    client.send_frame(MessageType::kEvalRequest, eval_payload(points.row(r)));
    const std::optional<Frame> response = client.recv_frame();
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->type, MessageType::kEvalResponse);
    io::WireReader in(response->payload, "eval response");
    ASSERT_TRUE(same_bits(in.real(), model_.predict(points.row(r))));
  }
}

TEST_F(ServerTest, EvalBatchSplitsAcrossPoolAndMatchesBitwise) {
  TestClient client(socket_path());
  Rng rng(37);
  const Index rows = 50;  // > batch_chunk (8): forces the pooled split path
  const Matrix points = monte_carlo_normal(rows, kVars, rng);
  std::string payload;
  io::put_bytes(payload, "m");
  io::put_u32(payload, 0);
  io::put_u32(payload, static_cast<std::uint32_t>(rows));
  io::put_u32(payload, static_cast<std::uint32_t>(kVars));
  for (Index r = 0; r < rows; ++r)
    for (Index c = 0; c < kVars; ++c) io::put_real(payload, points(r, c));
  client.send_frame(MessageType::kEvalBatchRequest, payload);

  const std::optional<Frame> response = client.recv_frame();
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, MessageType::kEvalBatchResponse);
  io::WireReader in(response->payload, "eval_batch response");
  ASSERT_EQ(in.u32(), static_cast<std::uint32_t>(rows));
  std::vector<Real> expected(static_cast<std::size_t>(rows));
  model_.predict_batch(points, expected);
  for (Index r = 0; r < rows; ++r)
    ASSERT_TRUE(same_bits(in.real(), expected[static_cast<std::size_t>(r)]))
        << "row " << r;
}

TEST_F(ServerTest, EvalBatchRepliesAreByteIdenticalAcrossWorkerCounts) {
  // The worker count changes how an eval_batch's parts are scheduled, never
  // a reply byte: servers with 1, 2 and 4 pool threads answer one request
  // with the bytes of an in-process predict_batch.
  Rng rng(41);
  const Index rows = 53;  // 6 full parts of batch_chunk (8) and a short one
  const Matrix points = monte_carlo_normal(rows, kVars, rng);
  std::string request;
  io::put_bytes(request, "m");
  io::put_u32(request, 0);
  io::put_u32(request, static_cast<std::uint32_t>(rows));
  io::put_u32(request, static_cast<std::uint32_t>(kVars));
  for (Index r = 0; r < rows; ++r) io::put_reals(request, points.row(r));
  std::vector<Real> predicted(static_cast<std::size_t>(rows));
  model_.predict_batch(points, predicted);
  std::string expected;
  io::put_u32(expected, static_cast<std::uint32_t>(rows));
  io::put_reals(expected, predicted);

  for (const int threads : {1, 2, 4}) {
    const std::string socket =
        root_ + "/server" + std::to_string(threads) + ".sock";
    CancellationSource cancel;
    ServerOptions options;
    options.socket_path = socket;
    options.registry_root = root_ + "/registry";
    options.num_threads = threads;
    options.batch_chunk = 8;
    options.cancel = cancel.token();
    options.poll_interval_seconds = 0.01;
    ModelServer server(std::move(options));
    ThreadPool runner(ThreadPool::Options{.num_threads = 1});
    runner.submit([&server] { server.run(); });
    std::optional<Frame> response;
    {
      TestClient client(socket);
      client.send_frame(MessageType::kEvalBatchRequest, request);
      response = client.recv_frame();
    }
    cancel.request_cancel();
    runner.wait_idle();
    ASSERT_TRUE(response.has_value()) << threads << " threads";
    EXPECT_EQ(response->type, MessageType::kEvalBatchResponse);
    EXPECT_EQ(response->payload, expected) << threads << " threads";
  }
}

TEST_F(ServerTest, YieldMatchesInProcessEstimate) {
  TestClient client(socket_path());
  std::string payload;
  io::put_bytes(payload, "m");
  io::put_u32(payload, 0);
  io::put_real(payload, -1e30);
  io::put_real(payload, 1.0);
  io::put_u64(payload, 5000);
  io::put_u64(payload, 77);
  client.send_frame(MessageType::kYieldRequest, payload);

  const std::optional<Frame> response = client.recv_frame();
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, MessageType::kYieldResponse);
  io::WireReader in(response->payload, "yield response");

  Specification spec;
  spec.lower = -1e30;
  spec.upper = 1.0;
  Rng rng(77);
  const YieldResult local = estimate_yield(model_, spec, 5000, rng);
  EXPECT_TRUE(same_bits(in.real(), local.yield));
  EXPECT_TRUE(same_bits(in.real(), local.standard_error));
  EXPECT_EQ(in.u64(), static_cast<std::uint64_t>(local.num_samples));
  EXPECT_EQ(in.u64(), static_cast<std::uint64_t>(local.num_failures));
}

TEST_F(ServerTest, BadRequestsEarnStructuredErrorsAndConnectionSurvives) {
  TestClient client(socket_path());

  // Unknown model: io-error.
  std::string payload;
  io::put_bytes(payload, "ghost");
  io::put_u32(payload, 0);
  io::put_u32(payload, 1);
  io::put_real(payload, 0.0);
  client.send_frame(MessageType::kEvalRequest, payload);
  std::optional<Frame> response = client.recv_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(parse_error(*response).code, ErrorCode::kIoError);

  // Dimension mismatch: protocol-error (well-framed, semantically wrong).
  std::vector<Real> short_point(static_cast<std::size_t>(kVars - 1), 0.0);
  client.send_frame(MessageType::kEvalRequest, eval_payload(short_point));
  response = client.recv_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(parse_error(*response).code, ErrorCode::kProtocolError);

  // Truncated payload: protocol-error, still alive.
  client.send_frame(MessageType::kEvalRequest, "\x01");
  response = client.recv_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(parse_error(*response).code, ErrorCode::kProtocolError);

  // Unknown message type: protocol-error, still alive.
  client.send_frame(static_cast<MessageType>(0x33), "");
  response = client.recv_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(parse_error(*response).code, ErrorCode::kProtocolError);

  // The connection survived all four: a valid request still answers.
  const std::vector<Real> point(static_cast<std::size_t>(kVars), 0.25);
  client.send_frame(MessageType::kEvalRequest, eval_payload(point));
  response = client.recv_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, MessageType::kEvalResponse);
}

TEST_F(ServerTest, HostileSampleCountsAreProtocolErrors) {
  // Headers that declare far more samples than their frames carry: the
  // counts must be refused against the payload before anything is sized
  // from them (no signed overflow in rows * cols, no 32 GiB reserve).
  TestClient client(socket_path());
  const auto batch_header = [](std::uint32_t rows, std::uint32_t cols) {
    std::string payload;
    io::put_bytes(payload, "m");
    io::put_u32(payload, 0);
    io::put_u32(payload, rows);
    io::put_u32(payload, cols);
    return payload;
  };
  std::string eval;  // n = 2^32 - 1
  io::put_bytes(eval, "m");
  io::put_u32(eval, 0);
  io::put_u32(eval, 0xffffffffu);
  const std::pair<MessageType, std::string> hostile[] = {
      {MessageType::kEvalBatchRequest, batch_header(0xffffffffu, 0xffffffffu)},
      {MessageType::kEvalBatchRequest, batch_header(65536, 65536)},
      {MessageType::kEvalRequest, eval},
  };
  for (const auto& [type, payload] : hostile) {
    client.send_frame(type, payload);
    const std::optional<Frame> response = client.recv_frame();
    ASSERT_TRUE(response.has_value());
    const ErrorFrame error = parse_error(*response);
    EXPECT_EQ(error.code, ErrorCode::kProtocolError) << error.message;
  }

  // The connection survived all three: a valid request still answers.
  const std::vector<Real> point(static_cast<std::size_t>(kVars), 0.25);
  client.send_frame(MessageType::kEvalRequest, eval_payload(point));
  const std::optional<Frame> response = client.recv_frame();
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, MessageType::kEvalResponse);
  io::WireReader in(response->payload, "eval response");
  EXPECT_TRUE(same_bits(in.real(), model_.predict(point)));
}

TEST_F(ServerTest, FramingCorruptionClosesOnlyThatConnection) {
  TestClient victim(socket_path());
  std::string wire = encode_frame(MessageType::kListModelsRequest, "");
  wire.back() = static_cast<char>(static_cast<unsigned char>(wire.back()) ^ 1);
  victim.send_raw(wire);
  const std::optional<Frame> response = victim.recv_frame();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(parse_error(*response).code, ErrorCode::kProtocolError);
  EXPECT_TRUE(victim.at_eof());  // stream desynced: server hung up

  // An uninvolved connection is unaffected.
  TestClient bystander(socket_path());
  bystander.send_frame(MessageType::kListModelsRequest, "");
  const std::optional<Frame> listing = bystander.recv_frame();
  ASSERT_TRUE(listing.has_value());
  EXPECT_EQ(listing->type, MessageType::kListModelsResponse);
  io::WireReader in(listing->payload, "list response");
  EXPECT_EQ(in.u32(), 1u);
}

TEST_F(ServerTest, CancellationDrainsEveryBufferedRequest) {
  TestClient client(socket_path());
  const Index kRequests = 25;
  const std::vector<Real> point(static_cast<std::size_t>(kVars), 0.5);
  std::string burst;
  for (Index i = 0; i < kRequests; ++i)
    burst += encode_frame(MessageType::kEvalRequest, eval_payload(point));
  client.send_raw(burst);
  cancel_.request_cancel();  // race the burst: drain must still answer all

  const Real expected = model_.predict(point);
  for (Index i = 0; i < kRequests; ++i) {
    const std::optional<Frame> response = client.recv_frame();
    ASSERT_TRUE(response.has_value()) << "response " << i << " lost in drain";
    ASSERT_EQ(response->type, MessageType::kEvalResponse);
    io::WireReader in(response->payload, "drained eval");
    ASSERT_TRUE(same_bits(in.real(), expected));
  }
  EXPECT_TRUE(client.at_eof());

  runner_.wait_idle();
  EXPECT_GE(server_->stats().requests_served,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(server_->stats().evals, static_cast<std::uint64_t>(kRequests));
  // The socket file is gone once the server object is destroyed.
  server_.reset();
  EXPECT_FALSE(std::filesystem::exists(socket_path()));
}

}  // namespace
}  // namespace rsm::serve
