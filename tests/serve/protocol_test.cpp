// Framing contract: frames survive arbitrary fragmentation and
// concatenation, and every structural violation — bad magic, oversized
// payload, checksum mismatch — is a ProtocolError before any payload byte
// is interpreted. The receive buffer sizes each read from the buffered
// header, but a header alone cannot make it reserve the payload declared.
#include "serve/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "io/wire.hpp"
#include "support/hex.hpp"
#include "util/errors.hpp"

namespace rsm::serve {
namespace {

TEST(Protocol, RoundTripAndBufferConsumption) {
  std::string buffer =
      encode_frame(MessageType::kEvalRequest, "payload-bytes");
  const std::optional<Frame> frame = try_extract_frame(buffer);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MessageType::kEvalRequest);
  EXPECT_EQ(frame->payload, "payload-bytes");
  EXPECT_TRUE(buffer.empty());
}

TEST(Protocol, EmptyPayloadRoundTrips) {
  std::string buffer = encode_frame(MessageType::kListModelsRequest, "");
  const std::optional<Frame> frame = try_extract_frame(buffer);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->payload.empty());
}

TEST(Protocol, SurvivesBytewiseFragmentation) {
  const std::string wire =
      encode_frame(MessageType::kYieldRequest, "fragmented");
  std::string buffer;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    buffer += wire[i];
    EXPECT_FALSE(try_extract_frame(buffer).has_value())
        << "frame extracted " << (wire.size() - 1 - i) << " bytes early";
  }
  buffer += wire.back();
  const std::optional<Frame> frame = try_extract_frame(buffer);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "fragmented");
}

TEST(Protocol, ExtractsConcatenatedFramesInOrder) {
  std::string buffer = encode_frame(MessageType::kEvalRequest, "one") +
                       encode_frame(MessageType::kEvalBatchRequest, "two");
  const std::optional<Frame> first = try_extract_frame(buffer);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload, "one");
  const std::optional<Frame> second = try_extract_frame(buffer);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, MessageType::kEvalBatchRequest);
  EXPECT_EQ(second->payload, "two");
  EXPECT_FALSE(try_extract_frame(buffer).has_value());
}

TEST(Protocol, BadMagicIsProtocolError) {
  std::string buffer = encode_frame(MessageType::kEvalRequest, "x");
  buffer[0] = 'Z';
  EXPECT_THROW((void)try_extract_frame(buffer), ProtocolError);
}

TEST(Protocol, CrcMismatchIsProtocolError) {
  std::string buffer = encode_frame(MessageType::kEvalRequest, "checksum-me");
  buffer[buffer.size() / 2] =
      static_cast<char>(static_cast<unsigned char>(buffer[buffer.size() / 2]) ^
                        0x01);
  EXPECT_THROW((void)try_extract_frame(buffer), ProtocolError);
}

TEST(Protocol, OversizedPayloadRejectedFromHeaderAlone) {
  // Only the 9-byte header is present; the declared length alone must
  // trigger rejection — a server that waited for the bytes could be made
  // to buffer 4 GiB per connection.
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::string buffer(kFrameHeaderBytes, '\0');
  std::memcpy(buffer.data(), &magic, 4);
  buffer[4] = static_cast<char>(MessageType::kEvalRequest);
  std::memcpy(buffer.data() + 5, &huge, 4);
  try {
    (void)try_extract_frame(buffer);
    FAIL() << "oversized declared payload accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocolError);
  }
}

TEST(Protocol, PartialHeaderIsIncompleteNotError) {
  std::string buffer = encode_frame(MessageType::kEvalRequest, "x");
  buffer.resize(kFrameHeaderBytes - 1);
  EXPECT_FALSE(try_extract_frame(buffer).has_value());
  EXPECT_EQ(buffer.size(), kFrameHeaderBytes - 1);  // nothing consumed
}

TEST(Protocol, PeekFrameMatchesExtractAndLeavesBufferUnchanged) {
  std::string batch;
  io::put_bytes(batch, "m");
  io::put_u32(batch, 0);
  io::put_u32(batch, 2);
  io::put_u32(batch, 3);
  const std::vector<Real> samples = {1.0, -0.0, 1e-300, 2.5, -7.0, 0.125};
  io::put_reals(batch, samples);
  const std::vector<Frame> frames = {
      {MessageType::kEvalBatchRequest, batch},
      {MessageType::kListModelsRequest, ""},
      {MessageType::kEvalRequest, "payload-bytes"},
  };
  for (const Frame& original : frames) {
    const std::string wire = encode_frame(original.type, original.payload);
    // A second frame behind the first must not change what is peeked.
    const std::string input =
        wire + encode_frame(MessageType::kYieldRequest, "next");
    const std::optional<FrameView> view = peek_frame(input);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->size, wire.size());
    // A view into the buffer, not a copy.
    EXPECT_EQ(view->payload.data(), input.data() + kFrameHeaderBytes);

    std::string buffer = input;
    const std::optional<Frame> extracted = try_extract_frame(buffer);
    ASSERT_TRUE(extracted.has_value());
    EXPECT_EQ(view->type, extracted->type);
    EXPECT_EQ(view->payload, extracted->payload);
    EXPECT_EQ(extracted->payload, original.payload);
    EXPECT_EQ(buffer, input.substr(wire.size()));

    // Every strict prefix is incomplete for both, and neither consumes it.
    for (std::size_t len = 0; len < wire.size(); ++len) {
      std::string prefix = wire.substr(0, len);
      EXPECT_FALSE(peek_frame(prefix).has_value()) << len << " bytes";
      EXPECT_FALSE(try_extract_frame(prefix).has_value()) << len << " bytes";
      EXPECT_EQ(prefix, wire.substr(0, len));
    }
  }
}

// An eval request for model "srv", version 0, at sample (0.5, -1.25), as
// an earlier build of the protocol framed it. Deployed clients speak these
// bytes, so they must never change.
constexpr const char* kPinnedEvalFrameHex =
    "52534631011f000000030000007372760000000002000000000000000000e03f000000"
    "000000f4bf269c30cd";

TEST(Protocol, EvalFrameMatchesPinnedBytes) {
  std::string payload;
  io::put_bytes(payload, "srv");
  io::put_u32(payload, 0);
  io::put_u32(payload, 2);
  io::put_real(payload, 0.5);
  io::put_real(payload, -1.25);
  const std::string pinned = from_hex(kPinnedEvalFrameHex);
  EXPECT_EQ(encode_frame(MessageType::kEvalRequest, payload), pinned);

  std::string buffer = pinned;
  const std::optional<Frame> frame = try_extract_frame(buffer);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(frame->type, MessageType::kEvalRequest);
  io::WireReader in(frame->payload, "pinned eval request");
  EXPECT_EQ(in.bytes(), "srv");
  EXPECT_EQ(in.u32(), 0u);
  ASSERT_EQ(in.u32(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(in.real()),
            std::bit_cast<std::uint64_t>(0.5));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(in.real()),
            std::bit_cast<std::uint64_t>(-1.25));
  in.expect_done();
}

TEST(Protocol, EveryTruncationAndBitFlipFailsClosed) {
  // Every prefix and every single-bit flip of a few real frames must be
  // "incomplete" (nullopt) or a ProtocolError, must leave the receive
  // buffer untouched, and must never yield a frame that differs from the
  // one encoded.
  std::string eval;
  io::put_bytes(eval, "m");
  io::put_u32(eval, 0);
  io::put_u32(eval, 2);
  io::put_real(eval, 0.25);
  io::put_real(eval, -3.0);
  std::string batch;
  io::put_bytes(batch, "m");
  io::put_u32(batch, 7);
  io::put_u32(batch, 2);
  io::put_u32(batch, 2);
  for (const Real v : {1.0, -0.0, 1e-300, 2.5}) io::put_real(batch, v);
  std::string error;
  io::put_u8(error, static_cast<std::uint8_t>(ErrorCode::kOverloaded));
  io::put_bytes(error, "server overloaded; retry");
  io::put_u32(error, 25);
  // The CRCs above cover 38, 58 and 42 bytes, all under io::crc32's 64-byte
  // fold threshold. This one covers 150: 144 bytes through the fold where
  // the CPU has it, and a 6-byte tail through the table loop.
  std::string wide_eval;
  io::put_bytes(wide_eval, "m");
  io::put_u32(wide_eval, 0);
  io::put_u32(wide_eval, 16);
  for (int i = 0; i < 16; ++i) io::put_real(wide_eval, 0.125 * i - 1.0);
  const std::vector<Frame> frames = {
      {MessageType::kEvalRequest, eval},
      {MessageType::kEvalBatchRequest, batch},
      {MessageType::kErrorResponse, error},
      {MessageType::kEvalRequest, wide_eval},
  };

  std::size_t attempts = 0;
  std::size_t rejected = 0;
  const auto check = [&](const Frame& original, const std::string& input,
                         const std::string& what) {
    ++attempts;
    std::string buffer = input;
    std::optional<Frame> frame;
    try {
      frame = try_extract_frame(buffer);
    } catch (const ProtocolError&) {
      ++rejected;
      EXPECT_EQ(buffer, input) << what << ": a rejected frame was consumed";
      return;
    }
    if (!frame.has_value()) {
      EXPECT_EQ(buffer, input) << what << ": an incomplete frame was consumed";
      return;
    }
    EXPECT_EQ(frame->type, original.type) << what;
    EXPECT_EQ(frame->payload, original.payload) << what;
  };

  for (const Frame& original : frames) {
    const std::string wire = encode_frame(original.type, original.payload);
    for (std::size_t len = 0; len < wire.size(); ++len)
      check(original, wire.substr(0, len),
            "prefix of " + std::to_string(len) + " bytes");
    for (std::size_t bit = 0; bit < 8 * wire.size(); ++bit) {
      std::string bytes = wire;
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      check(original, bytes, "bit " + std::to_string(bit) + " flipped");
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, attempts);
}

/// What one recv(2) does to a FrameBuffer: writes `bytes` at the front of
/// its read window and commits them.
void receive(FrameBuffer& buffer, std::string_view bytes) {
  const std::span<char> window = buffer.read_window();
  ASSERT_LE(bytes.size(), window.size());
  std::memcpy(window.data(), bytes.data(), bytes.size());
  buffer.commit(bytes.size());
}

/// A frame header declaring `payload_len` bytes of eval_batch payload.
std::string frame_header(std::uint32_t payload_len) {
  std::string header;
  io::put_u32(header, kFrameMagic);
  io::put_u8(header,
             static_cast<std::uint8_t>(MessageType::kEvalBatchRequest));
  io::put_u32(header, payload_len);
  return header;
}

TEST(FrameBufferTest, LoneHeaderCannotReserveItsDeclaredPayload) {
  // A 9-byte header that declares the 16 MiB cap, then silence: the buffer
  // may reserve kReadChunk beyond what it holds, not the declared payload.
  FrameBuffer buffer;
  EXPECT_EQ(buffer.read_window().size(), FrameBuffer::kReadChunk);
  const std::string header =
      frame_header(static_cast<std::uint32_t>(kMaxFramePayload));
  receive(buffer, header);
  EXPECT_EQ(buffer.read_window().size(),
            FrameBuffer::kReadChunk + header.size());
  EXPECT_EQ(buffer.capacity(), 2 * header.size() + FrameBuffer::kReadChunk);
  EXPECT_EQ(buffer.view(), header);

  // A peer that does send the whole payload still gets it in a handful of
  // reads: the window doubles with the bytes held, and the buffer never
  // reserves more than twice what arrived plus one chunk.
  const std::size_t frame_bytes = kFrameHeaderBytes + kMaxFramePayload + 4;
  int reads = 0;
  while (buffer.view().size() < frame_bytes) {
    const std::span<char> window = buffer.read_window();
    ASSERT_LE(buffer.capacity(),
              2 * buffer.view().size() + FrameBuffer::kReadChunk);
    const std::size_t n =
        std::min(window.size(), frame_bytes - buffer.view().size());
    std::memset(window.data(), 0x33, n);
    buffer.commit(n);
    ++reads;
  }
  EXPECT_LE(reads, 10);
  EXPECT_LE(buffer.capacity(), frame_bytes + FrameBuffer::kReadChunk);
}

TEST(FrameBufferTest, ReadWindowCoversTheRestOfTheFrame) {
  // A 170 KB eval frame, the Table IV size: from an empty buffer one
  // chunk, then one read for all the rest; once the buffer has held a
  // frame that large, one read for the next.
  std::string frame = frame_header(170'000);
  frame.append(170'000 + 4, '\x11');
  FrameBuffer buffer;
  receive(buffer, std::string_view(frame).substr(0, FrameBuffer::kReadChunk));
  EXPECT_EQ(buffer.read_window().size(),
            frame.size() - FrameBuffer::kReadChunk);
  receive(buffer, std::string_view(frame).substr(FrameBuffer::kReadChunk));
  EXPECT_EQ(buffer.view(), frame);
  buffer.consume(frame.size());
  EXPECT_TRUE(buffer.empty());
  EXPECT_GE(buffer.read_window().size(), frame.size());

  // A short frame still reads a whole chunk, so frames pipelined behind it
  // arrive in the same read.
  receive(buffer, frame_header(16));
  EXPECT_GE(buffer.read_window().size(), FrameBuffer::kReadChunk);
}

TEST(FrameBufferTest, ConsumeKeepsOnlyTheTrailingPartialFrame) {
  const std::string one = encode_frame(MessageType::kEvalRequest, "one");
  const std::string two = encode_frame(MessageType::kListModelsRequest, "");
  const std::string three = encode_frame(MessageType::kEvalRequest, "three");
  const std::string partial = three.substr(0, 11);
  FrameBuffer buffer;
  receive(buffer, one + two + partial);
  buffer.consume(0);
  EXPECT_EQ(buffer.view(), one + two + partial);
  buffer.consume(one.size() + two.size());
  EXPECT_EQ(buffer.view(), partial);
  receive(buffer, three.substr(partial.size()));
  const std::optional<FrameView> frame = peek_frame(buffer.view());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "three");
  buffer.consume(frame->size);
  EXPECT_TRUE(buffer.empty());
}

}  // namespace
}  // namespace rsm::serve
