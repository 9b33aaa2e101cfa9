#include "serve/protocol.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "io/crc32.hpp"
#include "io/wire.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"

namespace rsm::serve {

std::string encode_frame(MessageType type, std::string_view payload) {
  RSM_CHECK_MSG(payload.size() <= kMaxFramePayload,
                "frame payload of " << payload.size()
                                    << " bytes exceeds protocol cap");
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + 4);
  io::put_u32(out, kFrameMagic);
  io::put_u8(out, static_cast<std::uint8_t>(type));
  io::put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  io::put_u32(out, io::crc32(out.data(), out.size()));
  return out;
}

std::optional<FrameView> peek_frame(std::string_view buffer) {
  if (buffer.size() < kFrameHeaderBytes) return std::nullopt;

  io::WireReader header(buffer.substr(0, kFrameHeaderBytes), "frame header");
  const std::uint32_t magic = header.u32();
  if (magic != kFrameMagic) {
    std::ostringstream os;
    os << "frame magic 0x" << std::hex << magic << " (expected 0x"
       << kFrameMagic << ") — stream desynchronized";
    throw ProtocolError(os.str());
  }
  const std::uint8_t type = header.u8();
  const std::uint32_t payload_len = header.u32();
  if (payload_len > kMaxFramePayload) {
    std::ostringstream os;
    os << "declared payload of " << payload_len << " bytes exceeds cap of "
       << kMaxFramePayload;
    throw ProtocolError(os.str());
  }

  const std::size_t frame_bytes = kFrameHeaderBytes + payload_len + 4;
  if (buffer.size() < frame_bytes) return std::nullopt;

  // Only a complete frame reaches the span, so partial-frame polls between
  // recv calls are not counted as decode time.
  RSM_TRACE_SPAN("serve.frame_decode");
  const std::size_t crc_at = kFrameHeaderBytes + payload_len;
  io::WireReader crc_in(buffer.substr(crc_at, 4), "frame crc");
  const std::uint32_t stored_crc = crc_in.u32();
  if (io::crc32(buffer.data(), crc_at) != stored_crc)
    throw ProtocolError("frame CRC mismatch");

  const std::string_view payload =
      buffer.substr(kFrameHeaderBytes, payload_len);
  return FrameView{static_cast<MessageType>(type), payload, frame_bytes};
}

std::span<char> FrameBuffer::read_window() {
  std::size_t want = kReadChunk;
  if (size_ >= kFrameHeaderBytes) {
    io::WireReader header(view().substr(0, kFrameHeaderBytes),
                          "frame header");
    (void)header.u32();  // magic
    (void)header.u8();   // type
    const std::size_t frame_bytes =
        kFrameHeaderBytes + std::size_t{header.u32()} + 4;
    if (frame_bytes > size_) want = std::max(want, frame_bytes - size_);
  }
  want = std::min(want, size_ + kReadChunk);
  if (capacity_ - size_ < want) {
    const std::size_t grown_capacity = size_ + want;
    auto grown = std::make_unique_for_overwrite<char[]>(grown_capacity);
    if (size_ > 0) std::memcpy(grown.get(), data_.get(), size_);
    data_ = std::move(grown);
    capacity_ = grown_capacity;
  }
  return {data_.get() + size_, capacity_ - size_};
}

void FrameBuffer::commit(std::size_t n) {
  RSM_CHECK(n <= capacity_ - size_);
  size_ += n;
}

void FrameBuffer::consume(std::size_t n) {
  RSM_CHECK(n <= size_);
  size_ -= n;
  if (n > 0 && size_ > 0) std::memmove(data_.get(), data_.get() + n, size_);
}

std::optional<Frame> try_extract_frame(std::string& buffer) {
  const std::optional<FrameView> view = peek_frame(buffer);
  if (!view.has_value()) return std::nullopt;
  Frame frame{view->type, std::string(view->payload)};
  buffer.erase(0, view->size);
  return frame;
}

}  // namespace rsm::serve
