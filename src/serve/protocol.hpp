// Length-prefixed, CRC-guarded binary framing for the model server.
//
// A client connection is a byte stream of frames:
//
//   magic        u32  kFrameMagic ("RSF1" little-endian)
//   type         u8   MessageType
//   payload_len  u32  <= kMaxFramePayload
//   payload      payload_len bytes (request/response body, io/wire.hpp)
//   crc          u32  CRC32 of the frame's first 9 + payload_len bytes
//
// peek_frame() checks the frame at the front of a receive buffer in place:
// an incomplete frame returns nullopt (read more), a structurally invalid
// one — wrong magic, length beyond the cap, CRC mismatch — throws a
// structured ProtocolError, and a valid one comes back as a view of its
// payload, so the server decodes requests without copying them.
// try_extract_frame() is peek_frame plus a copy of the payload and the
// erase of the frame's bytes. After a malformed frame the stream offset is
// unknowable, so the server replies with an error frame and closes the
// connection instead of guessing a resync point. FrameBuffer is the
// server's receive buffer: recv(2) writes into it directly, each read sized
// from the frame header already buffered.
//
// Payload layouts (all io/wire.hpp little-endian; `bytes` = u32 len + raw):
//
//   kEvalRequest        bytes name, u32 version, u32 n, n x real sample
//   kEvalResponse       real value
//   kEvalBatchRequest   bytes name, u32 version, u32 rows, u32 cols,
//                       rows*cols x real (row-major)
//   kEvalBatchResponse  u32 rows, rows x real
//   kYieldRequest       bytes name, u32 version, real lower, real upper,
//                       u64 num_samples, u64 seed
//   kYieldResponse      real yield, real standard_error, u64 num_samples,
//                       u64 num_failures
//   kWorstCaseRequest   bytes name, u32 version, real radius, u8 maximize
//   kWorstCaseResponse  real value, real sigma_distance, u32 iterations,
//                       u8 converged, u32 n, n x real corner
//   kListModelsRequest  (empty)
//   kListModelsResponse u32 count, count x (bytes name, u32 version,
//                       u64 fingerprint, u32 num_variables, u32 num_terms)
//   kReloadRequest      (empty)
//   kReloadResponse     u32 models_reloaded, u32 models_failed
//   kErrorResponse      u8 ErrorCode, bytes message; kOverloaded frames
//                       append u32 retry_after_ms (a backoff hint — the
//                       request was shed by admission control and will
//                       succeed on retry once load drains)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/common.hpp"

namespace rsm::serve {

inline constexpr std::uint32_t kFrameMagic = 0x31465352;  // "RSF1" in LE
inline constexpr std::size_t kFrameHeaderBytes = 9;       // magic+type+len
inline constexpr std::size_t kMaxFramePayload = 16u << 20;

enum class MessageType : std::uint8_t {
  kEvalRequest = 1,
  kEvalBatchRequest = 2,
  kYieldRequest = 3,
  kWorstCaseRequest = 4,
  kListModelsRequest = 5,
  // 6 and 7 are skipped: responses are request|64, and 6|64 = 70 is taken
  // by kErrorResponse (7|64 = 71 stays reserved alongside it).
  kReloadRequest = 8,

  kEvalResponse = 65,
  kEvalBatchResponse = 66,
  kYieldResponse = 67,
  kWorstCaseResponse = 68,
  kListModelsResponse = 69,
  kErrorResponse = 70,
  kReloadResponse = 72,
};

struct Frame {
  MessageType type = MessageType::kErrorResponse;
  std::string payload;
};

/// A checked frame still inside the buffer it was read from: `payload`
/// views that buffer, and `size` counts the whole frame (header, payload
/// and CRC), the bytes to drop once it has been handled.
struct FrameView {
  MessageType type = MessageType::kErrorResponse;
  std::string_view payload;
  std::size_t size = 0;
};

/// Wraps `payload` in a complete frame (header + CRC), ready to send.
[[nodiscard]] std::string encode_frame(MessageType type,
                                       std::string_view payload);

/// Checks the frame at the front of `buffer` without copying or consuming
/// it. Returns nullopt while the buffer holds only a prefix of a frame;
/// throws ProtocolError when the bytes at the front cannot be a valid frame.
[[nodiscard]] std::optional<FrameView> peek_frame(std::string_view buffer);

/// A receive buffer the kernel writes into directly: read_window() is the
/// free space a recv(2) fills, commit() counts what it wrote, and the
/// frames at the front are checked and handled in place through view().
/// Memory is never zero-filled.
class FrameBuffer {
 public:
  /// The least a read asks for.
  static constexpr std::size_t kReadChunk = 64u << 10;

  /// Free space for the next read, valid until the next non-const call. It
  /// is at least kReadChunk bytes and covers the rest of the frame whose
  /// header is at the front, but the buffer grows only to twice the bytes
  /// it holds plus kReadChunk: a header alone cannot make it reserve the
  /// payload the header declares, and a large frame's window doubles per
  /// read. Growing copies the bytes held, which a connection pays only
  /// while its largest frame so far arrives.
  [[nodiscard]] std::span<char> read_window();

  /// Counts `n` bytes written at the front of the last read_window().
  void commit(std::size_t n);

  /// Drops the first `n` bytes (the frames handled) and moves what remains
  /// — at most a partial frame — to the front.
  void consume(std::size_t n);

  [[nodiscard]] std::string_view view() const {
    return {data_.get(), size_};
  }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::unique_ptr<char[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Pops one complete frame off the front of `buffer` (erasing its bytes):
/// peek_frame, then a copy of the payload. Returns and throws as peek_frame
/// does, and leaves `buffer` untouched unless it returns a frame.
[[nodiscard]] std::optional<Frame> try_extract_frame(std::string& buffer);

}  // namespace rsm::serve
