// Wire codec contract: every reader accessor fails closed with an IoError
// naming its context when the buffer is one byte short, a declared length
// is checked before anything is allocated for it, trailing bytes are
// refused, every writer/reader pair round-trips its extreme values bit for
// bit, and the bulk real-array pair writes exactly the bytes of the
// per-value one.
#include "io/wire.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "util/errors.hpp"

// Records the largest operator-new request made while armed, so a test can
// show that a hostile declared length never reaches the allocator.
namespace {
thread_local bool g_track_allocations = false;
thread_local std::size_t g_largest_allocation = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_track_allocations && size > g_largest_allocation)
    g_largest_allocation = size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rsm::io {
namespace {

constexpr const char* kContext = "wire test artifact";

/// `read` on `bytes` must throw IoError whose message names the reader's
/// context.
void expect_short(std::string_view bytes,
                  const std::function<void(WireReader&)>& read,
                  const char* accessor) {
  WireReader in(bytes, kContext);
  try {
    read(in);
    ADD_FAILURE() << accessor << " read past a " << bytes.size()
                  << "-byte buffer";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(kContext), std::string::npos)
        << accessor << ": " << e.what();
  }
}

TEST(Wire, EveryAccessorOneByteShortThrowsNamingContext) {
  const std::string full(16, '\x5a');
  expect_short(full.substr(0, 0), [](WireReader& in) { (void)in.u8(); },
               "u8");
  expect_short(full.substr(0, 1), [](WireReader& in) { (void)in.u16(); },
               "u16");
  expect_short(full.substr(0, 3), [](WireReader& in) { (void)in.u32(); },
               "u32");
  expect_short(full.substr(0, 7), [](WireReader& in) { (void)in.u64(); },
               "u64");
  expect_short(full.substr(0, 7), [](WireReader& in) { (void)in.real(); },
               "real");
  expect_short(full.substr(0, 4), [](WireReader& in) { (void)in.raw(5); },
               "raw");
  // bytes(): first a length prefix one byte short, then a body one short.
  expect_short(full.substr(0, 3), [](WireReader& in) { (void)in.bytes(); },
               "bytes length");
  std::string declared_five;
  put_u32(declared_five, 5);
  declared_five.append(4, 'x');
  expect_short(declared_five, [](WireReader& in) { (void)in.bytes(); },
               "bytes body");
}

TEST(Wire, DeclaredLengthBeyondBufferThrowsBeforeAllocating) {
  constexpr std::uint32_t kDeclared = 64u << 20;  // 64 MiB, 8 bytes present
  std::string bytes;
  put_u32(bytes, kDeclared);
  bytes.append(8, 'y');
  WireReader in(bytes, kContext);
  g_largest_allocation = 0;
  g_track_allocations = true;
  bool threw = false;
  try {
    (void)in.bytes();
  } catch (const IoError&) {
    threw = true;
  }
  g_track_allocations = false;
  EXPECT_TRUE(threw);
  // The error message itself allocates a little; nothing near the declared
  // size may have been requested.
  EXPECT_LT(g_largest_allocation, std::size_t{4096});
}

TEST(Wire, ExpectDoneRejectsTrailingBytes) {
  std::string bytes;
  put_u32(bytes, 7);
  put_u8(bytes, 1);
  WireReader in(bytes, kContext);
  EXPECT_EQ(in.u32(), 7u);
  try {
    in.expect_done();
    FAIL() << "expect_done accepted a trailing byte";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(kContext), std::string::npos);
  }
  EXPECT_EQ(in.u8(), 1u);
  EXPECT_NO_THROW(in.expect_done());
}

constexpr std::uint64_t kQuietNanPayload = 0x7ff8dead0000beefull;
constexpr std::uint64_t kNegativeSignalingNan = 0xfff0000000000001ull;

/// Doubles whose bit patterns a lossy codec would disturb: signed zeros,
/// the extremes, denormals, infinities and NaNs carrying payloads. The
/// tests below use fixed arrays: against this file's replacement operator
/// new, a std::vector trips GCC's -Wmismatched-new-delete.
constexpr std::size_t kNumExtremeReals = 11;
std::array<Real, kNumExtremeReals> extreme_reals() {
  return {
      0.0,
      -0.0,
      std::numeric_limits<Real>::max(),
      std::numeric_limits<Real>::lowest(),
      std::numeric_limits<Real>::min() / 3,  // denormal
      std::numeric_limits<Real>::denorm_min(),
      -std::numeric_limits<Real>::denorm_min(),
      std::numeric_limits<Real>::infinity(),
      -std::numeric_limits<Real>::infinity(),
      std::bit_cast<Real>(kQuietNanPayload),
      std::bit_cast<Real>(kNegativeSignalingNan),
  };
}

TEST(Wire, ExtremeValuesRoundTripExactly) {
  const Real reals[] = {
      0.0,
      -0.0,
      std::numeric_limits<Real>::max(),
      std::numeric_limits<Real>::lowest(),
      std::numeric_limits<Real>::denorm_min(),
      -std::numeric_limits<Real>::denorm_min(),
      std::numeric_limits<Real>::infinity(),
      std::bit_cast<Real>(kQuietNanPayload),
      std::bit_cast<Real>(kNegativeSignalingNan),
  };
  std::string bytes;
  for (const std::uint8_t v : {std::uint8_t{0}, std::uint8_t{0xff}})
    put_u8(bytes, v);
  for (const std::uint16_t v : {std::uint16_t{0}, std::uint16_t{0xffff}})
    put_u16(bytes, v);
  for (const std::uint32_t v : {0u, 0xffffffffu}) put_u32(bytes, v);
  for (const std::uint64_t v : {std::uint64_t{0}, ~std::uint64_t{0}})
    put_u64(bytes, v);
  for (const Real v : reals) put_real(bytes, v);
  const std::string blob("\0\xff raw", 6);
  put_bytes(bytes, blob);
  put_bytes(bytes, "");

  WireReader in(bytes, kContext);
  EXPECT_EQ(in.u8(), 0u);
  EXPECT_EQ(in.u8(), 0xffu);
  EXPECT_EQ(in.u16(), 0u);
  EXPECT_EQ(in.u16(), 0xffffu);
  EXPECT_EQ(in.u32(), 0u);
  EXPECT_EQ(in.u32(), 0xffffffffu);
  EXPECT_EQ(in.u64(), 0u);
  EXPECT_EQ(in.u64(), ~std::uint64_t{0});
  for (const Real v : reals) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.real()),
              std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_EQ(in.bytes(), blob);
  EXPECT_EQ(in.bytes(), "");
  EXPECT_NO_THROW(in.expect_done());
}

TEST(Wire, PutRealsWritesTheBytesOfAPutRealLoop) {
  const std::array<Real, kNumExtremeReals> values = extreme_reals();
  std::string looped = "prefix";
  for (const Real v : values) put_real(looped, v);
  std::string bulk = "prefix";
  put_reals(bulk, values);
  EXPECT_EQ(bulk, looped);

  std::string empty = "prefix";
  put_reals(empty, std::span<const Real>{});
  EXPECT_EQ(empty, "prefix");
}

TEST(Wire, RealsRoundTripEveryBitPattern) {
  const std::array<Real, kNumExtremeReals> values = extreme_reals();
  std::string bytes;
  put_u8(bytes, 0x17);  // leaves the array at an odd offset
  put_reals(bytes, values);
  for (const Real v : values) put_real(bytes, v);

  WireReader in(bytes, kContext);
  EXPECT_EQ(in.u8(), 0x17u);
  const RealsView bulk = in.reals(kNumExtremeReals);
  const RealsView from_put_real = in.reals(kNumExtremeReals);
  EXPECT_NO_THROW(in.expect_done());
  ASSERT_EQ(bulk.size(), values.size());
  ASSERT_EQ(from_put_real.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bulk[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "value " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(from_put_real[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "value " << i;
  }
}

TEST(Wire, RealsOneByteShortThrowsAndWritesNothing) {
  const std::array<Real, 3> values = {1.5, -2.25, 1e-300};
  std::string bytes;
  put_u32(bytes, 3);
  put_reals(bytes, values);
  bytes.pop_back();

  WireReader in(bytes, kContext);
  ASSERT_EQ(in.u32(), 3u);
  const std::size_t before = in.position();
  try {
    (void)in.reals(3);
    FAIL() << "reals viewed past a buffer one byte short";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(kContext), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(in.position(), before);
  // A count whose byte size overflows 64 bits is refused the same way.
  EXPECT_THROW((void)in.reals(~std::uint64_t{0}), IoError);
  EXPECT_EQ(in.position(), before);
  // The reader is still usable: the values that are whole read back.
  const RealsView whole = in.reals(2);
  EXPECT_EQ(whole[0], 1.5);
  EXPECT_EQ(whole[1], -2.25);
}

}  // namespace
}  // namespace rsm::io
