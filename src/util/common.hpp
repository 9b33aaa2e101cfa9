// Shared fundamental types and assertion macros for the sparse-RSM library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>

namespace rsm {

/// Floating-point type used throughout the library. All numerical kernels are
/// written against this alias so a single edit switches precision.
using Real = double;

/// Signed index type. Signed to keep loop arithmetic (e.g., `j - 1` in
/// back-substitution) well-defined without casts.
using Index = std::ptrdiff_t;

/// splitmix64's finalizer: a bijective mix of one 64-bit word. Xoshiro256
/// seeds its state with it and the fault schedules hash with it.
[[nodiscard]] constexpr std::uint64_t splitmix64_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Exception thrown on precondition violations and numerical failures.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const std::string& msg,
                                      const std::source_location loc) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace rsm

/// Runtime check, always enabled. Throws rsm::Error with file:line context.
#define RSM_CHECK(expr)                                                      \
  do {                                                                       \
    if (!(expr))                                                             \
      ::rsm::detail::check_failed(#expr, {}, std::source_location::current()); \
  } while (false)

/// Runtime check with a streamed message: RSM_CHECK_MSG(x > 0, "x=" << x).
#define RSM_CHECK_MSG(expr, msg)                                             \
  do {                                                                       \
    if (!(expr)) {                                                           \
      std::ostringstream rsm_check_os_;                                      \
      rsm_check_os_ << msg;                                                  \
      ::rsm::detail::check_failed(#expr, rsm_check_os_.str(),                \
                                  std::source_location::current());          \
    }                                                                        \
  } while (false)

/// Debug-only check for hot loops. In NDEBUG builds the expression is
/// type-checked (sizeof of an unevaluated operand) but never evaluated, so
/// it costs nothing at runtime yet cannot bitrot in release-only code.
#ifdef NDEBUG
#define RSM_DCHECK(expr) static_cast<void>(sizeof((expr) ? 1 : 0))
#else
#define RSM_DCHECK(expr) RSM_CHECK(expr)
#endif

/// True when RSM_DCHECK is enforced at runtime (i.e. a debug build); lets
/// tests assert the macro fires exactly when it should.
namespace rsm {
#ifdef NDEBUG
inline constexpr bool kDchecksEnabled = false;
#else
inline constexpr bool kDchecksEnabled = true;
#endif
}  // namespace rsm
