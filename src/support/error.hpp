// Error-handling helpers shared by all topomap libraries.
//
// Library code never calls abort()/assert(); precondition violations throw
// std::invalid_argument and internal invariant violations throw
// std::logic_error, so callers (tests, long-running harnesses) can recover.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace topomap {

/// Thrown when a caller violates a documented precondition.
class precondition_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant fails (a topomap bug, not a user bug).
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when a well-formed request does not apply — e.g. a square
/// strategy asked to map a task count that does not match the machine.
/// The CLI reports it as a usage mistake (exit code 1).
class usage_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when an I/O operation on a user-named resource fails (file could
/// not be opened/read/written).  Neither a usage error nor a topomap bug —
/// the environment said no — so the CLI maps it to its own exit code.
class io_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `value` as the integer type T; a value T cannot hold throws
/// precondition_error("<what> is out of range") instead of wrapping.  The
/// one narrowing every CLI flag and svc request field goes through.
template <class T>
T checked_narrow(std::int64_t value, std::string_view what) {
  if (!std::in_range<T>(value))
    throw precondition_error(std::string(what) + " is out of range");
  return static_cast<T>(value);
}

namespace detail {
[[noreturn]] inline void throw_precondition(const char* expr, const char* file,
                                            int line, const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": precondition failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw precondition_error(os.str());
}

[[noreturn]] inline void throw_invariant(const char* expr, const char* file,
                                         int line, const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": invariant failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw invariant_error(os.str());
}

[[noreturn]] inline void throw_unreachable(const char* file, int line,
                                           const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": reached unreachable code";
  if (!msg.empty()) os << " — " << msg;
  throw invariant_error(os.str());
}
}  // namespace detail

}  // namespace topomap

/// Validate a caller-supplied argument; throws topomap::precondition_error.
#define TOPOMAP_REQUIRE(expr, msg)                                          \
  do {                                                                      \
    if (!(expr))                                                            \
      ::topomap::detail::throw_precondition(#expr, __FILE__, __LINE__,      \
                                            (msg));                        \
  } while (false)

/// Check an internal invariant; throws topomap::invariant_error.
#define TOPOMAP_ASSERT(expr, msg)                                           \
  do {                                                                      \
    if (!(expr))                                                            \
      ::topomap::detail::throw_invariant(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

/// Mark a structurally unreachable point (e.g. after an exhaustive switch or
/// a loop guaranteed to return).  Unlike `TOPOMAP_ASSERT(false, ...)`, the
/// [[noreturn]] callee lets every compiler prove the enclosing function
/// cannot fall off its end, keeping -Wreturn-type clean at all optimization
/// levels.  Throws topomap::invariant_error if ever executed.
#define TOPOMAP_UNREACHABLE(msg) \
  ::topomap::detail::throw_unreachable(__FILE__, __LINE__, (msg))
