#ifndef COANE_COMMON_LOGGING_H_
#define COANE_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace coane {

/// Severity levels for the stream-style logger. Info and above are
/// printed; Debug statements compile but print nothing.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal {

/// One log statement. Accumulates the message and flushes it (with a
/// severity tag) on destruction; `fatal` aborts the process, which is how
/// CHECK failures (programming errors) are reported.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line, bool fatal = false);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  bool fatal_;
  bool enabled_;
  std::ostringstream stream_;
};

/// Ties the ternary in COANE_CHECK together: `&` binds looser than `<<`, so
/// the whole streamed chain evaluates first and the result becomes void.
class LogMessageVoidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace coane

#define COANE_LOG(level)                                                     \
  ::coane::internal::LogMessage(::coane::LogLevel::k##level, __FILE__,       \
                                __LINE__)                                    \
      .stream()

/// Aborts with a message when `cond` is false. For programming errors only;
/// recoverable errors should return Status.
#define COANE_CHECK(cond)                                                    \
  (cond) ? (void)0                                                           \
         : ::coane::internal::LogMessageVoidify() &                          \
               ::coane::internal::LogMessage(::coane::LogLevel::kError,      \
                                             __FILE__, __LINE__,             \
                                             /*fatal=*/true)                 \
                   .stream()                                                 \
               << "Check failed: " #cond " "

#define COANE_CHECK_EQ(a, b) COANE_CHECK((a) == (b))
#define COANE_CHECK_NE(a, b) COANE_CHECK((a) != (b))
#define COANE_CHECK_LT(a, b) COANE_CHECK((a) < (b))
#define COANE_CHECK_LE(a, b) COANE_CHECK((a) <= (b))
#define COANE_CHECK_GT(a, b) COANE_CHECK((a) > (b))
#define COANE_CHECK_GE(a, b) COANE_CHECK((a) >= (b))

#endif  // COANE_COMMON_LOGGING_H_
