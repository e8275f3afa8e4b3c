#include "common/logging.h"

namespace coane {
namespace {

// The minimum severity that is printed.
constexpr LogLevel kMinLogLevel = LogLevel::kInfo;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level), fatal_(fatal), enabled_(fatal || level >= kMinLogLevel) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelTag(level_) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::cerr << stream_.str() << std::endl;
  }
  if (fatal_) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace coane
