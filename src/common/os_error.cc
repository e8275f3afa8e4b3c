#include "common/os_error.h"

#include <cerrno>
#include <csignal>
#include <cstring>

namespace coane {

Status ErrnoToStatus(int err, const std::string& context) {
  const std::string msg = context + ": " + std::strerror(err);
  switch (err) {
    case ECONNREFUSED:
    case ECONNRESET:
    case EPIPE:
    case EADDRINUSE:
    case ENETDOWN:
    case ENETUNREACH:
    case EHOSTUNREACH:
      return Status::Unavailable(msg);
    case ETIMEDOUT:
    case EAGAIN:
#if EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
      return Status::DeadlineExceeded(msg);
    case ENOENT:
      return Status::NotFound(msg);
    case EISDIR:
      return Status::InvalidArgument(msg);
    case ENOSPC:
    case EMFILE:
    case ENFILE:
    case ENOMEM:
    case ENOBUFS:
      return Status::ResourceExhausted(msg);
    default:
      return Status::IoError(msg);
  }
}

std::string SignalName(int sig) {
  switch (sig) {
    case SIGHUP: return "SIGHUP";
    case SIGINT: return "SIGINT";
    case SIGQUIT: return "SIGQUIT";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGSEGV: return "SIGSEGV";
    case SIGPIPE: return "SIGPIPE";
    case SIGALRM: return "SIGALRM";
    case SIGTERM: return "SIGTERM";
    default: return "signal " + std::to_string(sig);
  }
}

}  // namespace coane
