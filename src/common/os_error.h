#ifndef COANE_COMMON_OS_ERROR_H_
#define COANE_COMMON_OS_ERROR_H_

#include <string>

#include "common/status.h"

namespace coane {

/// Maps an errno value onto the Status taxonomy so every subsystem that
/// touches the OS (the serve front end, the dist coordinator/worker I/O,
/// file helpers) classifies the same failure the same way — in particular
/// so RetryPolicy's retryable set (kIoError / kResourceExhausted /
/// kUnavailable) sees transient peer/network trouble as retryable and
/// real local faults as permanent.
///
///   ECONNREFUSED / ECONNRESET / EPIPE / EADDRINUSE /
///   ENETDOWN / ENETUNREACH / EHOSTUNREACH   -> kUnavailable
///       (the peer or port is the problem; retrying later is expected
///        to succeed — EADDRINUSE covers the bind-vs-TIME_WAIT race)
///   ETIMEDOUT / EAGAIN / EWOULDBLOCK        -> kDeadlineExceeded
///       (a configured socket/IO timeout expired, e.g. SO_SNDTIMEO)
///   ENOENT                                  -> kNotFound
///   EISDIR                                  -> kInvalidArgument
///       (a directory where a file was expected; both are permanent)
///   ENOSPC / EMFILE / ENFILE / ENOMEM /
///   ENOBUFS                                 -> kResourceExhausted
///   everything else                         -> kIoError
///
/// The message is "<context>: <strerror(err)>".
Status ErrnoToStatus(int err, const std::string& context);

/// The symbolic name of a terminating signal ("SIGKILL", "SIGSEGV", ...)
/// for postmortem reports; unknown numbers render as "signal <n>".
std::string SignalName(int sig);

}  // namespace coane

#endif  // COANE_COMMON_OS_ERROR_H_
