#include "common/os_error.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>

namespace coane {
namespace {

TEST(OsErrorTest, ConnectionErrnosAreUnavailable) {
  for (int err : {ECONNREFUSED, ECONNRESET, EPIPE, EADDRINUSE, ENETDOWN,
                  ENETUNREACH, EHOSTUNREACH}) {
    EXPECT_EQ(ErrnoToStatus(err, "connect").code(),
              StatusCode::kUnavailable)
        << "errno " << err;
  }
}

TEST(OsErrorTest, TimeoutErrnosAreDeadlineExceeded) {
  EXPECT_EQ(ErrnoToStatus(ETIMEDOUT, "poll").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ErrnoToStatus(EAGAIN, "read").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ErrnoToStatus(EWOULDBLOCK, "read").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(OsErrorTest, ResourceErrnosAreResourceExhausted) {
  for (int err : {ENOSPC, EMFILE, ENFILE, ENOMEM, ENOBUFS}) {
    EXPECT_EQ(ErrnoToStatus(err, "socket").code(),
              StatusCode::kResourceExhausted)
        << "errno " << err;
  }
}

TEST(OsErrorTest, MissingFileIsNotFoundAndDefaultIsIoError) {
  EXPECT_EQ(ErrnoToStatus(ENOENT, "open").code(), StatusCode::kNotFound);
  EXPECT_EQ(ErrnoToStatus(EISDIR, "read").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ErrnoToStatus(EIO, "read").code(), StatusCode::kIoError);
  EXPECT_EQ(ErrnoToStatus(EACCES, "open").code(), StatusCode::kIoError);
}

TEST(OsErrorTest, MessageCarriesContextAndStrerror) {
  const Status st = ErrnoToStatus(ECONNREFUSED, "connect 127.0.0.1:9");
  EXPECT_NE(st.message().find("connect 127.0.0.1:9"), std::string::npos);
  // strerror text varies by libc; the message must at least be longer
  // than the bare context.
  EXPECT_GT(st.message().size(), std::string("connect 127.0.0.1:9: ").size());
}

TEST(OsErrorTest, SignalNamesKnownAndUnknown) {
  EXPECT_EQ(SignalName(SIGKILL), "SIGKILL");
  EXPECT_EQ(SignalName(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(SignalName(SIGTERM), "SIGTERM");
  EXPECT_EQ(SignalName(63), "signal 63");
}

}  // namespace
}  // namespace coane
