#include "serve/frontend.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/os_error.h"
#include "common/string_utils.h"

namespace coane {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPollSliceMs = 100;
constexpr char kShedReply[] = "ERR Unavailable: retry\n";
constexpr char kDrainReply[] = "ERR Unavailable: draining\n";

/// Full write of `text`, socket-safe: a peer that already closed must
/// surface as a failed write, not a SIGPIPE that kills the daemon.
/// MSG_NOSIGNAL only works on sockets, so the stdin/stdout path falls
/// back to plain write(2). Fault point "serve.write" fails the whole
/// reply, modelling the peer vanishing mid-write.
bool WriteAllFd(int fd, const std::string& text) {
  if (fault::ShouldFail("serve.write")) return false;
  size_t offset = 0;
  while (offset < text.size()) {
    ssize_t n = send(fd, text.data() + offset, text.size() - offset,
                     MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = write(fd, text.data() + offset, text.size() - offset);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN/EWOULDBLOCK here is the SO_SNDTIMEO deadline (set at
      // accept) expiring with zero progress: the peer stopped reading.
      // Failing the write frees the worker; blocking would pin it in a
      // syscall force_cancel cannot interrupt.
      return false;
    }
    offset += static_cast<size_t>(n);
  }
  return true;
}

/// How long one send() may stall with no progress before it fails
/// instead of pinning a worker: the idle timeout when configured,
/// tightened by the drain deadline so a blocked write can never hold
/// Wait()'s worker joins past the drain budget. Never unbounded — a
/// peer that connects, sends a request, and never reads the reply must
/// cost a bounded stall, not a worker forever.
double WriteStallBudgetSec(const FrontendOptions& options) {
  constexpr double kFallbackSec = 30.0;
  double budget = options.limits.idle_timeout_sec > 0.0
                      ? options.limits.idle_timeout_sec
                      : kFallbackSec;
  if (options.drain_deadline_sec > 0.0) {
    budget = std::min(budget, options.drain_deadline_sec);
  }
  return budget;
}

/// Arms SO_SNDTIMEO on a freshly accepted connection (best effort — a
/// failing setsockopt falls back to blocking sends, no worse than
/// before).
void SetSendTimeout(int fd, double seconds) {
  struct timeval tv = {};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;  // 0 = forever
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Best-effort slurp of whatever the peer already sent (bounded, never
/// blocking), then one "ERR Unavailable: draining" per pending request —
/// a client whose request raced the drain gets an answer it can act on
/// instead of a bare close. `buffer` holds bytes already read off the
/// stream before the drain fired.
void AnswerPendingWithDraining(int fd, std::string buffer,
                               int64_t max_line_bytes) {
  const size_t slurp_cap =
      buffer.size() + static_cast<size_t>(std::max<int64_t>(
                          max_line_bytes, 4096)) * 4;
  char chunk[4096];
  while (buffer.size() < slurp_cap) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, /*timeout_ms=*/0) <= 0) break;
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  size_t line_start = 0;
  for (size_t nl = buffer.find('\n', line_start); nl != std::string::npos;
       nl = buffer.find('\n', line_start)) {
    if (!Trim(buffer.substr(line_start, nl - line_start)).empty()) {
      if (!WriteAllFd(fd, kDrainReply)) return;
    }
    line_start = nl + 1;
  }
  if (!Trim(buffer.substr(line_start)).empty()) {
    WriteAllFd(fd, kDrainReply);
  }
}

}  // namespace

StreamEnd ServeLineStream(Server* server, int in_fd, int out_fd,
                          const StreamLimits& limits,
                          AdmissionController* inflight,
                          OverloadCounters* counters,
                          const std::atomic<bool>* draining,
                          Clock::time_point activity_epoch) {
  std::string buffer;
  char chunk[4096];
  // Backdating to the accept time makes queue wait count against the
  // idle window: a connection that sat silent in the pending queue past
  // idle_timeout_sec is killed on the first poll slice here instead of
  // earning a fresh full timeout, while one whose request is already
  // buffered in the socket is served normally.
  Clock::time_point last_activity =
      activity_epoch == Clock::time_point() ? Clock::now()
                                            : activity_epoch;

  const auto is_draining = [draining]() {
    return draining != nullptr &&
           draining->load(std::memory_order_acquire);
  };
  // One request through the in-flight gate: a shed answers without
  // touching the engine and leaves the connection usable.
  const auto answer = [&](const std::string& line) {
    std::string reply;
    if (inflight != nullptr && !inflight->TryEnter()) {
      if (counters != nullptr) {
        counters->requests_shed.fetch_add(1, std::memory_order_relaxed);
      }
      reply = kShedReply;
    } else {
      reply = server->HandleLine(line) + "\n";
      if (inflight != nullptr) inflight->Release();
    }
    return WriteAllFd(out_fd, reply);
  };

  for (;;) {
    if (is_draining()) {
      AnswerPendingWithDraining(in_fd, std::move(buffer),
                                limits.max_line_bytes);
      return StreamEnd::kDrained;
    }
    if (server->ShouldQuit()) return StreamEnd::kQuit;

    struct pollfd pfd = {in_fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, kPollSliceMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return StreamEnd::kReadError;
    }
    if (ready == 0) {
      if (limits.idle_timeout_sec > 0.0 &&
          std::chrono::duration<double>(Clock::now() - last_activity)
                  .count() > limits.idle_timeout_sec) {
        if (counters != nullptr) {
          counters->idle_timeouts.fetch_add(1, std::memory_order_relaxed);
        }
        WriteAllFd(out_fd,
                   "ERR DeadlineExceeded: idle timeout, closing "
                   "connection\n");
        return StreamEnd::kIdleTimeout;
      }
      continue;
    }

    if (fault::ShouldFail("serve.read")) return StreamEnd::kReadError;
    const ssize_t n = read(in_fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return StreamEnd::kReadError;
    }
    if (n == 0) {
      // EOF: no more bytes will arrive, but a final request without a
      // trailing newline still gets its one reply — complete lines were
      // already drained, so `buffer` holds at most that partial line.
      if (!Trim(buffer).empty()) answer(buffer);
      return StreamEnd::kEof;
    }
    last_activity = Clock::now();
    buffer.append(chunk, static_cast<size_t>(n));

    size_t line_start = 0;
    for (size_t nl = buffer.find('\n', line_start);
         nl != std::string::npos; nl = buffer.find('\n', line_start)) {
      const std::string line = buffer.substr(line_start, nl - line_start);
      line_start = nl + 1;
      if (static_cast<int64_t>(line.size()) > limits.max_line_bytes) {
        if (counters != nullptr) {
          counters->oversized.fetch_add(1, std::memory_order_relaxed);
        }
        WriteAllFd(out_fd, "ERR InvalidArgument: request line exceeds " +
                               std::to_string(limits.max_line_bytes) +
                               "-byte cap\n");
        return StreamEnd::kOversized;
      }
      if (Trim(line).empty()) continue;
      if (!answer(line)) return StreamEnd::kWriteError;
      if (server->ShouldQuit()) return StreamEnd::kQuit;
    }
    buffer.erase(0, line_start);
    // The still-unterminated tail counts against the same cap: an
    // attacker trickling an endless line stays "active" for the idle
    // timeout but cannot grow the buffer past this point.
    if (static_cast<int64_t>(buffer.size()) > limits.max_line_bytes) {
      if (counters != nullptr) {
        counters->oversized.fetch_add(1, std::memory_order_relaxed);
      }
      WriteAllFd(out_fd, "ERR InvalidArgument: request line exceeds " +
                             std::to_string(limits.max_line_bytes) +
                             "-byte cap\n");
      return StreamEnd::kOversized;
    }
  }
}

TcpFrontend::TcpFrontend(Server* server, const FrontendOptions& options)
    : server_(server),
      options_(options),
      conn_admission_(AdmissionOptions{
          std::max<int64_t>(1, options.max_conns),
          std::max<int64_t>(0, options.queue_cap)}),
      inflight_(AdmissionOptions{
          options.max_inflight > 0
              ? options.max_inflight
              : std::max<int64_t>(1, options.max_conns),
          0}) {}

TcpFrontend::~TcpFrontend() {
  if (started_) {
    RequestDrain();
    Wait();
  }
  if (listen_fd_ >= 0) close(listen_fd_);
}

Status TcpFrontend::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return ErrnoToStatus(errno, "socket");
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  // bind() races the TIME_WAIT remnant of a predecessor on restart (and
  // SO_REUSEADDR does not cover every state); retry on the standard
  // deterministic backoff schedule instead of dying.
  const Status bound = RetryOp(
      options_.bind_retry, nullptr, "serve.bind",
      [&]() -> Status {
        if (fault::ShouldFail("serve.bind")) {
          return Status::IoError("injected fault at serve.bind");
        }
        if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                 sizeof(addr)) < 0) {
          // EADDRINUSE maps to kUnavailable — retryable, which is the
          // whole point of the TIME_WAIT retry loop; a genuinely broken
          // bind (EACCES etc.) maps to kIoError and is retried the same
          // bounded number of times before surfacing.
          return ErrnoToStatus(errno, "bind 127.0.0.1:" +
                                          std::to_string(options_.port));
        }
        return Status::OK();
      });
  if (!bound.ok()) {
    close(listen_fd_);
    listen_fd_ = -1;
    return bound;
  }
  if (listen(listen_fd_, std::max(1, options_.backlog)) < 0) {
    const Status st = ErrnoToStatus(errno, "listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  struct sockaddr_in bound_addr = {};
  socklen_t addr_len = sizeof(bound_addr);
  if (getsockname(listen_fd_,
                  reinterpret_cast<struct sockaddr*>(&bound_addr),
                  &addr_len) == 0) {
    port_ = static_cast<int>(ntohs(bound_addr.sin_port));
  } else {
    port_ = options_.port;
  }

  const int64_t pool = std::max<int64_t>(1, options_.max_conns);
  workers_.reserve(static_cast<size_t>(pool));
  for (int64_t i = 0; i < pool; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
  acceptor_ = std::thread([this]() { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void TcpFrontend::RequestDrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

void TcpFrontend::AcceptLoop() {
  while (!draining()) {
    if ((options_.shutdown_flag != nullptr &&
         options_.shutdown_flag->load(std::memory_order_relaxed)) ||
        server_->ShouldQuit()) {
      break;
    }
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, kPollSliceMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::lock_guard<std::mutex> lock(mu_);
      accept_error_ = ErrnoToStatus(errno, "poll(listen)");
      break;
    }
    if (ready == 0) continue;
    const int conn_fd = accept(listen_fd_, nullptr, nullptr);
    if (conn_fd < 0) continue;
    const Clock::time_point accepted_at = Clock::now();
    if (fault::ShouldFail("serve.accept")) {
      // Models accept failing after the kernel handshake: the client
      // sees a close; every other connection is unaffected.
      close(conn_fd);
      continue;
    }
    // Every write to this peer (shed reply included) is bounded: a
    // client that never reads costs at most the stall budget, not a
    // thread blocked in send() forever.
    SetSendTimeout(conn_fd, WriteStallBudgetSec(options_));
    const AdmitDecision decision = conn_admission_.Offer();
    if (decision == AdmitDecision::kShed) {
      counters_.conns_rejected.fetch_add(1, std::memory_order_relaxed);
      WriteAllFd(conn_fd, kShedReply);
      close(conn_fd);
      continue;
    }
    counters_.conns_accepted.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(PendingConn{
          conn_fd, decision == AdmitDecision::kQueue, accepted_at});
    }
    cv_.notify_one();
  }
  RequestDrain();
}

void TcpFrontend::FlushUnservedConnection(const PendingConn& conn) {
  if (conn.was_queued) {
    conn_admission_.Withdraw();
  } else {
    conn_admission_.Release();
  }
  AnswerPendingWithDraining(conn.fd, std::string(),
                            options_.limits.max_line_bytes);
  counters_.conns_drained.fetch_add(1, std::memory_order_relaxed);
  close(conn.fd);
}

void TcpFrontend::FlushQueue() {
  for (;;) {
    PendingConn conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) return;
      conn = queue_.front();
      queue_.pop_front();
    }
    FlushUnservedConnection(conn);
  }
}

void TcpFrontend::WorkerLoop() {
  for (;;) {
    PendingConn conn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() {
        return !queue_.empty() ||
               draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // draining and nothing left to flush
      conn = queue_.front();
      queue_.pop_front();
    }
    if (draining()) {
      // The queue is only flushed, never served, once a drain begins:
      // the client hears "ERR Unavailable: draining" promptly instead
      // of starting work the deadline would cut short.
      FlushUnservedConnection(conn);
      continue;
    }
    if (conn.was_queued) conn_admission_.Promote();
    const StreamEnd end = ServeLineStream(
        server_, conn.fd, conn.fd, options_.limits, &inflight_,
        &counters_, &draining_, conn.accepted_at);
    close(conn.fd);
    conn_admission_.Release();
    if (end == StreamEnd::kDrained) {
      counters_.conns_drained.fetch_add(1, std::memory_order_relaxed);
    }
    if (end == StreamEnd::kQuit) RequestDrain();
  }
}

Status TcpFrontend::Wait() {
  if (!started_) return Status::OK();
  if (acceptor_.joinable()) acceptor_.join();
  RequestDrain();  // acceptor may have exited on an error
  FlushQueue();

  // Give in-flight requests the drain budget, then deadline them out
  // through the RunContext cancel path. Workers wake from their poll
  // slices within ~100 ms of either outcome.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::max(0.0, options_.drain_deadline_sec)));
  while (conn_admission_.in_service() > 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (conn_admission_.in_service() > 0 &&
      options_.force_cancel != nullptr) {
    options_.force_cancel->store(true, std::memory_order_release);
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
  std::lock_guard<std::mutex> lock(mu_);
  return accept_error_;
}

}  // namespace serve
}  // namespace coane
