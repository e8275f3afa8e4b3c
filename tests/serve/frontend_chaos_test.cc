// Network chaos tier for the serving front end (serve/frontend.*): a
// live TCP socket is driven through overload bursts, slow-loris clients,
// fragmented/oversized/garbage input, injected accept/read/write faults,
// and graceful drain — asserting the overload contract end to end: every
// client gets either a correct reply or an explicit "ERR Unavailable",
// never a hang, and every refusal shows up in the STATS ledger. Runs
// in-process (no fork/exec) so the TSan CI job covers the whole surface.

#include "serve/frontend.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/string_utils.h"
#include "graph/graph_io.h"
#include "la/dense_matrix.h"
#include "serve/server.h"

namespace coane {
namespace serve {
namespace {

constexpr int kClientTimeoutMs = 15000;

int64_t CountProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (StartsWith(line, "Threads:")) {
      return std::stol(line.substr(std::strlen("Threads:")));
    }
  }
  return -1;
}

/// `rcvbuf` > 0 clamps SO_RCVBUF before connect (shrinks how many reply
/// bytes the kernel absorbs for a client that never reads).
int ConnectLoopback(int port, int rcvbuf = 0) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
              sizeof(addr)) < 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = send(fd, data.data() + offset,
                           data.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    offset += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until '\n' (returned without it), EOF (returns what arrived),
/// or the timeout (returns "<timeout>" so a hang is a visible ledger
/// entry, not a stuck test).
std::string RecvLine(int fd, int timeout_ms = kClientTimeoutMs) {
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char c = 0;
  for (;;) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (remaining <= 0) return "<timeout>";
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(remaining));
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      return "<timeout>";
    }
    const ssize_t n = recv(fd, &c, 1, 0);
    if (n <= 0) return line;  // EOF: whatever arrived (maybe empty)
    if (c == '\n') return line;
    line.push_back(c);
  }
}

/// Blocks until the peer closes (or timeout); discards data.
void AwaitEof(int fd, int timeout_ms = kClientTimeoutMs) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char buf[256];
  for (;;) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (remaining <= 0) return;
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(remaining)) <= 0) return;
    if (recv(fd, buf, sizeof(buf), 0) <= 0) return;
  }
}

class FrontendChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::signal(SIGPIPE, SIG_IGN);
    fault::Reset();
    dir_ = std::filesystem::temp_directory_path() /
           ("coane_frontend_chaos_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    std::filesystem::create_directories(dir_);
    artifact_path_ = (dir_ / "emb.emb").string();
    DenseMatrix embeddings(256, 8);
    for (int64_t i = 0; i < embeddings.rows(); ++i) {
      for (int64_t j = 0; j < embeddings.cols(); ++j) {
        embeddings.At(i, j) =
            static_cast<float>(((i * 31 + j * 7) % 17) - 8) * 0.25f;
      }
    }
    ASSERT_TRUE(SaveEmbeddings(embeddings, artifact_path_).ok());
    server_ = std::make_unique<Server>(MakeServerOptions());
    ASSERT_TRUE(server_->Start(artifact_path_).ok());
  }

  void TearDown() override {
    fault::Reset();
    server_.reset();
    std::filesystem::remove_all(dir_);
  }

  virtual ServerOptions MakeServerOptions() { return ServerOptions(); }

  FrontendOptions QuickOptions() {
    FrontendOptions options;
    options.port = 0;
    options.max_conns = 2;
    options.queue_cap = 4;
    options.drain_deadline_sec = 5.0;
    options.bind_retry.max_attempts = 3;
    options.bind_retry.initial_backoff_sec = 0.01;
    return options;
  }

  std::filesystem::path dir_;
  std::string artifact_path_;
  std::unique_ptr<Server> server_;
};

// --- Acceptance scenario: 64 concurrent clients against a 4-worker /
// 8-queue front end. Clients hold their connections open, so admission
// is fully deterministic: 4 admitted, 8 queued, 52 shed. A drain then
// answers every still-waiting client. No socket goes unanswered, and
// the STATS ledger reconciles exactly. ---
TEST_F(FrontendChaosTest, OverloadBurstThenDrainAnswersAllSixtyFour) {
  FrontendOptions options = QuickOptions();
  options.max_conns = 4;
  options.queue_cap = 8;
  TcpFrontend frontend(server_.get(), options);
  server_->set_overload_counters(&frontend.counters());
  ASSERT_TRUE(frontend.Start().ok());

  constexpr int kClients = 64;
  std::atomic<int> ok_replies(0);
  std::atomic<int> unavailable_replies(0);
  std::atomic<int> other_outcomes(0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i]() {
      const int fd = ConnectLoopback(frontend.port());
      if (fd < 0) {
        other_outcomes.fetch_add(1);
        return;
      }
      SendAll(fd, "KNN 3 " + std::to_string(i % 256) + "\n");
      const std::string reply = RecvLine(fd);
      if (StartsWith(reply, "OK ")) {
        ok_replies.fetch_add(1);
      } else if (StartsWith(reply, "ERR Unavailable")) {
        unavailable_replies.fetch_add(1);
      } else {
        other_outcomes.fetch_add(1);
      }
      AwaitEof(fd);  // hold the connection until the server closes it
      close(fd);
    });
  }

  // Steady state before the drain: 4 served (and held open), 8 parked in
  // the queue, 52 shed at accept.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kClientTimeoutMs);
  while (std::chrono::steady_clock::now() < deadline &&
         (frontend.counters().conns_rejected.load() < 52 ||
          ok_replies.load() < 4)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(frontend.counters().conns_rejected.load(), 52);
  EXPECT_EQ(frontend.conn_admission().pending(), 8);
  EXPECT_EQ(ok_replies.load(), 4);

  frontend.RequestDrain();
  EXPECT_TRUE(frontend.Wait().ok());
  for (std::thread& t : clients) t.join();

  // Every socket answered: correct reply or explicit Unavailable.
  EXPECT_EQ(ok_replies.load(), 4);
  EXPECT_EQ(unavailable_replies.load(), 60);  // 52 shed + 8 drained
  EXPECT_EQ(other_outcomes.load(), 0);

  // The STATS reply carries the same ledger (no silent drops).
  const std::string stats = server_->HandleLine("STATS");
  EXPECT_NE(stats.find("conns_accepted 12"), std::string::npos) << stats;
  EXPECT_NE(stats.find("conns_rejected 52"), std::string::npos) << stats;
  EXPECT_NE(stats.find("conns_drained 12"), std::string::npos) << stats;

  // The listener is gone: new connections are refused, not ignored.
  EXPECT_LT(ConnectLoopback(frontend.port()), 0);
}

// --- Satellite: a long-lived daemon must not accumulate one thread per
// client. The pool is fixed at Start(); connection churn reuses it. ---
TEST_F(FrontendChaosTest, ThreadCountStaysBoundedUnderConnectionChurn) {
  FrontendOptions options = QuickOptions();
  options.max_conns = 4;
  TcpFrontend frontend(server_.get(), options);
  ASSERT_TRUE(frontend.Start().ok());
  EXPECT_EQ(frontend.worker_count(), 4);

  // Warm up: the first query may lazily create the global compute pool.
  {
    const int fd = ConnectLoopback(frontend.port());
    ASSERT_GE(fd, 0);
    SendAll(fd, "KNN 3 0\n");
    EXPECT_TRUE(StartsWith(RecvLine(fd), "OK "));
    close(fd);
  }
  const int64_t baseline = CountProcessThreads();
  ASSERT_GT(baseline, 0);

  for (int i = 0; i < 40; ++i) {
    const int fd = ConnectLoopback(frontend.port());
    ASSERT_GE(fd, 0) << "churn iteration " << i;
    SendAll(fd, "KNN 3 " + std::to_string(i) + "\n");
    EXPECT_TRUE(StartsWith(RecvLine(fd), "OK ")) << "iteration " << i;
    close(fd);
  }
  EXPECT_EQ(CountProcessThreads(), baseline)
      << "connection churn must never grow the thread count";

  frontend.RequestDrain();
  EXPECT_TRUE(frontend.Wait().ok());
}

// --- Protocol edge cases over a real socket. ---

TEST_F(FrontendChaosTest, RequestSplitAcrossManyRecvsStillAnswers) {
  TcpFrontend frontend(server_.get(), QuickOptions());
  ASSERT_TRUE(frontend.Start().ok());
  const int fd = ConnectLoopback(frontend.port());
  ASSERT_GE(fd, 0);
  for (const char* fragment : {"KN", "N 3", " ", "7\n"}) {
    SendAll(fd, fragment);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_TRUE(StartsWith(RecvLine(fd), "OK 3 "));
  close(fd);
}

TEST_F(FrontendChaosTest, FinalRequestWithoutNewlineAnsweredAtEof) {
  TcpFrontend frontend(server_.get(), QuickOptions());
  ASSERT_TRUE(frontend.Start().ok());
  const int fd = ConnectLoopback(frontend.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "KNN 3 2");
  shutdown(fd, SHUT_WR);  // EOF with the request still unterminated
  EXPECT_TRUE(StartsWith(RecvLine(fd), "OK 3 "));
  close(fd);
}

TEST_F(FrontendChaosTest, OversizedLineIsRejectedAndConnectionClosed) {
  FrontendOptions options = QuickOptions();
  options.limits.max_line_bytes = 128;
  TcpFrontend frontend(server_.get(), options);
  server_->set_overload_counters(&frontend.counters());
  ASSERT_TRUE(frontend.Start().ok());

  // An endless unterminated line (slow-loris posture, cap must fire).
  int fd = ConnectLoopback(frontend.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, std::string(300, 'A'));
  std::string reply = RecvLine(fd);
  EXPECT_TRUE(StartsWith(reply, "ERR InvalidArgument")) << reply;
  EXPECT_NE(reply.find("128-byte cap"), std::string::npos) << reply;
  AwaitEof(fd);
  close(fd);

  // A complete-but-huge line arriving in one burst trips the same cap.
  fd = ConnectLoopback(frontend.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "KNN 3 " + std::string(300, '1') + "\n");
  reply = RecvLine(fd);
  EXPECT_TRUE(StartsWith(reply, "ERR InvalidArgument")) << reply;
  AwaitEof(fd);
  close(fd);

  EXPECT_EQ(frontend.counters().oversized.load(), 2);
  const std::string stats = server_->HandleLine("STATS");
  EXPECT_NE(stats.find("oversized 2"), std::string::npos) << stats;
}

TEST_F(FrontendChaosTest, BinaryGarbageGetsErrAndConnectionStaysUsable) {
  TcpFrontend frontend(server_.get(), QuickOptions());
  ASSERT_TRUE(frontend.Start().ok());
  const int fd = ConnectLoopback(frontend.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, std::string("\x01\x02\xff\xfe\x7f garbage\x03\n"));
  EXPECT_TRUE(StartsWith(RecvLine(fd), "ERR "));
  // The protocol error did not poison the connection.
  SendAll(fd, "KNN 2 5\n");
  EXPECT_TRUE(StartsWith(RecvLine(fd), "OK 2 "));
  close(fd);
}

TEST_F(FrontendChaosTest, SilentClientIsKilledByIdleTimeout) {
  FrontendOptions options = QuickOptions();
  options.limits.idle_timeout_sec = 0.3;
  TcpFrontend frontend(server_.get(), options);
  server_->set_overload_counters(&frontend.counters());
  ASSERT_TRUE(frontend.Start().ok());

  const int fd = ConnectLoopback(frontend.port());
  ASSERT_GE(fd, 0);
  // Connect and go silent: the server must kill the connection, with an
  // explanation, instead of pinning a worker forever.
  const std::string reply = RecvLine(fd);
  EXPECT_TRUE(StartsWith(reply, "ERR DeadlineExceeded")) << reply;
  AwaitEof(fd);
  close(fd);
  EXPECT_EQ(frontend.counters().idle_timeouts.load(), 1);
  const std::string stats = server_->HandleLine("STATS");
  EXPECT_NE(stats.find("idle_timeouts 1"), std::string::npos) << stats;

  // The freed worker serves the next client normally.
  const int fd2 = ConnectLoopback(frontend.port());
  ASSERT_GE(fd2, 0);
  SendAll(fd2, "KNN 3 1\n");
  EXPECT_TRUE(StartsWith(RecvLine(fd2), "OK 3 "));
  close(fd2);
}

TEST_F(FrontendChaosTest, QueueWaitCountsAgainstIdleTimeout) {
  FrontendOptions options = QuickOptions();
  options.max_conns = 1;
  options.queue_cap = 2;
  options.limits.idle_timeout_sec = 1.0;
  TcpFrontend frontend(server_.get(), options);
  server_->set_overload_counters(&frontend.counters());
  ASSERT_TRUE(frontend.Start().ok());

  // Three silent clients: one holds the only worker, two park in the
  // pending queue. The idle clock starts at accept, so when the queued
  // pair is finally dequeued its window is already spent and it dies
  // within a poll slice — were each dequeue to earn a fresh full
  // timeout, max_conns + queue_cap silent clients would stall all
  // service for one idle window apiece, serially.
  const auto start = std::chrono::steady_clock::now();
  int fds[3];
  for (int& fd : fds) {
    fd = ConnectLoopback(frontend.port());
    ASSERT_GE(fd, 0);
  }
  for (const int fd : fds) {
    const std::string reply = RecvLine(fd);
    EXPECT_TRUE(StartsWith(reply, "ERR DeadlineExceeded")) << reply;
    AwaitEof(fd);
    close(fd);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
  EXPECT_EQ(frontend.counters().idle_timeouts.load(), 3);
  // Fresh-window-per-dequeue behavior needs >= 3 full idle windows
  // (3.0 s); accept-anchored accounting kills all three in about one.
  EXPECT_LT(elapsed, 2.5) << "queue wait did not count against the "
                             "idle timeout";

  // The workers are free again: the next client is served normally.
  const int fd = ConnectLoopback(frontend.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "KNN 3 1\n");
  EXPECT_TRUE(StartsWith(RecvLine(fd), "OK 3 "));
  close(fd);
}

// --- Slow-reader abuse: a peer that sends requests but never reads the
// replies fills the kernel socket buffers; the worker's send() must
// fail after the bounded stall budget (SO_SNDTIMEO, armed at accept)
// instead of blocking forever — force_cancel cannot interrupt a blocked
// syscall, so an unbounded send would also wedge the drain path. ---
TEST_F(FrontendChaosTest, SlowReaderCannotPinWorkerForever) {
  FrontendOptions options = QuickOptions();
  options.max_conns = 1;
  options.limits.idle_timeout_sec = 0.5;  // also the write stall budget
  TcpFrontend frontend(server_.get(), options);
  ASSERT_TRUE(frontend.Start().ok());

  // Far more reply bytes than the kernel can buffer (~20 MB of KNN 255
  // replies against a clamped client receive buffer), never read.
  const int hog = ConnectLoopback(frontend.port(), /*rcvbuf=*/4096);
  ASSERT_GE(hog, 0);
  std::string burst;
  burst.reserve(8000 * 10);
  for (int i = 0; i < 8000; ++i) burst += "KNN 255 0\n";
  SendAll(hog, burst);  // may fail midway once the server gives up — ok

  // The only worker must shake the hog off within the stall budget and
  // serve the next client; a hang here times out RecvLine.
  const int fd = ConnectLoopback(frontend.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "KNN 3 1\n");
  EXPECT_TRUE(StartsWith(RecvLine(fd), "OK 3 "));
  close(fd);
  close(hog);

  frontend.RequestDrain();
  EXPECT_TRUE(frontend.Wait().ok());
}

// --- In-flight request gate: a saturated engine sheds per request with
// the connection kept open. Driven through a socketpair so saturation is
// deterministic (the slot is taken by hand, not by a racing request). ---
TEST_F(FrontendChaosTest, InflightGateShedsRequestWithoutClosing) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  AdmissionController inflight(AdmissionOptions{1, 0});
  ASSERT_TRUE(inflight.TryEnter());  // saturate the only slot
  OverloadCounters counters;
  server_->set_overload_counters(&counters);

  std::thread pump([&]() {
    ServeLineStream(server_.get(), fds[0], fds[0], StreamLimits(),
                    &inflight, &counters, nullptr);
  });
  SendAll(fds[1], "KNN 3 0\n");
  EXPECT_EQ(RecvLine(fds[1]), "ERR Unavailable: retry");

  inflight.Release();  // slot frees; the same connection now succeeds
  SendAll(fds[1], "KNN 3 0\n");
  EXPECT_TRUE(StartsWith(RecvLine(fds[1]), "OK 3 "));
  SendAll(fds[1], "QUIT\n");
  EXPECT_EQ(RecvLine(fds[1]), "OK bye");
  pump.join();
  close(fds[0]);
  close(fds[1]);

  EXPECT_EQ(counters.requests_shed.load(), 1);
  const std::string stats = server_->HandleLine("STATS");
  EXPECT_NE(stats.find("requests_shed 1"), std::string::npos) << stats;
}

// --- Injected network faults: each fault point costs at most the
// connection it fired on; the front end keeps serving. ---

TEST_F(FrontendChaosTest, InjectedAcceptFaultDropsOnlyThatConnection) {
  TcpFrontend frontend(server_.get(), QuickOptions());
  ASSERT_TRUE(frontend.Start().ok());
  fault::Arm("serve.accept", /*trigger_hit=*/1);

  const int victim = ConnectLoopback(frontend.port());
  ASSERT_GE(victim, 0);
  SendAll(victim, "KNN 3 0\n");
  EXPECT_EQ(RecvLine(victim), "");  // closed without a reply
  close(victim);

  const int survivor = ConnectLoopback(frontend.port());
  ASSERT_GE(survivor, 0);
  SendAll(survivor, "KNN 3 0\n");
  EXPECT_TRUE(StartsWith(RecvLine(survivor), "OK 3 "));
  close(survivor);
}

TEST_F(FrontendChaosTest, InjectedReadFaultClosesConnServerSurvives) {
  TcpFrontend frontend(server_.get(), QuickOptions());
  ASSERT_TRUE(frontend.Start().ok());
  fault::Arm("serve.read", /*trigger_hit=*/1);

  const int victim = ConnectLoopback(frontend.port());
  ASSERT_GE(victim, 0);
  SendAll(victim, "KNN 3 0\n");
  EXPECT_EQ(RecvLine(victim), "");  // read failed before any reply
  close(victim);

  const int survivor = ConnectLoopback(frontend.port());
  ASSERT_GE(survivor, 0);
  SendAll(survivor, "KNN 3 0\n");
  EXPECT_TRUE(StartsWith(RecvLine(survivor), "OK 3 "));
  close(survivor);
}

TEST_F(FrontendChaosTest, InjectedWriteFaultClosesConnServerSurvives) {
  TcpFrontend frontend(server_.get(), QuickOptions());
  ASSERT_TRUE(frontend.Start().ok());
  fault::Arm("serve.write", /*trigger_hit=*/1);

  const int victim = ConnectLoopback(frontend.port());
  ASSERT_GE(victim, 0);
  SendAll(victim, "KNN 3 0\n");
  EXPECT_EQ(RecvLine(victim), "");  // reply write failed; conn closed
  close(victim);

  const int survivor = ConnectLoopback(frontend.port());
  ASSERT_GE(survivor, 0);
  SendAll(survivor, "KNN 3 0\n");
  EXPECT_TRUE(StartsWith(RecvLine(survivor), "OK 3 "));
  close(survivor);
}

// --- Satellite: bind() retries on the deterministic backoff schedule. ---

TEST_F(FrontendChaosTest, BindRetriesThroughTransientFault) {
  FrontendOptions options = QuickOptions();
  options.bind_retry.max_attempts = 4;
  options.bind_retry.initial_backoff_sec = 0.005;
  fault::ArmTransient("serve.bind", /*trigger_hit=*/1, /*fail_count=*/2);

  TcpFrontend frontend(server_.get(), options);
  ASSERT_TRUE(frontend.Start().ok());
  EXPECT_EQ(fault::HitCount("serve.bind"), 3);  // 2 failures + 1 success

  const int fd = ConnectLoopback(frontend.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "KNN 3 0\n");
  EXPECT_TRUE(StartsWith(RecvLine(fd), "OK 3 "));
  close(fd);
}

TEST_F(FrontendChaosTest, BindSurfacesFailureWhenRetriesExhaust) {
  FrontendOptions options = QuickOptions();
  options.bind_retry.max_attempts = 3;
  options.bind_retry.initial_backoff_sec = 0.005;
  fault::ArmPermanent("serve.bind", /*trigger_hit=*/1);

  TcpFrontend frontend(server_.get(), options);
  const Status status = frontend.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("3 attempts"), std::string::npos)
      << status.ToString();
}

TEST_F(FrontendChaosTest, BindRetriesUntilRealPortHolderReleasesIt) {
  // Front end A owns a real port; B races it with retries until A
  // drains — the restart-vs-TIME_WAIT shape, on live sockets.
  TcpFrontend holder(server_.get(), QuickOptions());
  ASSERT_TRUE(holder.Start().ok());
  const int port = holder.port();

  FrontendOptions contender_options = QuickOptions();
  contender_options.port = port;
  contender_options.bind_retry.max_attempts = 50;
  contender_options.bind_retry.initial_backoff_sec = 0.02;
  contender_options.bind_retry.max_backoff_sec = 0.05;
  TcpFrontend contender(server_.get(), contender_options);

  Status contender_status = Status::Internal("unset");
  std::thread starter([&]() { contender_status = contender.Start(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  holder.RequestDrain();
  EXPECT_TRUE(holder.Wait().ok());
  starter.join();
  ASSERT_TRUE(contender_status.ok()) << contender_status.ToString();
  EXPECT_EQ(contender.port(), port);

  const int fd = ConnectLoopback(port);
  ASSERT_GE(fd, 0);
  SendAll(fd, "KNN 3 0\n");
  EXPECT_TRUE(StartsWith(RecvLine(fd), "OK 3 "));
  close(fd);
}

// --- QUIT over TCP drains the whole front end, like SIGTERM would. ---
TEST_F(FrontendChaosTest, QuitRequestDrainsFrontend) {
  TcpFrontend frontend(server_.get(), QuickOptions());
  ASSERT_TRUE(frontend.Start().ok());
  const int fd = ConnectLoopback(frontend.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "QUIT\n");
  EXPECT_EQ(RecvLine(fd), "OK bye");
  close(fd);
  EXPECT_TRUE(frontend.Wait().ok());
  EXPECT_LT(ConnectLoopback(frontend.port()), 0);
}

}  // namespace
}  // namespace serve
}  // namespace coane
