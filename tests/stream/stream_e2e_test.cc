// End-to-end freshness (ctest tier `stream_e2e`): the real coane_streamd
// binary builds, refines, and publishes over a real mutation log, pushing
// hot-swaps into a live coane_serve over TCP. Asserted through the wire:
// the served snapshot's sequence and log position advance with each
// publish, STATS carries the freshness line, a stale artifact is refused
// without disturbing the live generation, no generation leaves a file
// beside its artifact, and a torn append injected via
// COANE_FAULT is quarantined by `coane_streamd recover`.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/string_utils.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "la/sparse_matrix.h"

namespace coane {
namespace stream {
namespace {

// Runs a shell command, merging stderr into the captured output.
std::pair<int, std::string> RunCmd(const std::string& cmd) {
  FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string output;
  char chunk[512];
  while (::fgets(chunk, sizeof(chunk), pipe) != nullptr) output += chunk;
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

class StreamE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("coane_stream_e2e_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    log_ = Path("g.mlog");
    work_ = Path("work");

    // A small labeled, attributed graph as the stream's initial state.
    GraphBuilder b(12);
    for (int i = 0; i < 12; ++i) b.AddEdge(i, (i + 1) % 12);
    b.AddEdge(0, 6);
    std::vector<SparseMatrix::Triplet> t;
    for (int i = 0; i < 12; ++i) {
      t.push_back({i, i % 4, 1.0f + static_cast<float>(i) * 0.1f});
    }
    b.SetAttributes(SparseMatrix::FromTriplets(12, 4, t));
    std::vector<int32_t> labels(12);
    for (int i = 0; i < 12; ++i) labels[i] = i % 2;
    b.SetLabels(labels);
    Graph g = std::move(b).Build().ValueOrDie();
    ASSERT_TRUE(SaveAttributedGraph(g, Path("g.edges"), Path("g.attrs"),
                                    Path("g.labels"))
                    .ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::string Streamd(const std::string& subcommand) const {
    return std::string(COANE_STREAMD_BIN) + " " + subcommand;
  }

  // The apply invocation shared by every publish in this test: small
  // model, deterministic seed, batch_max large enough to drain per run.
  std::string Apply(const std::string& extra = "") const {
    return Streamd("apply --log=" + log_ + " --work-dir=" + work_ +
                   " --edges=" + Path("g.edges") +
                   " --attrs=" + Path("g.attrs") +
                   " --labels=" + Path("g.labels") +
                   " --dim=8 --epochs=2 --context=3 --walk-length=10"
                   " --negatives=2 --seed=11 --refine-epochs=2"
                   " --batch-max=8 --threads=2 " +
                   extra);
  }

  std::filesystem::path dir_;
  std::string log_;
  std::string work_;
};

// ---- Socket helpers -------------------------------------------------

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends one request and reads until `sentinel` appears in the reply (a
// newline for single-line replies; a token on the last line for
// multi-line ones like STATS). 10 s guard against a wedged server.
std::string Request(int fd, const std::string& line,
                    const std::string& sentinel = "\n") {
  const std::string request = line + "\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    return "<send failed>";
  }
  std::string reply;
  char chunk[512];
  while (reply.find(sentinel) == std::string::npos) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) return reply + "<timeout>";
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    reply.append(chunk, static_cast<size_t>(n));
  }
  return reply;
}

TEST_F(StreamE2eTest, PublisherFeedsLiveServeAndStalePublishIsRefused) {
  // --- Seed the log and drain it offline: generation 0 (initial build)
  // plus generation 2 (first refinement batch).
  ASSERT_EQ(RunCmd(Streamd("init --log=" + log_)).first, 0);
  auto appended = RunCmd(
      Streamd("append --log=" + log_ +
              " --op=\"edge+ 0 4 1\" ") );
  ASSERT_EQ(appended.first, 0) << appended.second;
  appended = RunCmd(Streamd("append --log=" + log_ + " --op=\"edge+ 1 7 1\""));
  ASSERT_EQ(appended.first, 0) << appended.second;

  auto applied = RunCmd(Apply());
  ASSERT_EQ(applied.first, 0) << applied.second;
  EXPECT_NE(applied.second.find("published gen 0"), std::string::npos)
      << applied.second;
  EXPECT_NE(applied.second.find("published gen 2"), std::string::npos)
      << applied.second;

  // --- Serve generation 0 (its .pub sidecar rides along).
  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string embeddings_flag =
        "--embeddings=" + work_ + "/gen_0.emb";
    ::execl(COANE_SERVE_BIN, COANE_SERVE_BIN, embeddings_flag.c_str(),
            "--port=0", "--threads=2", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos &&
         ::read(out_pipe[0], &c, 1) == 1) {
    banner.push_back(c);
  }
  ASSERT_TRUE(StartsWith(banner, "serving on 127.0.0.1:")) << banner;
  const int port = std::stoi(banner.substr(banner.rfind(':') + 1));
  const int fd = ConnectTo(port);
  ASSERT_GE(fd, 0);

  // Freshness before: sequence 1 at log position 0.
  std::string info = Request(fd, "INFO");
  EXPECT_NE(info.find(" seq=1"), std::string::npos) << info;
  EXPECT_NE(info.find(" log_pos=0"), std::string::npos) << info;
  std::string stats = Request(fd, "STATS", "snapshot_age_sec ");
  EXPECT_NE(stats.find("snapshot_seq 1  log_pos 0"), std::string::npos)
      << stats;

  // --- More churn; this apply run publishes generation 4 and hot-swaps
  // the live server itself.
  for (const char* op : {"edge+ 2 9 1", "attr 3 1 0.5"}) {
    auto append = RunCmd(Streamd("append --log=" + log_ + " --op=\"" +
                                 op + "\""));
    ASSERT_EQ(append.first, 0) << append.second;
  }
  applied = RunCmd(Apply("--serve-port=" + std::to_string(port)));
  ASSERT_EQ(applied.first, 0) << applied.second;
  EXPECT_NE(applied.second.find("published gen 4"), std::string::npos)
      << applied.second;
  EXPECT_NE(applied.second.find("served gen 4"), std::string::npos)
      << applied.second;

  // Freshness after: the hot-swap advanced both axes without a restart.
  info = Request(fd, "INFO");
  EXPECT_NE(info.find(" seq=2"), std::string::npos) << info;
  EXPECT_NE(info.find(" log_pos=4"), std::string::npos) << info;
  stats = Request(fd, "STATS", "snapshot_age_sec ");
  EXPECT_NE(stats.find("snapshot_seq 2  log_pos 4"), std::string::npos)
      << stats;

  // --- A stale artifact (generation 2, behind the live log position) is
  // refused; the live generation keeps serving untouched.
  const std::string refused =
      Request(fd, "PUBLISH " + work_ + "/gen_2.emb");
  EXPECT_TRUE(StartsWith(refused, "ERR FailedPrecondition")) << refused;
  EXPECT_NE(refused.find("stale"), std::string::npos) << refused;
  info = Request(fd, "INFO");
  EXPECT_NE(info.find(" seq=2"), std::string::npos) << info;
  EXPECT_NE(info.find(" log_pos=4"), std::string::npos) << info;

  // Republishing the live generation's own artifact (equal log position)
  // is idempotent and allowed.
  const std::string republished =
      Request(fd, "PUBLISH " + work_ + "/gen_4.emb");
  EXPECT_TRUE(StartsWith(republished, "OK snapshot ")) << republished;

  // Every generation was served from memory: no publish left a file
  // beside its artifact.
  for (const auto& entry : std::filesystem::directory_iterator(work_)) {
    EXPECT_NE(entry.path().extension(), ".store") << entry.path();
  }

  ::close(fd);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  char sink[256];
  while (::read(out_pipe[0], sink, sizeof(sink)) > 0) {
  }
  ::close(out_pipe[0]);
  int status = -1;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(StreamE2eTest, TornAppendIsQuarantinedByRecover) {
  ASSERT_EQ(RunCmd(Streamd("init --log=" + log_)).first, 0);
  auto ok = RunCmd(Streamd("append --log=" + log_ + " --op=\"edge+ 0 4 1\""));
  ASSERT_EQ(ok.first, 0) << ok.second;

  // The injected fault tears the write mid-record, exactly like a crash.
  auto torn = RunCmd("COANE_FAULT=stream.log_append@1 " +
                     Streamd("append --log=" + log_ +
                             " --op=\"edge+ 1 7 1\""));
  EXPECT_NE(torn.first, 0) << torn.second;

  // Appenders refuse the torn log until it is recovered.
  auto refused =
      RunCmd(Streamd("append --log=" + log_ + " --op=\"edge+ 1 7 1\""));
  EXPECT_NE(refused.first, 0) << refused.second;
  EXPECT_NE(refused.second.find("DataLoss"), std::string::npos)
      << refused.second;

  auto recovered = RunCmd(Streamd("recover --log=" + log_));
  ASSERT_EQ(recovered.first, 0) << recovered.second;
  EXPECT_NE(recovered.second.find("quarantined"), std::string::npos)
      << recovered.second;
  EXPECT_TRUE(std::filesystem::exists(log_ + ".quarantine"));

  // The retried append lands at the next sequence after the valid prefix.
  auto retried =
      RunCmd(Streamd("append --log=" + log_ + " --op=\"edge+ 1 7 1\""));
  ASSERT_EQ(retried.first, 0) << retried.second;
  EXPECT_NE(retried.second.find("log at seq 2"), std::string::npos)
      << retried.second;
}

// Missing required flags are a usage error (exit 2), as in every tool.
TEST_F(StreamE2eTest, ApplyWithoutLogIsAUsageError) {
  auto missing = RunCmd(Streamd("apply --work-dir=" + work_ +
                                " --edges=" + Path("g.edges")));
  EXPECT_EQ(missing.first, 2) << missing.second;
  EXPECT_NE(missing.second.find("usage error:"), std::string::npos)
      << missing.second;
  EXPECT_FALSE(std::filesystem::exists(work_));
}

}  // namespace
}  // namespace stream
}  // namespace coane
