// End-to-end: train CoANE on the attributed SBM dataset, publish the
// embedding artifact (file + manifest, like the pipeline does), and serve
// it — the exact index answers k-NN through the wire protocol, and the
// IVF index reaches recall@10 >= 0.9 against exact while scanning under
// 40% of the stored vectors. Finishes by piping a request through the
// real coane_serve binary.

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
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/parallel/global_pool.h"
#include "common/string_utils.h"
#include "core/artifact_manifest.h"
#include "core/coane_model.h"
#include "datasets/attributed_sbm.h"
#include "graph/graph_io.h"
#include "la/dense_matrix.h"
#include "serve/brute_force_index.h"
#include "serve/embedding_store.h"
#include "serve/ivf_index.h"
#include "serve/server.h"

namespace coane {
namespace serve {
namespace {

class ServeE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("coane_serve_e2e_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    SetGlobalParallelism(1);
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Train once, publish (embeddings file + manifest), reuse across tests.
  void TrainAndPublish() {
    AttributedSbmConfig net_config;
    net_config.num_nodes = 400;
    net_config.num_classes = 4;
    net_config.num_attributes = 100;
    net_config.circles_per_class = 2;
    net_config.seed = 97;
    AttributedNetwork net =
        GenerateAttributedSbm(net_config).ValueOrDie();

    CoaneConfig config;
    config.walk_length = 10;
    config.embedding_dim = 16;
    config.num_negative = 3;
    config.max_epochs = 2;
    config.batch_size = 64;
    config.decoder_hidden = {32};
    auto z = TrainCoaneEmbeddings(net.graph, config);
    ASSERT_TRUE(z.ok()) << z.status().ToString();
    ASSERT_EQ(z.value().rows(), 400);

    emb_path_ = Path("sbm.emb");
    ASSERT_TRUE(SaveEmbeddings(z.value(), emb_path_).ok());

    manifest_path_ = Path("manifest.tsv");
    ArtifactManifest manifest;
    ASSERT_TRUE(AttestArtifacts(&manifest, manifest_path_,
                                {{"embeddings", emb_path_}},
                                /*config_fingerprint=*/0, /*retry=*/nullptr)
                    .ok());
  }

  std::filesystem::path dir_;
  std::string emb_path_;
  std::string manifest_path_;
};

TEST_F(ServeE2eTest, TrainedEmbeddingsServeKnnAndIvfHitsRecallTarget) {
  TrainAndPublish();

  // --- Serve the published artifact with manifest verification on. ---
  ServerOptions options;
  options.snapshot.manifest_path = manifest_path_;
  Server server(options);
  ASSERT_TRUE(server.Start(emb_path_).ok());

  const std::string info = server.HandleLine("INFO");
  EXPECT_NE(info.find("count=400"), std::string::npos) << info;
  EXPECT_NE(info.find("dim=16"), std::string::npos);

  const std::string knn = server.HandleLine("KNN 10 0");
  ASSERT_TRUE(StartsWith(knn, "OK 10 ")) << knn;

  // --- IVF vs exact on the same trained store. ---
  auto snapshot = server.engine().CurrentSnapshot();
  const auto& store = snapshot->store;
  const BruteForceIndex exact(store, Metric::kCosine);
  IvfConfig ivf_config;
  ivf_config.nlist = 24;
  ivf_config.nprobe = 8;
  auto ivf = IvfIndex::Build(store, Metric::kCosine, ivf_config);
  ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();

  const int64_t n = store->count();
  int64_t hits = 0, total = 0, scanned = 0;
  const int kQueries = 80;
  for (int q = 0; q < kQueries; ++q) {
    const int64_t id = (q * 29) % n;
    std::vector<Neighbor> exact_result, ivf_result;
    SearchStats stats;
    ASSERT_TRUE(exact.Search(store->Vector(id), 10, &exact_result).ok());
    ASSERT_TRUE(
        ivf.value()->Search(store->Vector(id), 10, &ivf_result, &stats)
            .ok());
    scanned += stats.vectors_scanned;
    std::set<int64_t> truth;
    for (const Neighbor& nb : exact_result) truth.insert(nb.id);
    for (const Neighbor& nb : ivf_result) {
      hits += static_cast<int64_t>(truth.count(nb.id));
    }
    total += static_cast<int64_t>(exact_result.size());
  }
  const double recall = static_cast<double>(hits) / total;
  const double scan_fraction =
      static_cast<double>(scanned) / (kQueries * n);
  std::printf("ivf recall@10=%.3f scan_fraction=%.3f\n", recall,
              scan_fraction);
  EXPECT_GE(recall, 0.9)
      << "IVF recall@10 over " << kQueries << " trained-embedding queries";
  EXPECT_LT(scan_fraction, 0.4)
      << "IVF must answer while scanning a minority of the store";

  // --- Hot-swap the same artifact through the protocol: seq advances,
  // queries keep answering. ---
  const std::string republished =
      server.HandleLine("PUBLISH " + emb_path_);
  EXPECT_EQ(republished, "OK snapshot 2");
  EXPECT_TRUE(StartsWith(server.HandleLine("KNN 5 7"), "OK 5 "));
}

#ifdef COANE_SERVE_BIN
TEST_F(ServeE2eTest, ServeBinaryAnswersOverStdin) {
  TrainAndPublish();
  // The final QUIT deliberately has no trailing newline: a request left
  // in the buffer at EOF must still get its one reply.
  const std::string command =
      std::string("printf 'KNN 5 0\\nINFO\\nQUIT' | ") +
      COANE_SERVE_BIN + " --embeddings=" + emb_path_ +
      " --manifest=" + manifest_path_ + " --threads=2 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char chunk[512];
  while (fgets(chunk, sizeof(chunk), pipe) != nullptr) output += chunk;
  const int status = pclose(pipe);
  EXPECT_EQ(status, 0);
  EXPECT_TRUE(StartsWith(output, "OK 5 ")) << output;
  EXPECT_NE(output.find("count=400"), std::string::npos) << output;
  EXPECT_NE(output.find("OK bye"), std::string::npos) << output;
}
/// SIGTERM against the real binary while a TCP client is connected: the
/// daemon must drain gracefully — the held connection is answered and
/// closed, final STATS land on stderr, and the exit code is 0 — rather
/// than dying mid-request.
TEST_F(ServeE2eTest, SigtermDuringTcpServingDrainsAndExitsZero) {
  // Signal/drain semantics do not need a trained model; a small written
  // artifact keeps this test about process lifecycle, not training.
  DenseMatrix embeddings(64, 8);
  for (int64_t i = 0; i < embeddings.rows(); ++i) {
    for (int64_t j = 0; j < embeddings.cols(); ++j) {
      embeddings.At(i, j) = static_cast<float>((i * 13 + j) % 7) - 3.0f;
    }
  }
  const std::string artifact_path = Path("drain.emb");
  ASSERT_TRUE(SaveEmbeddings(embeddings, artifact_path).ok());

  int out_pipe[2], err_pipe[2];
  ASSERT_EQ(pipe(out_pipe), 0);
  ASSERT_EQ(pipe(err_pipe), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(err_pipe[1], STDERR_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    close(err_pipe[0]);
    close(err_pipe[1]);
    const std::string embeddings_flag = "--embeddings=" + artifact_path;
    execl(COANE_SERVE_BIN, COANE_SERVE_BIN, embeddings_flag.c_str(),
          "--port=0", "--max-conns=2", "--queue-cap=4", "--threads=2",
          "--drain-deadline-sec=5", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(out_pipe[1]);
  close(err_pipe[1]);

  // The daemon prints "serving on 127.0.0.1:PORT" once the ephemeral
  // port is bound — the discovery contract for supervisors and tests.
  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos &&
         read(out_pipe[0], &c, 1) == 1) {
    banner.push_back(c);
  }
  ASSERT_TRUE(StartsWith(banner, "serving on 127.0.0.1:")) << banner;
  const int port = std::stoi(banner.substr(banner.rfind(':') + 1));

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ASSERT_EQ(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  const std::string request = "KNN 5 0\n";
  ASSERT_EQ(send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  while (reply.find('\n') == std::string::npos &&
         recv(fd, &c, 1, 0) == 1) {
    reply.push_back(c);
  }
  EXPECT_TRUE(StartsWith(reply, "OK 5 ")) << reply;

  // SIGTERM with the connection still open: the drain must close it
  // (observed as EOF here), not strand it.
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  char sink[256];
  while (recv(fd, sink, sizeof(sink), 0) > 0) {
  }
  close(fd);

  std::string stderr_out;
  ssize_t n = 0;
  while ((n = read(err_pipe[0], sink, sizeof(sink))) > 0) {
    stderr_out.append(sink, static_cast<size_t>(n));
  }
  close(out_pipe[0]);
  close(err_pipe[0]);

  int status = -1;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "daemon killed rather than exited";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // The shutdown report carries the overload ledger for this session:
  // one accepted connection, drained, nothing rejected or shed.
  EXPECT_NE(stderr_out.find("conns_accepted 1"), std::string::npos)
      << stderr_out;
  EXPECT_NE(stderr_out.find("conns_rejected 0"), std::string::npos)
      << stderr_out;
  EXPECT_NE(stderr_out.find("conns_drained 1"), std::string::npos)
      << stderr_out;
}

// --threads below 1 is a usage error (exit 2) before any snapshot build,
// as in every other tool.
TEST_F(ServeE2eTest, NonPositiveThreadsIsAUsageError) {
  const std::string command = std::string(COANE_SERVE_BIN) +
                              " --embeddings=" + Path("never_read.emb") +
                              " --threads=-3 </dev/null 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char chunk[512];
  while (fgets(chunk, sizeof(chunk), pipe) != nullptr) output += chunk;
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("usage error:"), std::string::npos) << output;
  EXPECT_NE(output.find("--threads"), std::string::npos) << output;
}
#endif  // COANE_SERVE_BIN

}  // namespace
}  // namespace serve
}  // namespace coane
