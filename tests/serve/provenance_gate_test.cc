// Stream provenance at the serve tier: the `<artifact>.pub` sidecar a
// dynamic-graph publisher writes changes what the server may say — direct
// queries for train-time-unobserved nodes answer NotFound with
// provenance, INFO/STATS surface log position and snapshot age, a stale
// artifact (log_seq behind the live generation) is rejected at Install
// while the live generation keeps serving, and a corrupt sidecar rejects
// the whole snapshot. Artifacts without a sidecar serve exactly as
// before.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/graph_io.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stream/mutation_log.h"
#include "stream/provenance.h"

namespace coane {
namespace serve {
namespace {

class ProvenanceGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("coane_prov_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::string WriteArtifact(const std::string& name, uint64_t seed) {
    DenseMatrix m(12, 4);
    Rng rng(seed);
    m.GaussianInit(&rng, 0.0f, 1.0f);
    const std::string path = Path(name);
    EXPECT_TRUE(SaveEmbeddings(m, path).ok());
    return path;
  }

  // Writes `artifact` plus a provenance sidecar at mutation-log position
  // `log_seq` marking nodes 3 and 7 unobserved.
  std::string WriteProvenanced(const std::string& name, uint64_t seed,
                               uint64_t log_seq) {
    const std::string path = WriteArtifact(name, seed);
    stream::PublishInfo info;
    info.log_seq = log_seq;
    info.chain_fingerprint = 0x1234 + log_seq;
    info.created_unix_ms = stream::NowUnixMs();
    info.missing_attrs = MissingAttrPolicy::kMean;
    info.unobserved = {3, 7};
    EXPECT_TRUE(
        SavePublishInfo(info, stream::PublishInfoPathFor(path)).ok());
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(ProvenanceGateTest, UnobservedQueriesAnswerNotFoundWithProvenance) {
  const std::string artifact = WriteProvenanced("v1.emb", 1, /*log_seq=*/5);
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(artifact).ok());

  // Every direct addressing of an unobserved node is refused — the stored
  // vector is pure imputation — and the refusal names the policy and log
  // position so the client can tell *why*.
  for (const char* line :
       {"GET 3", "KNN 2 7", "SCORE 0 3", "SCORE 7 0"}) {
    const std::string reply = server.HandleLine(line);
    EXPECT_EQ(reply.rfind("ERR NotFound: unobserved node", 0), 0) << line
        << " -> " << reply;
    EXPECT_NE(reply.find("policy=mean"), std::string::npos) << reply;
    EXPECT_NE(reply.find("log_seq=5"), std::string::npos) << reply;
  }
  // Observed nodes keep answering; unobserved ids may appear as their
  // neighbors (the index is not filtered).
  EXPECT_EQ(server.HandleLine("GET 0").rfind("OK", 0), 0u);
  EXPECT_EQ(server.HandleLine("KNN 3 0").rfind("OK", 0), 0u);
  EXPECT_EQ(server.HandleLine("SCORE 0 1").rfind("OK", 0), 0u);
}

// The unobserved-node gate and the answer must come from one generation.
// A swapper thread flips the live generation between A (node 3
// unobserved) and B (no sidecar, node 3 observed, different vectors)
// while direct queries for node 3 run. Every reply must be either A's
// refusal or B's exact answer: gating on B and then answering from A
// would hand out A's imputed row 3. (A race test: a flip must land
// between two acquisitions for a double acquire to show, which happened
// in about 4 of 10 runs on a 4-vCPU host; it cannot fail with a single
// acquisition. QueryEngineTest.AcquiredSnapshotKeepsAnsweringAfterASwap
// pins the single-generation path deterministically.)
TEST_F(ProvenanceGateTest, GateAndAnswerComeFromOneGeneration) {
  const std::string gen_a = WriteProvenanced("a.emb", 1, /*log_seq=*/4);
  const std::string gen_b = WriteArtifact("b.emb", 2);
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(gen_a).ok());
  const auto snapshot_a = server.engine().CurrentSnapshot();
  ASSERT_TRUE(server.Publish(gen_b).ok());
  const auto snapshot_b = server.engine().CurrentSnapshot();

  const std::vector<std::string> requests = {"GET 3", "KNN 4 3",
                                             "SCORE 0 3"};
  std::vector<std::string> answers_b;
  for (const std::string& request : requests) {
    answers_b.push_back(server.HandleLine(request));
    ASSERT_EQ(answers_b.back().rfind("OK", 0), 0u) << answers_b.back();
  }

  std::atomic<bool> done{false};
  std::thread swapper([&]() {
    SnapshotRegistry* registry = server.registry();
    for (uint64_t flip = 0; !done.load(); ++flip) {
      auto next = std::make_shared<Snapshot>(flip % 2 == 0 ? *snapshot_a
                                                           : *snapshot_b);
      next->sequence = registry->NextSequence();
      EXPECT_TRUE(registry->Install(std::move(next)).ok());
    }
  });
  for (int round = 0; round < 20000; ++round) {
    for (size_t r = 0; r < requests.size(); ++r) {
      const std::string reply = server.HandleLine(requests[r]);
      if (reply != answers_b[r] &&
          reply.rfind("ERR NotFound: unobserved node 3", 0) != 0) {
        ADD_FAILURE() << requests[r] << " was gated on one generation "
                      << "and answered from another: " << reply;
        round = 20000;
        break;
      }
    }
  }
  done.store(true);
  swapper.join();
}

TEST_F(ProvenanceGateTest, InfoAndStatsSurfaceFreshness) {
  const std::string artifact = WriteProvenanced("v1.emb", 1, /*log_seq=*/9);
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(artifact).ok());

  const std::string info = server.HandleLine("INFO");
  EXPECT_NE(info.find(" log_pos=9"), std::string::npos) << info;
  EXPECT_NE(info.find(" unobserved=2"), std::string::npos) << info;
  // The sidecar's trained policy wins over the operator-declared flag.
  EXPECT_NE(info.find(" missing_attrs=mean"), std::string::npos) << info;

  const std::string stats = server.HandleLine("STATS");
  EXPECT_NE(stats.find("snapshot_seq 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("log_pos 9"), std::string::npos) << stats;
  EXPECT_NE(stats.find("snapshot_age_sec "), std::string::npos) << stats;
}

TEST_F(ProvenanceGateTest, SidecarlessArtifactServesAsBefore) {
  const std::string artifact = WriteArtifact("plain.emb", 1);
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(artifact).ok());
  auto snapshot = server.engine().CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_FALSE(snapshot->has_provenance);
  EXPECT_TRUE(snapshot->unobserved.empty());
  // No provenance fields leak into INFO; every node answers.
  const std::string info = server.HandleLine("INFO");
  EXPECT_EQ(info.find("log_pos="), std::string::npos) << info;
  EXPECT_EQ(server.HandleLine("GET 3").rfind("OK", 0), 0u);
  // STATS keeps its stable shape with zeros.
  const std::string stats = server.HandleLine("STATS");
  EXPECT_NE(stats.find("log_pos 0"), std::string::npos) << stats;
}

TEST_F(ProvenanceGateTest, CorruptSidecarRejectsSnapshot) {
  const std::string good = WriteProvenanced("v1.emb", 1, /*log_seq=*/2);
  const std::string bad = WriteProvenanced("v2.emb", 2, /*log_seq=*/3);
  {
    const std::string sidecar = stream::PublishInfoPathFor(bad);
    std::string blob;
    {
      std::ifstream in(sidecar);
      blob.assign(std::istreambuf_iterator<char>(in), {});
    }
    blob[blob.find("log_seq") + 8] ^= 0x01;
    std::ofstream out(sidecar, std::ios::trunc);
    out << blob;
  }
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(good).ok());
  const auto before = server.engine().CurrentSnapshot();
  const Status status = server.Publish(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  // The live generation is untouched.
  EXPECT_EQ(server.engine().CurrentSnapshot(), before);
}

TEST_F(ProvenanceGateTest, SidecarFramingDefectsAreDataLoss) {
  const std::string sidecar =
      stream::PublishInfoPathFor(WriteProvenanced("v1.emb", 1, 3));
  std::string good;
  {
    std::ifstream in(sidecar, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  const size_t footer_at = good.rfind("# crc32 ");
  ASSERT_NE(footer_at, std::string::npos);
  const std::string body = good.substr(0, footer_at);
  const std::string hex = good.substr(footer_at + 8, 8);
  std::string upper = hex;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  const std::vector<std::pair<const char*, std::string>> defects = {
      {"appended bytes", good + "log_seq 999\n"},
      {"seven digits", body + "# crc32 " + hex.substr(0, 7) + "\n"},
      {"nine digits", body + "# crc32 " + hex + "0\n"},
      {"uppercase", body + "# crc32 " + upper + "\n"},
      {"missing footer", body},
  };
  for (const auto& [defect, content] : defects) {
    if (std::string(defect) == "uppercase" && upper == hex) continue;
    {
      std::ofstream out(sidecar, std::ios::binary | std::ios::trunc);
      out << content;
    }
    auto loaded = stream::LoadPublishInfo(sidecar);
    ASSERT_FALSE(loaded.ok())
        << defect << ": loaded log_seq " << loaded.value().log_seq;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << defect;
    EXPECT_NE(loaded.status().message().find(sidecar + ":"),
              std::string::npos)
        << defect << ": " << loaded.status().ToString();
  }
}

TEST_F(ProvenanceGateTest, StaleLogPositionIsRejectedEqualIsIdempotent) {
  const std::string fresh = WriteProvenanced("fresh.emb", 1, /*log_seq=*/6);
  const std::string stale = WriteProvenanced("stale.emb", 2, /*log_seq=*/4);
  const std::string same = WriteProvenanced("same.emb", 3, /*log_seq=*/6);
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(fresh).ok());

  // A lagging publisher must not roll the served log position back.
  const Status status = server.Publish(stale);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_NE(status.ToString().find("stale"), std::string::npos)
      << status.ToString();
  auto snapshot = server.engine().CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->log_seq, 6u);
  EXPECT_EQ(snapshot->sequence, 1u);

  // Republishing the same log position (a restarted publisher re-pushing
  // its last artifact) is legitimate and advances the serve sequence.
  // (The failed publish above already consumed a sequence number — the
  // registry allocates before the gate so racing builds stay ordered —
  // so assert monotonicity, not a specific value.)
  ASSERT_TRUE(server.Publish(same).ok());
  snapshot = server.engine().CurrentSnapshot();
  EXPECT_EQ(snapshot->log_seq, 6u);
  EXPECT_GT(snapshot->sequence, 1u);

  // And a genuinely fresher artifact still swaps in.
  const std::string next = WriteProvenanced("next.emb", 4, /*log_seq=*/7);
  ASSERT_TRUE(server.Publish(next).ok());
  EXPECT_EQ(server.engine().CurrentSnapshot()->log_seq, 7u);
}

TEST_F(ProvenanceGateTest, ProvenancedOverStaticNeverGatesOnLogPosition) {
  // A static artifact has no log position; the gate only engages when
  // *both* generations carry provenance.
  const std::string plain = WriteArtifact("plain.emb", 1);
  const std::string provenanced =
      WriteProvenanced("prov.emb", 2, /*log_seq=*/1);
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(provenanced).ok());
  ASSERT_TRUE(server.Publish(plain).ok());
  auto snapshot = server.engine().CurrentSnapshot();
  EXPECT_FALSE(snapshot->has_provenance);
  // Back to a provenanced generation, fine again.
  ASSERT_TRUE(server.Publish(provenanced).ok());
  EXPECT_TRUE(server.engine().CurrentSnapshot()->has_provenance);
}

}  // namespace
}  // namespace serve
}  // namespace coane
