// Snapshot lifecycle under faults and concurrency: a corrupt, missing or
// binary candidate is rejected while the previous generation keeps
// serving, a publish writes nothing beside the artifact, the serve.swap
// fault point fires where documented, manifest verification gates
// PUBLISH, and hot-swaps race live queries cleanly (this file runs under
// TSan in CI).

#include "serve/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/parallel/global_pool.h"
#include "common/rng.h"
#include "common/string_utils.h"
#include "core/artifact_manifest.h"
#include "graph/graph_io.h"
#include "serve/server.h"

namespace coane {
namespace serve {
namespace {

class SnapshotSwapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("coane_swap_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    fault::Reset();
  }
  void TearDown() override {
    SetGlobalParallelism(1);
    fault::Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Records `artifact` as kind "embeddings" (what the trainer does) and
  // saves a manifest next to it.
  std::string WriteManifest(const std::string& artifact) {
    const std::string manifest = Path("manifest.tsv");
    ArtifactManifest m;
    const auto attested =
        AttestArtifacts(&m, manifest, {{"embeddings", artifact}},
                        /*config_fingerprint=*/0, /*retry=*/nullptr);
    EXPECT_TRUE(attested.ok()) << attested.status().ToString();
    return manifest;
  }

  // Writes a text embedding artifact with `rows` rows; each artifact gets
  // a distinguishable value pattern so tests can tell generations apart.
  std::string WriteArtifact(const std::string& name, int64_t rows,
                            uint64_t seed) {
    DenseMatrix m(rows, 6);
    Rng rng(seed);
    m.GaussianInit(&rng, 0.0f, 1.0f);
    const std::string path = Path(name);
    EXPECT_TRUE(SaveEmbeddings(m, path).ok());
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotSwapTest, CorruptCandidateIsRejectedAndOldKeepsServing) {
  const std::string good = WriteArtifact("v1.emb", 40, 1);
  const std::string bad = WriteArtifact("v2.emb", 40, 2);
  // Corrupt the candidate's payload; its CRC footer must catch it.
  {
    std::string contents;
    std::ifstream in(bad);
    contents.assign(std::istreambuf_iterator<char>(in), {});
    in.close();
    const size_t pos = contents.find("0.");
    ASSERT_NE(pos, std::string::npos);
    contents[pos + 2] = contents[pos + 2] == '1' ? '2' : '1';
    std::ofstream out(bad, std::ios::trunc);
    out << contents;
  }

  ServerOptions options;
  Server server(options);
  ASSERT_TRUE(server.Start(good).ok());
  const auto before = server.engine().CurrentSnapshot();
  ASSERT_NE(before, nullptr);

  const Status rejected = server.Publish(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kDataLoss) << rejected.ToString();

  // The registry still points at the v1 generation and queries work.
  const auto after = server.engine().CurrentSnapshot();
  EXPECT_EQ(after.get(), before.get());
  EXPECT_EQ(after->sequence, 1u);
  EXPECT_TRUE(StartsWith(server.HandleLine("KNN 3 0"), "OK 3 "));
}

TEST_F(SnapshotSwapTest, MissingArtifactRejectsCandidateAndOldKeepsServing) {
  const std::string v1 = WriteArtifact("m1.emb", 20, 3);
  const std::string v2 = Path("m2.emb");
  ServerOptions options;
  Server server(options);
  ASSERT_TRUE(server.Start(v1).ok());

  const Status st = server.Publish(v2);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(server.engine().CurrentSnapshot()->source_path, v1);
  EXPECT_TRUE(StartsWith(server.HandleLine("KNN 2 1"), "OK 2 "));

  // The artifact lands: the same publish now succeeds and bumps the
  // sequence.
  ASSERT_EQ(WriteArtifact("m2.emb", 20, 4), v2);
  ASSERT_TRUE(server.Publish(v2).ok());
  EXPECT_EQ(server.engine().CurrentSnapshot()->source_path, v2);
  EXPECT_EQ(server.registry()->swaps(), 2);
}

TEST_F(SnapshotSwapTest, PublishWritesNothingBesideTheArtifact) {
  const std::string v1 = WriteArtifact("w1.emb", 20, 7);
  const std::string v2 = WriteArtifact("w2.emb", 20, 8);
  auto listing = [this] {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const std::vector<std::string> before = listing();
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(v1).ok());
  ASSERT_TRUE(server.Publish(v2).ok());
  EXPECT_EQ(listing(), before);
}

// A file in the retired binary store layout ("COANEST1" header, norm
// table, vectors; both CRCs valid) is not an artifact: the text reader
// rejects its first line, and the live generation keeps answering.
TEST_F(SnapshotSwapTest, OldBinaryStoreIsDataLossAndOldKeepsServing) {
  const std::string v1 = WriteArtifact("b1.emb", 20, 9);
  // dim 32 is byte 0x20, a space: the header's first line splits into
  // fields, and its binary first field reaches the message as a node id.
  const uint32_t dim = 32;
  const uint64_t count = 20;
  std::string body(4 * count * (dim + 1), '\0');
  for (size_t i = 0; i < body.size(); i += 4) {
    const float value = 0.5f;
    std::memcpy(&body[i], &value, sizeof(value));
  }
  std::string header = "COANEST1";
  auto append = [&header](const auto& value) {
    header.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append(uint32_t{1});
  append(dim);
  append(count);
  append(uint64_t{0});
  append(Crc32(body.data(), body.size()));
  append(Crc32(header.data(), header.size()));
  const std::string old_store = Path("b2.emb.store");
  {
    std::ofstream out(old_store, std::ios::binary);
    out << header << body;
  }

  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start(v1).ok());
  const Status st = server.Publish(old_store);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find(old_store + ":1:"), std::string::npos)
      << st.ToString();
  // The message goes out as an ERR line: no raw header byte rides along.
  const std::string& message = st.message();
  EXPECT_TRUE(std::all_of(message.begin(), message.end(), [](char c) {
    return std::isprint(static_cast<unsigned char>(c)) != 0;
  })) << message;
  EXPECT_EQ(server.engine().CurrentSnapshot()->source_path, v1);
  EXPECT_TRUE(StartsWith(server.HandleLine("KNN 2 1"), "OK 2 "));
}

TEST_F(SnapshotSwapTest, SwapFaultLeavesRegistryUnchanged) {
  const std::string v1 = WriteArtifact("s1.emb", 20, 5);
  const std::string v2 = WriteArtifact("s2.emb", 20, 6);
  ServerOptions options;
  Server server(options);
  ASSERT_TRUE(server.Start(v1).ok());

  // The candidate builds fine (CRC + rows + index all pass); the injected
  // fault fires inside Install itself, after the expensive work.
  fault::Arm("serve.swap", /*trigger_hit=*/1);
  const Status st = server.Publish(v2);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(server.engine().CurrentSnapshot()->source_path, v1);
  EXPECT_EQ(server.registry()->swaps(), 1);
}

TEST_F(SnapshotSwapTest, ManifestGatePassesRecordedArtifact) {
  const std::string emb = WriteArtifact("ok.emb", 25, 7);
  const std::string manifest = WriteManifest(emb);

  SnapshotOptions options;
  options.manifest_path = manifest;
  SnapshotRegistry registry;
  auto snapshot = BuildSnapshot(emb, options, registry.NextSequence());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
}

TEST_F(SnapshotSwapTest, ManifestGateRejectsTamperedArtifact) {
  const std::string emb = WriteArtifact("tampered.emb", 25, 8);
  const std::string manifest = WriteManifest(emb);

  // Modify the artifact after it was recorded. Rewrite it entirely with
  // *valid* contents — only the manifest can notice this substitution.
  WriteArtifact("tampered.emb", 25, 9);

  SnapshotOptions options;
  options.manifest_path = manifest;
  SnapshotRegistry registry;
  auto snapshot = BuildSnapshot(emb, options, registry.NextSequence());
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kDataLoss)
      << snapshot.status().ToString();
}

TEST_F(SnapshotSwapTest, ManifestGateRejectsUnrecordedArtifact) {
  const std::string recorded = WriteArtifact("recorded.emb", 10, 10);
  const std::string unrecorded = WriteArtifact("unrecorded.emb", 10, 11);
  const std::string manifest = WriteManifest(recorded);

  SnapshotOptions options;
  options.manifest_path = manifest;
  SnapshotRegistry registry;
  auto snapshot =
      BuildSnapshot(unrecorded, options, registry.NextSequence());
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotSwapTest, ManifestGateRefusesCorruptManifest) {
  const std::string emb = WriteArtifact("claimed.emb", 10, 20);
  const std::string manifest = WriteManifest(emb);
  // Truncate the manifest so its own footer CRC fails: a broken
  // attestation must reject the snapshot, never read as "no claim".
  {
    std::ifstream in(manifest);
    std::string contents(std::istreambuf_iterator<char>(in), {});
    in.close();
    std::ofstream out(manifest, std::ios::trunc);
    out << contents.substr(0, contents.size() / 2);
  }

  SnapshotOptions options;
  options.manifest_path = manifest;
  SnapshotRegistry registry;
  auto snapshot = BuildSnapshot(emb, options, registry.NextSequence());
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kDataLoss)
      << snapshot.status().ToString();
}

TEST_F(SnapshotSwapTest, StaleSequenceInstallIsRejected) {
  const std::string v1 = WriteArtifact("seq1.emb", 10, 16);
  const std::string v2 = WriteArtifact("seq2.emb", 10, 17);
  SnapshotRegistry registry;
  SnapshotOptions options;
  // Two publishers draw sequences in order but finish out of order: the
  // older build must not overwrite the newer live generation.
  const uint64_t seq_older = registry.NextSequence();
  const uint64_t seq_newer = registry.NextSequence();
  auto older = BuildSnapshot(v1, options, seq_older);
  auto newer = BuildSnapshot(v2, options, seq_newer);
  ASSERT_TRUE(older.ok());
  ASSERT_TRUE(newer.ok());

  ASSERT_TRUE(registry.Install(std::move(newer).ValueOrDie()).ok());
  const Status stale = registry.Install(std::move(older).ValueOrDie());
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition)
      << stale.ToString();
  EXPECT_EQ(registry.Current()->sequence, seq_newer);
  EXPECT_EQ(registry.Current()->source_path, v2);
  EXPECT_EQ(registry.swaps(), 1);
}

TEST_F(SnapshotSwapTest, InFlightGenerationSurvivesSwap) {
  const std::string v1 = WriteArtifact("pin1.emb", 30, 12);
  const std::string v2 = WriteArtifact("pin2.emb", 15, 13);
  ServerOptions options;
  Server server(options);
  ASSERT_TRUE(server.Start(v1).ok());

  // Simulate an in-flight query: pin the generation, then hot-swap.
  const auto pinned = server.engine().CurrentSnapshot();
  ASSERT_TRUE(server.Publish(v2).ok());
  EXPECT_EQ(server.engine().CurrentSnapshot()->store->count(), 15);
  // The pinned generation is intact — its mapping is still readable.
  EXPECT_EQ(pinned->store->count(), 30);
  std::vector<Neighbor> neighbors;
  EXPECT_TRUE(
      pinned->index->Search(pinned->store->Vector(29), 3, &neighbors)
          .ok());
  EXPECT_EQ(neighbors.size(), 3u);
}

// The TSan meat: queries on several threads while other threads
// repeatedly PUBLISH alternating snapshots through the same HandleLine
// entry point the daemon uses.
TEST_F(SnapshotSwapTest, HotSwapUnderConcurrentQueryLoad) {
  const std::string v1 = WriteArtifact("hot1.emb", 64, 14);
  const std::string v2 = WriteArtifact("hot2.emb", 64, 15);
  ServerOptions options;
  Server server(options);
  ASSERT_TRUE(server.Start(v1).ok());

  constexpr int kQueryThreads = 4;
  constexpr int kQueriesPerThread = 200;
  constexpr int kSwaps = 20;
  std::atomic<int> bad_replies{0};
  std::vector<std::thread> threads;
  threads.reserve(kQueryThreads + 1);
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&server, &bad_replies, t]() {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const int64_t id = (t * 31 + i) % 64;
        std::string line;
        switch (i % 3) {
          case 0: line = "KNN 5 " + std::to_string(id); break;
          case 1: line = "SCORE " + std::to_string(id) + " 0"; break;
          default: line = "GET " + std::to_string(id); break;
        }
        if (!StartsWith(server.HandleLine(line), "OK")) {
          bad_replies.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&server, &v1, &v2, &bad_replies]() {
    for (int s = 0; s < kSwaps; ++s) {
      const std::string reply =
          server.HandleLine("PUBLISH " + (s % 2 ? v1 : v2));
      if (!StartsWith(reply, "OK snapshot")) {
        bad_replies.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (std::thread& t : threads) t.join();

  // Every query during the swap storm answered OK against *some*
  // consistent generation; nothing was dropped.
  EXPECT_EQ(bad_replies.load(), 0);
  EXPECT_EQ(server.registry()->swaps(), 1 + kSwaps);
  const std::string stats = server.StatsReport();
  EXPECT_NE(stats.find("errors 0"), std::string::npos) << stats;
}

}  // namespace
}  // namespace serve
}  // namespace coane
