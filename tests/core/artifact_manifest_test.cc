// Artifact-manifest tests: record/save/load round trips, the CRC footer
// guarding the manifest itself, artifact verification (intact, corrupt,
// truncated, missing, stale-config), and the shared attest and
// quarantine steps every artifact writer runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/fault_injection.h"
#include "core/artifact_manifest.h"

namespace coane {
namespace {

class ArtifactManifestTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override {
    fault::Reset();
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }

  std::string WriteTemp(const std::string& name,
                        const std::string& contents) {
    const std::string path = "/tmp/coane_manifest_" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
    out.close();
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

TEST_F(ArtifactManifestTest, SaveLoadRoundTrip) {
  const std::string artifact =
      WriteTemp("artifact.bin", "embedding bytes\n");
  auto entry = DescribeArtifact("embeddings", artifact, 0xabcdef12u);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_EQ(entry.value().size_bytes, 16u);

  ArtifactManifest manifest;
  ASSERT_TRUE(manifest.Record(entry.value()).ok());
  const std::string path = WriteTemp("roundtrip.tsv", "");
  ASSERT_TRUE(manifest.Save(path).ok());

  auto loaded = ArtifactManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().entries().size(), 1u);
  const ArtifactEntry& got = loaded.value().entries()[0];
  EXPECT_EQ(got.kind, "embeddings");
  EXPECT_EQ(got.path, artifact);
  EXPECT_EQ(got.size_bytes, entry.value().size_bytes);
  EXPECT_EQ(got.crc32, entry.value().crc32);
  EXPECT_EQ(got.config_fingerprint, 0xabcdef12u);

  // And the loaded entry verifies the untouched artifact.
  EXPECT_TRUE(VerifyArtifact(got).ok());
  EXPECT_TRUE(VerifyArtifact(got, 0xabcdef12u).ok());
}

TEST_F(ArtifactManifestTest, RecordUpsertsByKindAndPath) {
  ArtifactManifest manifest;
  ArtifactEntry a{"checkpoint", "/tmp/a", 10, 1, 2};
  ArtifactEntry a2{"checkpoint", "/tmp/a", 20, 3, 4};
  ArtifactEntry b{"embeddings", "/tmp/a", 30, 5, 6};
  ASSERT_TRUE(manifest.Record(a).ok());
  ASSERT_TRUE(manifest.Record(b).ok());
  ASSERT_TRUE(manifest.Record(a2).ok());  // replaces `a`, keeps `b`
  ASSERT_EQ(manifest.entries().size(), 2u);
  const ArtifactEntry* found = manifest.Find("checkpoint", "/tmp/a");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->size_bytes, 20u);
  EXPECT_EQ(manifest.Find("embeddings", "/tmp/a")->size_bytes, 30u);
  EXPECT_EQ(manifest.Find("walks", "/tmp/a"), nullptr);
}

TEST_F(ArtifactManifestTest, RecordRejectsUnrepresentableFields) {
  ArtifactManifest manifest;
  EXPECT_FALSE(manifest.Record({"", "/tmp/a", 0, 0, 0}).ok());
  EXPECT_FALSE(manifest.Record({"checkpoint", "", 0, 0, 0}).ok());
  EXPECT_FALSE(manifest.Record({"check\tpoint", "/tmp/a", 0, 0, 0}).ok());
  EXPECT_FALSE(manifest.Record({"checkpoint", "/tmp/a\nb", 0, 0, 0}).ok());
}

TEST_F(ArtifactManifestTest, VerifyDetectsCorruption) {
  const std::string artifact = WriteTemp("corrupt.bin", "original bytes");
  auto entry = DescribeArtifact("checkpoint", artifact, 1);
  ASSERT_TRUE(entry.ok());

  // Same size, different bytes -> kDataLoss naming the path.
  {
    std::ofstream out(artifact, std::ios::binary | std::ios::trunc);
    out << "originam bytes";
  }
  Status st = VerifyArtifact(entry.value());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.ToString().find(artifact), std::string::npos)
      << st.ToString();
}

TEST_F(ArtifactManifestTest, VerifyDetectsTruncation) {
  const std::string artifact = WriteTemp("trunc.bin", "original bytes");
  auto entry = DescribeArtifact("checkpoint", artifact, 1);
  ASSERT_TRUE(entry.ok());
  {
    std::ofstream out(artifact, std::ios::binary | std::ios::trunc);
    out << "orig";
  }
  EXPECT_EQ(VerifyArtifact(entry.value()).code(), StatusCode::kDataLoss);
}

TEST_F(ArtifactManifestTest, VerifyDetectsMissingFile) {
  const std::string artifact = WriteTemp("missing.bin", "bytes");
  auto entry = DescribeArtifact("checkpoint", artifact, 1);
  ASSERT_TRUE(entry.ok());
  std::remove(artifact.c_str());
  EXPECT_EQ(VerifyArtifact(entry.value()).code(), StatusCode::kNotFound);
}

TEST_F(ArtifactManifestTest, VerifyDetectsStaleConfig) {
  const std::string artifact = WriteTemp("stale.bin", "bytes");
  auto entry = DescribeArtifact("checkpoint", artifact, /*fingerprint=*/1);
  ASSERT_TRUE(entry.ok());
  // Intact bytes, wrong config: stale, not corrupt.
  Status st = VerifyArtifact(entry.value(), /*expected_fingerprint=*/2);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // Matching config verifies.
  EXPECT_TRUE(VerifyArtifact(entry.value(), 1).ok());
}

TEST_F(ArtifactManifestTest, LoadRejectsTamperedManifest) {
  ArtifactManifest manifest;
  ASSERT_TRUE(manifest.Record({"checkpoint", "/tmp/a", 10, 1, 2}).ok());
  const std::string path = WriteTemp("tampered.tsv", "");
  ASSERT_TRUE(manifest.Save(path).ok());

  // Flip one byte of the body: the footer CRC must catch it.
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  const size_t pos = contents.find("/tmp/a");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = 'X';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  auto loaded = ArtifactManifest::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(ArtifactManifestTest, LoadRejectsBadHeaderAndMalformedLines) {
  const std::string no_header = WriteTemp(
      "noheader.tsv", "checkpoint\t/tmp/a\t10\t00000001\t0000000000000002\n");
  EXPECT_EQ(ArtifactManifest::Load(no_header).status().code(),
            StatusCode::kDataLoss);

  const std::string missing = "/tmp/coane_manifest_does_not_exist.tsv";
  EXPECT_EQ(ArtifactManifest::Load(missing).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ArtifactManifestTest, SaveHonoursFaultPoint) {
  ArtifactManifest manifest;
  ASSERT_TRUE(manifest.Record({"checkpoint", "/tmp/a", 10, 1, 2}).ok());
  const std::string path = WriteTemp("faulted.tsv", "");
  fault::ArmTransient("manifest.write", /*trigger_hit=*/1, /*fail_count=*/1);
  EXPECT_EQ(manifest.Save(path).code(), StatusCode::kIoError);
  // Second attempt (the fault recovered) succeeds — what the CLI's retry
  // around manifest writes relies on.
  EXPECT_TRUE(manifest.Save(path).ok());
}

TEST_F(ArtifactManifestTest, EmptyManifestRoundTrips) {
  ArtifactManifest manifest;
  const std::string path = WriteTemp("empty.tsv", "");
  ASSERT_TRUE(manifest.Save(path).ok());
  auto loaded = ArtifactManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().entries().empty());
}

// Two attempts with a negligible backoff: enough to ride out one fault.
RetryPolicy TwoAttempts() {
  return RetryPolicy{.max_attempts = 2, .initial_backoff_sec = 0.001};
}

TEST_F(ArtifactManifestTest, AttestRecordsInGivenOrderWithDescribeCrcs) {
  const std::string ckpt = WriteTemp("attest.ckpt", "checkpoint bytes");
  const std::string emb = WriteTemp("attest.emb", "embedding bytes\n");
  const std::string path = WriteTemp("attest.tsv", "");
  ArtifactManifest manifest;
  // Embeddings first on purpose: insertion order, not kind or path order.
  auto attested = AttestArtifacts(
      &manifest, path, {{"embeddings", emb}, {"checkpoint", ckpt}}, 0x77u,
      nullptr);
  ASSERT_TRUE(attested.ok()) << attested.status().ToString();
  const std::vector<ArtifactEntry>& returned = attested.value();
  ASSERT_EQ(returned.size(), 2u);

  auto loaded = ArtifactManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<ArtifactEntry>& saved = loaded.value().entries();
  ASSERT_EQ(saved.size(), 2u);
  const std::pair<std::string, std::string> expected[] = {
      {"embeddings", emb}, {"checkpoint", ckpt}};
  for (size_t i = 0; i < 2; ++i) {
    auto described =
        DescribeArtifact(expected[i].first, expected[i].second, 0x77u);
    ASSERT_TRUE(described.ok());
    for (const ArtifactEntry* got : {&returned[i], &saved[i]}) {
      EXPECT_EQ(got->kind, expected[i].first);
      EXPECT_EQ(got->path, expected[i].second);
      EXPECT_EQ(got->size_bytes, described.value().size_bytes);
      EXPECT_EQ(got->crc32, described.value().crc32);
      EXPECT_EQ(got->config_fingerprint, 0x77u);
    }
  }
}

TEST_F(ArtifactManifestTest, AttestFailedSaveLeavesNoClaimOnTheArtifact) {
  const std::string old_artifact = WriteTemp("old.emb", "old bytes\n");
  const std::string path = WriteTemp("claims.tsv", "");
  ArtifactManifest manifest;
  ASSERT_TRUE(AttestArtifacts(&manifest, path, {{"embeddings", old_artifact}},
                              1, nullptr)
                  .ok());

  const std::string artifact = WriteTemp("new.ckpt", "new checkpoint");
  fault::ArmPermanent("manifest.write", /*trigger_hit=*/1);
  const RetryPolicy retry = TwoAttempts();
  auto attested = AttestArtifacts(&manifest, path, {{"checkpoint", artifact}},
                                  1, &retry);
  EXPECT_EQ(attested.status().code(), StatusCode::kIoError);
  EXPECT_EQ(fault::HitCount("manifest.write"), 2) << "both attempts ran";
  fault::Reset();

  // The artifact stays on disk; the manifest on disk is the previous one,
  // which attests the old artifact and makes no claim on the new one.
  EXPECT_TRUE(PathExists(artifact));
  auto loaded = ArtifactManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().Find("checkpoint", artifact), nullptr);
  ASSERT_NE(loaded.value().Find("embeddings", old_artifact), nullptr);
  EXPECT_EQ(VerifyArtifactAgainstManifest(path, "checkpoint", artifact)
                .code(),
            StatusCode::kNotFound);
}

TEST_F(ArtifactManifestTest, AttestRetriesATransientSaveOnlyUnderAPolicy) {
  const std::string artifact = WriteTemp("flaky.emb", "bytes\n");
  const std::string path = WriteTemp("flaky.tsv", "");
  const RetryPolicy retry = TwoAttempts();

  ArtifactManifest retried;
  fault::ArmTransient("manifest.write", /*trigger_hit=*/1, /*fail_count=*/1);
  auto ok = AttestArtifacts(&retried, path, {{"embeddings", artifact}}, 3,
                            &retry);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(VerifyArtifactAgainstManifest(path, "embeddings", artifact)
                  .ok());

  // nullptr is exactly one attempt: the same transient fault surfaces.
  ArtifactManifest once;
  fault::ArmTransient("manifest.write", /*trigger_hit=*/1, /*fail_count=*/1);
  auto failed =
      AttestArtifacts(&once, path, {{"embeddings", artifact}}, 3, nullptr);
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(fault::HitCount("manifest.write"), 1);
}

TEST_F(ArtifactManifestTest, AttestMissingArtifactRecordsNothing) {
  const std::string present = WriteTemp("present.emb", "bytes\n");
  const std::string path = "/tmp/coane_manifest_never_written.tsv";
  cleanup_.push_back(path);
  ArtifactManifest manifest;
  auto attested = AttestArtifacts(
      &manifest, path,
      {{"embeddings", present},
       {"checkpoint", "/tmp/coane_manifest_no_such_artifact"}},
      0, nullptr);
  EXPECT_EQ(attested.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(manifest.entries().empty());
  EXPECT_FALSE(PathExists(path));
}

TEST_F(ArtifactManifestTest, QuarantineRenamesAsideAndSkipsMissingFiles) {
  const std::string path = WriteTemp("rotten.ckpt", "rotten");
  cleanup_.push_back(path + ".corrupt");
  EXPECT_EQ(QuarantineArtifact(path), path + ".corrupt");
  EXPECT_FALSE(PathExists(path));
  auto moved = ReadFileToString(path + ".corrupt");
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(moved.value(), "rotten");

  // Already gone: nothing to rename, and the earlier quarantine survives.
  EXPECT_EQ(QuarantineArtifact(path), path + ".corrupt");
  EXPECT_FALSE(PathExists(path));
  EXPECT_TRUE(PathExists(path + ".corrupt"));
}

}  // namespace
}  // namespace coane
