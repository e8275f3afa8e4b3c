// Golden bytes for the six CRC-footered text formats (DESIGN.md
// "CRC-footered text files"): the artifact manifest, the dist plan and
// round log, the stream state file, the `.pub` provenance sidecar, and
// embeddings. Each test renders one fixed input, asserts the writer
// produces exactly the committed bytes, and asserts the loader reads them
// back to the same values. A change to any writer, or to the footer or
// hex rendering they share, shows up here as a byte diff.
//
// The fingerprint known-answer tests pin the FNV-1a digests that stamp
// checkpoints, plans, manifests and stream state, so a change to the
// shared hash cannot silently invalidate files already on disk.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "core/artifact_manifest.h"
#include "core/checkpoint.h"
#include "core/coane_config.h"
#include "dist/round_log.h"
#include "dist/shard_plan.h"
#include "graph/attr_impute.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "stream/graph_apply.h"
#include "stream/mutation_log.h"
#include "stream/pipeline.h"
#include "stream/provenance.h"

namespace coane {
namespace {

constexpr char kManifestGolden[] =
    "COANE-MANIFEST v1\n"
    "embeddings\t/data/g.emb\t1234\t0badf00d\t0123456789abcdef\n"
    "checkpoint\t/data/g.ckpt\t99\tdeadbeef\t0000000000000001\n"
    "# crc32 f3ccd5a8\n";

constexpr char kPlanGolden[] =
    "COANE-PLAN v1\n"
    "num_shards\t3\n"
    "quorum\t2\n"
    "round_epochs\t2\n"
    "total_epochs\t5\n"
    "fingerprint\t0232260de818a886\n"
    "# crc32 64b29844\n";

constexpr char kRoundLogGolden[] =
    "COANE-ROUNDS v1 00c0ffee12345678\n"
    "0\t2\t0,1,2\t-\t0\t1a2b3c4d\t0000beef\n"
    "1\t4\t0,2\t1\t1\tfeedface\t01020304\n"
    "# crc32 c83d6c96\n";

constexpr char kPubGolden[] =
    "COANE-PUB v1\n"
    "log_seq 3\n"
    "chain_fingerprint 00000000deadbeef\n"
    "mask_fingerprint 1111222233334444\n"
    "config_fingerprint fedcba9876543210\n"
    "created_unix_ms 1700000000123\n"
    "missing_attrs mean\n"
    "unobserved 2 2 5\n"
    "# crc32 2e410b48\n";

constexpr char kEmbeddingsGolden[] =
    "# node embedding[3]\n"
    "0 0.5 -1.25 3\n"
    "# crc32 b93227bf\n";

// The plan every plan-shaped test here uses.
dist::ShardPlan GoldenPlan() {
  dist::ShardPlan plan;
  plan.num_shards = 3;
  plan.quorum = 2;
  plan.round_epochs = 2;
  plan.base.embedding_dim = 16;
  plan.base.max_epochs = 5;
  plan.base.seed = 7;
  return plan;
}

// A 4-node graph with weighted edges, attributes, one unobserved row,
// two masked cells and labels: every section GraphFingerprint and
// AttrMaskFingerprint hash is non-empty.
Graph GoldenGraph() {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2, 0.5f);
  b.AddEdge(2, 3);
  b.SetAttributes(SparseMatrix::FromTriplets(
      4, 3, {{0, 0, 1.0f}, {1, 2, 0.25f}, {3, 1, 2.0f}}));
  b.SetAttrObserved({1, 1, 0, 1});
  b.SetMissingAttrCells({{1, 0}, {3, 2}});
  b.SetLabels({0, 1, 2, 1});
  return std::move(b).Build().ValueOrDie();
}

// The stream state file exactly as StreamPipeline writes it, or with
// `walks_line` as the format's first writer rendered it (that writer also
// recorded a per-generation walk corpus). StreamPipeline's writer is
// private, so the test renders the layout itself and compares.
std::string RenderStreamState(uint64_t log_seq, uint64_t chain,
                              uint64_t publish_count,
                              const std::string& prefix, bool walks_line) {
  char chain_hex[32];
  std::snprintf(chain_hex, sizeof(chain_hex), "%016llx",
                static_cast<unsigned long long>(chain));
  std::string body = "COANE-STREAM v1\n";
  body += "log_seq\t" + std::to_string(log_seq) + "\n";
  body += std::string("chain_fingerprint\t") + chain_hex + "\n";
  body += "publish_count\t" + std::to_string(publish_count) + "\n";
  body += "checkpoint\t" + prefix + ".ckpt\n";
  body += "embeddings\t" + prefix + ".emb\n";
  if (walks_line) body += "walks\t" + prefix + ".walks\n";
  char footer[32];
  std::snprintf(footer, sizeof(footer), "# crc32 %08x\n", Crc32(body));
  return body + footer;
}

class RecordFormatGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/coane_golden_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { ASSERT_TRUE(RemoveTree(dir_).ok()); }

  static std::string Slurp(const std::string& path) {
    auto blob = ReadFileToString(path);
    EXPECT_TRUE(blob.ok()) << path << ": " << blob.status().ToString();
    return blob.ok() ? blob.value() : std::string();
  }

  std::string dir_;
};

TEST_F(RecordFormatGoldenTest, ManifestBytes) {
  ArtifactManifest manifest;
  ASSERT_TRUE(manifest
                  .Record({"embeddings", "/data/g.emb", 1234, 0x0badf00du,
                           0x0123456789abcdefULL})
                  .ok());
  ASSERT_TRUE(
      manifest.Record({"checkpoint", "/data/g.ckpt", 99, 0xdeadbeefu, 1})
          .ok());
  const std::string path = dir_ + "/manifest.tsv";
  ASSERT_TRUE(manifest.Save(path).ok());
  EXPECT_EQ(Slurp(path), kManifestGolden);

  auto loaded = ArtifactManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().entries().size(), 2u);
  const ArtifactEntry& e = loaded.value().entries()[0];
  EXPECT_EQ(e.kind, "embeddings");
  EXPECT_EQ(e.path, "/data/g.emb");
  EXPECT_EQ(e.size_bytes, 1234u);
  EXPECT_EQ(e.crc32, 0x0badf00du);
  EXPECT_EQ(e.config_fingerprint, 0x0123456789abcdefULL);
  const ArtifactEntry& c = loaded.value().entries()[1];
  EXPECT_EQ(c.kind, "checkpoint");
  EXPECT_EQ(c.path, "/data/g.ckpt");
  EXPECT_EQ(c.size_bytes, 99u);
  EXPECT_EQ(c.crc32, 0xdeadbeefu);
  EXPECT_EQ(c.config_fingerprint, 1u);
}

TEST_F(RecordFormatGoldenTest, PlanBytes) {
  const dist::ShardPlan plan = GoldenPlan();
  ASSERT_TRUE(dist::SavePlanFile(dir_, plan).ok());
  EXPECT_EQ(Slurp(dist::PlanPath(dir_)), kPlanGolden);
  EXPECT_TRUE(dist::VerifyPlanFile(dir_, plan).ok());
}

TEST_F(RecordFormatGoldenTest, RoundLogBytes) {
  constexpr uint64_t kPlanFp = 0x00c0ffee12345678ULL;
  dist::RoundRecord r0;
  r0.round = 0;
  r0.end_epoch = 2;
  r0.committed = {0, 1, 2};
  r0.merged_model_crc = 0x1a2b3c4du;
  r0.merged_embeddings_crc = 0x0000beefu;
  dist::RoundRecord r1;
  r1.round = 1;
  r1.end_epoch = 4;
  r1.committed = {0, 2};
  r1.missing = {1};
  r1.degraded = true;
  r1.merged_model_crc = 0xfeedfaceu;
  r1.merged_embeddings_crc = 0x01020304u;

  const std::string path = dist::RoundLogPath(dir_);
  dist::RoundLog log(kPlanFp);
  ASSERT_TRUE(log.Commit(r0, path).ok());
  ASSERT_TRUE(log.Commit(r1, path).ok());
  EXPECT_EQ(Slurp(path), kRoundLogGolden);

  auto loaded = dist::RoundLog::Load(path, kPlanFp);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().rounds().size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const dist::RoundRecord& want = i == 0 ? r0 : r1;
    const dist::RoundRecord& got = loaded.value().rounds()[i];
    EXPECT_EQ(got.round, want.round);
    EXPECT_EQ(got.end_epoch, want.end_epoch);
    EXPECT_EQ(got.committed, want.committed);
    EXPECT_EQ(got.missing, want.missing);
    EXPECT_EQ(got.degraded, want.degraded);
    EXPECT_EQ(got.merged_model_crc, want.merged_model_crc);
    EXPECT_EQ(got.merged_embeddings_crc, want.merged_embeddings_crc);
  }
}

TEST_F(RecordFormatGoldenTest, PublishSidecarBytes) {
  stream::PublishInfo info;
  info.log_seq = 3;
  info.chain_fingerprint = 0x00000000deadbeefULL;
  info.mask_fingerprint = 0x1111222233334444ULL;
  info.config_fingerprint = 0xfedcba9876543210ULL;
  info.created_unix_ms = 1700000000123LL;
  info.missing_attrs = MissingAttrPolicy::kMean;
  info.unobserved = {2, 5};
  const std::string path = dir_ + "/g.emb.pub";
  ASSERT_TRUE(stream::SavePublishInfo(info, path).ok());
  EXPECT_EQ(Slurp(path), kPubGolden);

  auto loaded = stream::LoadPublishInfo(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().log_seq, info.log_seq);
  EXPECT_EQ(loaded.value().chain_fingerprint, info.chain_fingerprint);
  EXPECT_EQ(loaded.value().mask_fingerprint, info.mask_fingerprint);
  EXPECT_EQ(loaded.value().config_fingerprint, info.config_fingerprint);
  EXPECT_EQ(loaded.value().created_unix_ms, info.created_unix_ms);
  EXPECT_EQ(loaded.value().missing_attrs, info.missing_attrs);
  EXPECT_EQ(loaded.value().unobserved, info.unobserved);
}

TEST_F(RecordFormatGoldenTest, EmbeddingsBytes) {
  DenseMatrix m(1, 3);
  m.At(0, 0) = 0.5f;
  m.At(0, 1) = -1.25f;
  m.At(0, 2) = 3.0f;
  const std::string path = dir_ + "/g.emb";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  EXPECT_EQ(Slurp(path), kEmbeddingsGolden);

  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded.value().SameShape(m));
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_EQ(loaded.value().At(0, j), m.At(0, j));
  }
}

TEST_F(RecordFormatGoldenTest, StreamStateBytes) {
  // A labeled, attributed 6-node ring as the pipeline's initial graph.
  GraphBuilder b(6);
  for (int i = 0; i < 6; ++i) b.AddEdge(i, (i + 1) % 6);
  std::vector<SparseMatrix::Triplet> t;
  for (int i = 0; i < 6; ++i) {
    t.push_back({i, i % 3, 1.0f + 0.5f * static_cast<float>(i)});
  }
  b.SetAttributes(SparseMatrix::FromTriplets(6, 3, t));
  b.SetLabels({0, 1, 0, 1, 0, 1});
  const Graph g = std::move(b).Build().ValueOrDie();

  stream::PipelineOptions options;
  options.init_edges = dir_ + "/g.edges";
  options.init_attrs = dir_ + "/g.attrs";
  options.init_labels = dir_ + "/g.labels";
  ASSERT_TRUE(SaveAttributedGraph(g, options.init_edges, options.init_attrs,
                                  options.init_labels)
                  .ok());
  options.log_path = dir_ + "/g.mlog";
  options.work_dir = dir_ + "/work";
  options.config.embedding_dim = 4;
  options.config.walk_length = 6;
  options.config.context_size = 3;
  options.config.num_negative = 2;
  options.config.decoder_hidden = {4};
  options.config.max_epochs = 1;
  options.config.seed = 5;
  options.refine_epochs = 1;

  std::string state_path;
  uint64_t chain0 = 0;
  {
    auto pipeline = stream::StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    auto step = pipeline.value()->Step();
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    state_path = pipeline.value()->state_path();
    chain0 = step.value().chain_fingerprint;
  }
  EXPECT_EQ(Slurp(state_path),
            RenderStreamState(0, chain0, 1, options.work_dir + "/gen_0",
                              /*walks_line=*/false));

  // A state file in the first writer's layout is accepted as the commit
  // point (its walks line is ignored), and the next step rewrites it in
  // the current layout.
  const std::string gen0 =
      RenderStreamState(0, chain0, 1, options.work_dir + "/gen_0",
                        /*walks_line=*/true);
  ASSERT_TRUE(WriteFileAtomic(state_path, gen0).ok());
  {
    auto writer = stream::MutationLogWriter::Open(options.log_path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const char* body : {"edge+ 0 3 1", "attr 2 1 0.5"}) {
      ASSERT_TRUE(
          writer.value().Append(stream::ParseMutationBody(body).ValueOrDie())
              .ok());
    }
  }
  auto reopened = stream::StreamPipeline::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->initialized());
  EXPECT_EQ(reopened.value()->log_seq(), 0u);
  auto step = reopened.value()->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  ASSERT_EQ(step.value().log_seq, 2u);
  EXPECT_EQ(Slurp(state_path),
            RenderStreamState(2, step.value().chain_fingerprint, 2,
                              options.work_dir + "/gen_2",
                              /*walks_line=*/false));
}

// Known answers recorded from the implementation that first wrote these
// fingerprints into checkpoints, plans, manifests and `.pub` files.
TEST(FingerprintKnownAnswerTest, ConfigFingerprint) {
  EXPECT_EQ(ConfigFingerprint(CoaneConfig{}), 0x216ea1d887f1e0bcULL);
  CoaneConfig custom = GoldenPlan().base;
  custom.decoder_hidden = {32, 8};
  custom.missing_attrs = MissingAttrPolicy::kNeighbor;
  custom.subsample_t = 1e-3;
  EXPECT_EQ(ConfigFingerprint(custom), 0x5c0f571bbf8fb774ULL);
}

TEST(FingerprintKnownAnswerTest, PlanFingerprint) {
  EXPECT_EQ(dist::PlanFingerprint(GoldenPlan()), 0x0232260de818a886ULL);
}

TEST(FingerprintKnownAnswerTest, AttrMaskFingerprint) {
  EXPECT_EQ(AttrMaskFingerprint(GoldenGraph()), 0x14a01ba6615416baULL);
}

TEST(FingerprintKnownAnswerTest, GraphFingerprint) {
  EXPECT_EQ(stream::GraphFingerprint(GoldenGraph()), 0xcc52a251925e400eULL);
}

TEST(FingerprintKnownAnswerTest, FoldMutationFingerprint) {
  stream::Mutation m;
  m.seq = 9;
  m.op = stream::MutationOp::kSetAttr;
  m.u = 3;
  m.value = 0.75f;
  m.col = 2;
  m.masked = true;
  EXPECT_EQ(stream::FoldMutationFingerprint(0x0123456789abcdefULL, m),
            0x084ab57ef8ea3af0ULL);
}

TEST(FingerprintKnownAnswerTest, StreamFingerprint) {
  EXPECT_EQ(stream::StreamFingerprint(0x0123456789abcdefULL, 42,
                                      0xfedcba9876543210ULL),
            0x4d37477ccdc89b69ULL);
}

}  // namespace
}  // namespace coane
