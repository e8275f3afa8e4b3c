// StreamPipeline (ctest tier `stream`): initial build and incremental
// steps commit through the state-file commit point, artifacts carry
// provenance sidecars, a step killed mid-publish retries byte-identically
// after reopen, batching honors batch_max, thread count never changes the
// bytes, and a log that stops matching the committed chain is kDataLoss.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/fault_injection.h"
#include "common/parallel/global_pool.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "stream/graph_apply.h"
#include "stream/mutation_log.h"
#include "stream/pipeline.h"
#include "stream/provenance.h"

namespace coane {
namespace stream {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    SetGlobalParallelism(1);
    char tmpl[] = "/tmp/coane_pipe_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    fault::Reset();
    SetGlobalParallelism(1);
    ASSERT_TRUE(RemoveTree(dir_).ok());
  }

  // Labeled, attributed 10-node ring with one unobserved row, saved under
  // `sub` as the pipeline's initial graph files.
  PipelineOptions MakeOptions(const std::string& sub) {
    const std::string base = dir_ + "/" + sub;
    [&] { ASSERT_EQ(::mkdir(base.c_str(), 0755), 0); }();
    GraphBuilder b(10);
    for (int i = 0; i < 10; ++i) b.AddEdge(i, (i + 1) % 10);
    b.AddEdge(0, 5);
    std::vector<SparseMatrix::Triplet> t;
    for (int i = 0; i < 10; ++i) {
      if (i == 7) continue;
      t.push_back({i, i % 4, 1.0f + static_cast<float>(i) * 0.1f});
    }
    b.SetAttributes(SparseMatrix::FromTriplets(10, 4, t));
    std::vector<uint8_t> observed(10, 1);
    observed[7] = 0;
    b.SetAttrObserved(observed);
    std::vector<int32_t> labels(10);
    for (int i = 0; i < 10; ++i) labels[i] = i % 2;
    b.SetLabels(labels);
    Graph g = std::move(b).Build().ValueOrDie();

    PipelineOptions options;
    options.init_edges = base + "/g.edges";
    options.init_attrs = base + "/g.attrs";
    options.init_labels = base + "/g.labels";
    [&] {
      ASSERT_TRUE(SaveAttributedGraph(g, options.init_edges,
                                      options.init_attrs,
                                      options.init_labels)
                      .ok());
    }();
    options.log_path = base + "/g.mlog";
    options.work_dir = base + "/work";
    options.config.embedding_dim = 8;
    options.config.walk_length = 10;
    options.config.context_size = 3;
    options.config.num_negative = 2;
    options.config.decoder_hidden = {8};
    options.config.max_epochs = 2;
    options.config.batch_size = 64;
    options.config.seed = 11;
    options.refine_epochs = 2;
    options.batch_max = 8;
    return options;
  }

  void AppendAll(const std::string& log_path,
                 const std::vector<std::string>& bodies) {
    auto writer = MutationLogWriter::Open(log_path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& body : bodies) {
      auto m = ParseMutationBody(body);
      ASSERT_TRUE(m.ok()) << body << ": " << m.status().ToString();
      ASSERT_TRUE(writer.value().Append(m.value()).ok()) << body;
    }
  }

  static std::string Slurp(const std::string& path) {
    auto blob = ReadFileToString(path);
    EXPECT_TRUE(blob.ok()) << path << ": " << blob.status().ToString();
    return blob.ok() ? blob.value() : std::string();
  }

  // One full run: initial build plus incremental steps until the log is
  // drained. Returns the path of the last published embedding artifact.
  static std::string Drain(const PipelineOptions& options) {
    auto pipeline = StreamPipeline::Open(options);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    std::string last;
    for (;;) {
      auto step = pipeline.value()->Step();
      EXPECT_TRUE(step.ok()) << step.status().ToString();
      if (!step.ok() || !step.value().published) break;
      last = step.value().embeddings_path;
    }
    return last;
  }

  const std::vector<std::string> kBatch = {
      "edge+ 0 4 1", "attr 2 1 0.7", "node+ 10 1", "edge+ 10 3 1"};

  std::string dir_;
};

TEST_F(PipelineTest, InitialBuildCommitsGenerationZero) {
  const PipelineOptions options = MakeOptions("a");
  auto pipeline = StreamPipeline::Open(options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_FALSE(pipeline.value()->initialized());

  auto step = pipeline.value()->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step.value().applied, 0);
  EXPECT_TRUE(step.value().published);
  EXPECT_EQ(step.value().log_seq, 0u);
  EXPECT_TRUE(pipeline.value()->initialized());

  // The sidecar ties generation 0 to log position 0 and the init graph's
  // fingerprint, and records the unobserved row.
  auto info = LoadPublishInfo(step.value().provenance_path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().log_seq, 0u);
  EXPECT_EQ(info.value().chain_fingerprint,
            pipeline.value()->chain_fingerprint());
  EXPECT_EQ(info.value().unobserved, (std::vector<NodeId>{7}));
  auto emb = LoadEmbeddings(step.value().embeddings_path);
  ASSERT_TRUE(emb.ok());
  EXPECT_EQ(emb.value().rows(), 10);
  EXPECT_EQ(emb.value().cols(), 8);

  // Nothing pending: the next step is a no-op that publishes nothing.
  auto idle = pipeline.value()->Step();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle.value().applied, 0);
  EXPECT_FALSE(idle.value().published);
}

TEST_F(PipelineTest, IncrementalStepFoldsPendingAndSurvivesReopen) {
  const PipelineOptions options = MakeOptions("a");
  {
    auto pipeline = StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
  }
  AppendAll(options.log_path, kBatch);
  {
    auto pipeline = StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    ASSERT_TRUE(pipeline.value()->initialized());
    auto pending = pipeline.value()->Pending();
    ASSERT_TRUE(pending.ok());
    EXPECT_EQ(pending.value(), 4);

    auto step = pipeline.value()->Step();
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    EXPECT_EQ(step.value().applied, 4);
    EXPECT_TRUE(step.value().published);
    EXPECT_EQ(step.value().log_seq, 4u);
    auto info = LoadPublishInfo(step.value().provenance_path);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().log_seq, 4u);
    auto emb = LoadEmbeddings(step.value().embeddings_path);
    ASSERT_TRUE(emb.ok());
    EXPECT_EQ(emb.value().rows(), 11);  // node+ grew the graph
  }
  // The committed position survives a reopen; nothing is pending.
  auto reopened = StreamPipeline::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->log_seq(), 4u);
  auto pending = reopened.value()->Pending();
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(pending.value(), 0);
}

TEST_F(PipelineTest, BatchMaxCapsEachStep) {
  PipelineOptions options = MakeOptions("a");
  options.batch_max = 2;
  {
    auto pipeline = StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
  }
  AppendAll(options.log_path,
            {"edge+ 0 4 1", "edge+ 1 6 1", "edge+ 2 9 1"});
  auto pipeline = StreamPipeline::Open(options);
  ASSERT_TRUE(pipeline.ok());
  auto step = pipeline.value()->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step.value().applied, 2);
  EXPECT_EQ(step.value().log_seq, 2u);
  auto pending = pipeline.value()->Pending();
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(pending.value(), 1);
  auto rest = pipeline.value()->Step();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest.value().applied, 1);
  EXPECT_EQ(rest.value().log_seq, 3u);
}

TEST_F(PipelineTest, ApplierConsumesValidPrefixOfTornLog) {
  const PipelineOptions options = MakeOptions("a");
  {
    auto pipeline = StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
  }
  AppendAll(options.log_path, {"edge+ 0 4 1", "edge+ 1 6 1"});
  // A crashed appender left half a record; the applier folds the valid
  // prefix as-is (only appenders must recover first).
  auto blob = ReadFileToString(options.log_path);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(
      WriteFileAtomic(options.log_path, blob.value() + "3 17 edge+ 2").ok());
  auto pipeline = StreamPipeline::Open(options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  auto step = pipeline.value()->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step.value().applied, 2);
  EXPECT_EQ(step.value().log_seq, 2u);
}

TEST_F(PipelineTest, KilledPublishRetriesByteIdentically) {
  // Control run, uninterrupted.
  const PipelineOptions control = MakeOptions("control");
  {
    auto pipeline = StreamPipeline::Open(control);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
  }
  AppendAll(control.log_path, kBatch);
  const std::string control_emb = Drain(control);
  ASSERT_FALSE(control_emb.empty());

  // Crash run: the commit point itself fails after every artifact of the
  // step was written, so nothing is committed.
  const PipelineOptions crash = MakeOptions("crash");
  {
    auto pipeline = StreamPipeline::Open(crash);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
  }
  AppendAll(crash.log_path, kBatch);
  {
    auto pipeline = StreamPipeline::Open(crash);
    ASSERT_TRUE(pipeline.ok());
    fault::Arm("stream.state_save", 1);
    auto step = pipeline.value()->Step();
    fault::Reset();
    ASSERT_FALSE(step.ok());
  }
  // Reopen replays the committed prefix (generation 0) and retries; the
  // retried step's artifacts are byte-identical to the control run's.
  auto resumed = StreamPipeline::Open(crash);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->log_seq(), 0u);
  auto step = resumed.value()->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step.value().log_seq, 4u);
  EXPECT_EQ(Slurp(step.value().embeddings_path), Slurp(control_emb));
  EXPECT_EQ(Slurp(resumed.value()->checkpoint_path()),
            Slurp(control.work_dir + "/gen_4.ckpt"));
}

TEST_F(PipelineTest, EarlierFaultPointsAlsoLeaveStateUncommitted) {
  const PipelineOptions options = MakeOptions("a");
  {
    auto pipeline = StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
  }
  AppendAll(options.log_path, kBatch);
  for (const char* point : {"checkpoint.write", "stream.pub_save"}) {
    auto pipeline = StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok()) << point;
    fault::Arm(point, 1);
    auto step = pipeline.value()->Step();
    fault::Reset();
    ASSERT_FALSE(step.ok()) << point;
    auto reopened = StreamPipeline::Open(options);
    ASSERT_TRUE(reopened.ok())
        << point << ": " << reopened.status().ToString();
    EXPECT_EQ(reopened.value()->log_seq(), 0u) << point;
  }
  // After all that failing, the clean retry still completes.
  auto pipeline = StreamPipeline::Open(options);
  ASSERT_TRUE(pipeline.ok());
  auto step = pipeline.value()->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step.value().log_seq, 4u);
}

// Only a missing state file means a fresh pipeline: one that cannot be
// read fails Open before any step can train and overwrite the committed
// generation's artifacts.
TEST_F(PipelineTest, UnreadableStateFileFailsOpen) {
  const PipelineOptions options = MakeOptions("a");
  ASSERT_EQ(::mkdir(options.work_dir.c_str(), 0755), 0);
  const std::string state_path = options.work_dir + "/stream_state.tsv";
  ASSERT_EQ(::mkdir(state_path.c_str(), 0755), 0);
  auto opened = StreamPipeline::Open(options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
      << opened.status().ToString();
  EXPECT_FALSE(PathExists(options.work_dir + "/gen_0.emb"));
  EXPECT_FALSE(PathExists(options.work_dir + "/manifest.tsv"));
}

TEST_F(PipelineTest, ThreadCountNeverChangesArtifactBytes) {
  const PipelineOptions one = MakeOptions("one");
  {
    auto pipeline = StreamPipeline::Open(one);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
  }
  AppendAll(one.log_path, kBatch);
  const std::string emb_one = Drain(one);

  SetGlobalParallelism(8);
  const PipelineOptions eight = MakeOptions("eight");
  {
    auto pipeline = StreamPipeline::Open(eight);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
  }
  AppendAll(eight.log_path, kBatch);
  const std::string emb_eight = Drain(eight);
  SetGlobalParallelism(1);

  EXPECT_EQ(Slurp(emb_one), Slurp(emb_eight));
  EXPECT_EQ(Slurp(one.work_dir + "/gen_0.emb"),
            Slurp(eight.work_dir + "/gen_0.emb"));
  EXPECT_EQ(Slurp(one.work_dir + "/gen_4.ckpt"),
            Slurp(eight.work_dir + "/gen_4.ckpt"));
}

TEST_F(PipelineTest, RewrittenHistoryIsDataLossOnReopen) {
  const PipelineOptions options = MakeOptions("a");
  {
    auto pipeline = StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
  }
  AppendAll(options.log_path, {"edge+ 0 4 1"});
  {
    auto pipeline = StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
  }
  // Someone rewrites history: same sequence number, different payload.
  ASSERT_TRUE(RemoveTree(options.log_path).ok());
  AppendAll(options.log_path, {"edge+ 0 6 1"});
  auto reopened = StreamPipeline::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(PipelineTest, CorruptStateFileIsDataLoss) {
  const PipelineOptions options = MakeOptions("a");
  std::string state_path;
  {
    auto pipeline = StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
    state_path = pipeline.value()->state_path();
  }
  std::string blob = Slurp(state_path);
  ASSERT_FALSE(blob.empty());
  blob[blob.size() / 2] ^= 0x04;
  ASSERT_TRUE(WriteFileAtomic(state_path, blob).ok());
  auto reopened = StreamPipeline::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(PipelineTest, StateFileFramingDefectsAreDataLoss) {
  const PipelineOptions options = MakeOptions("a");
  std::string state_path;
  {
    auto pipeline = StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Step().ok());
    state_path = pipeline.value()->state_path();
  }
  const std::string good = Slurp(state_path);
  const size_t footer_at = good.rfind("# crc32 ");
  ASSERT_NE(footer_at, std::string::npos);
  const std::string body = good.substr(0, footer_at);
  const std::string hex = good.substr(footer_at + 8, 8);
  std::string upper = hex;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  const std::vector<std::pair<const char*, std::string>> defects = {
      {"appended bytes", good + "publish_count\t99\n"},
      {"junk after digits", body + "# crc32 " + hex + "ZZZ\n"},
      {"seven digits", body + "# crc32 " + hex.substr(0, 7) + "\n"},
      {"nine digits", body + "# crc32 " + hex + "0\n"},
      {"uppercase", body + "# crc32 " + upper + "\n"},
      {"missing footer", body},
  };
  for (const auto& [defect, content] : defects) {
    if (std::string(defect) == "uppercase" && upper == hex) continue;
    ASSERT_TRUE(WriteFileAtomic(state_path, content).ok());
    auto reopened = StreamPipeline::Open(options);
    ASSERT_FALSE(reopened.ok()) << defect;
    EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss) << defect;
    EXPECT_NE(reopened.status().message().find(state_path + ":"),
              std::string::npos)
        << defect << ": " << reopened.status().ToString();
  }
  // The untouched bytes still open.
  ASSERT_TRUE(WriteFileAtomic(state_path, good).ok());
  EXPECT_TRUE(StreamPipeline::Open(options).ok());
}

}  // namespace
}  // namespace stream
}  // namespace coane
