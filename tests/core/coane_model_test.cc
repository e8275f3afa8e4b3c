#include "core/coane_model.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/parallel/global_pool.h"
#include "datasets/attributed_sbm.h"
#include "graph/graph_builder.h"
#include "la/matrix_oracles.h"
#include "la/vector_ops.h"

namespace coane {
namespace {

AttributedNetwork SmallNetwork(uint64_t seed = 11) {
  AttributedSbmConfig c;
  c.num_nodes = 120;
  c.num_classes = 3;
  c.num_attributes = 100;
  c.circles_per_class = 2;
  c.avg_degree = 6.0;
  c.seed = seed;
  return GenerateAttributedSbm(c).ValueOrDie();
}

CoaneConfig FastConfig() {
  CoaneConfig c;
  c.walk_length = 20;
  c.context_size = 3;
  c.embedding_dim = 16;
  c.num_negative = 5;
  c.max_epochs = 2;
  c.batch_size = 64;
  c.decoder_hidden = {32};
  c.seed = 5;
  return c;
}

TEST(CoaneModelTest, EndToEndProducesEmbeddings) {
  AttributedNetwork net = SmallNetwork();
  CoaneModel model(net.graph, FastConfig());
  ASSERT_TRUE(model.Preprocess().ok());
  auto history = model.Train();
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  EXPECT_EQ(history.value().size(), 2u);
  const DenseMatrix& z = model.embeddings();
  EXPECT_EQ(z.rows(), 120);
  EXPECT_EQ(z.cols(), 16);
  EXPECT_GT(FrobeniusNorm(z), 0.0);
}

TEST(CoaneModelTest, TrainingReducesTotalLoss) {
  AttributedNetwork net = SmallNetwork();
  CoaneConfig cfg = FastConfig();
  cfg.max_epochs = 6;
  CoaneModel model(net.graph, cfg);
  ASSERT_TRUE(model.Preprocess().ok());
  auto history = model.Train().ValueOrDie();
  EXPECT_LT(history.back().total_loss, history.front().total_loss);
}

TEST(CoaneModelTest, TrainBeforePreprocessFails) {
  AttributedNetwork net = SmallNetwork();
  CoaneModel model(net.graph, FastConfig());
  auto r = model.TrainEpoch();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CoaneModelTest, InvalidConfigRejected) {
  AttributedNetwork net = SmallNetwork();
  CoaneConfig cfg = FastConfig();
  cfg.context_size = 4;  // even
  EXPECT_FALSE(CoaneModel(net.graph, cfg).Preprocess().ok());
  cfg = FastConfig();
  cfg.embedding_dim = 15;  // odd
  EXPECT_FALSE(CoaneModel(net.graph, cfg).Preprocess().ok());
  cfg = FastConfig();
  cfg.batch_size = 0;
  EXPECT_FALSE(CoaneModel(net.graph, cfg).Preprocess().ok());
}

TEST(CoaneModelTest, DeterministicGivenSeed) {
  AttributedNetwork net = SmallNetwork();
  auto z1 = TrainCoaneEmbeddings(net.graph, FastConfig()).ValueOrDie();
  auto z2 = TrainCoaneEmbeddings(net.graph, FastConfig()).ValueOrDie();
  ASSERT_TRUE(z1.SameShape(z2));
  for (int64_t i = 0; i < z1.size(); ++i) {
    EXPECT_FLOAT_EQ(z1.data()[i], z2.data()[i]);
  }
}

TEST(CoaneModelTest, AblationConfigsAllRun) {
  AttributedNetwork net = SmallNetwork();
  // WP, SG, WN, NS, WF, WAP, FC encoder — every switch must train.
  std::vector<CoaneConfig> configs;
  {
    CoaneConfig c = FastConfig();
    c.use_positive_loss = false;
    configs.push_back(c);
  }
  {
    CoaneConfig c = FastConfig();
    c.skipgram_positive = true;
    configs.push_back(c);
  }
  {
    CoaneConfig c = FastConfig();
    c.use_negative_loss = false;
    configs.push_back(c);
  }
  {
    CoaneConfig c = FastConfig();
    c.negative_mode = NegativeSamplingMode::kUniform;
    configs.push_back(c);
  }
  {
    CoaneConfig c = FastConfig();
    c.use_attributes = false;
    configs.push_back(c);
  }
  {
    CoaneConfig c = FastConfig();
    c.use_attribute_loss = false;
    configs.push_back(c);
  }
  {
    CoaneConfig c = FastConfig();
    c.encoder_kind = ContextEncoder::Kind::kFullyConnected;
    configs.push_back(c);
  }
  {
    CoaneConfig c = FastConfig();
    c.negative_mode = NegativeSamplingMode::kPreSampled;
    configs.push_back(c);
  }
  for (size_t i = 0; i < configs.size(); ++i) {
    auto z = TrainCoaneEmbeddings(net.graph, configs[i]);
    ASSERT_TRUE(z.ok()) << "config " << i << ": " << z.status().ToString();
    EXPECT_GT(FrobeniusNorm(z.value()), 0.0) << "config " << i;
  }
}

TEST(CoaneModelTest, EmbeddingsSeparateClasses) {
  // Same-class pairs should be more similar than cross-class pairs after
  // training — the core property every downstream task relies on.
  AttributedNetwork net = SmallNetwork(21);
  CoaneConfig cfg = FastConfig();
  cfg.max_epochs = 5;
  CoaneModel model(net.graph, cfg);
  ASSERT_TRUE(model.Preprocess().ok());
  ASSERT_TRUE(model.Train().ok());
  const DenseMatrix& z = model.embeddings();
  const auto& labels = net.graph.labels();
  double same_sum = 0.0, diff_sum = 0.0;
  int64_t same_n = 0, diff_n = 0;
  for (NodeId u = 0; u < z.rows(); ++u) {
    for (NodeId v = u + 1; v < z.rows(); ++v) {
      const double sim = CosineSimilarity(z.Row(u), z.Row(v), z.cols());
      if (labels[static_cast<size_t>(u)] == labels[static_cast<size_t>(v)]) {
        same_sum += sim;
        ++same_n;
      } else {
        diff_sum += sim;
        ++diff_n;
      }
    }
  }
  EXPECT_GT(same_sum / same_n, diff_sum / diff_n + 0.05)
      << "same-class embeddings must be measurably closer";
}

TEST(CoaneModelTest, NoAttributesGraphRequiresWfFlag) {
  // A graph without attributes must be rejected unless use_attributes is
  // false (WF mode uses identity features).
  AttributedSbmConfig sc;
  sc.num_nodes = 60;
  sc.num_classes = 2;
  sc.num_attributes = 60;
  sc.circles_per_class = 2;
  sc.seed = 3;
  auto net = GenerateAttributedSbm(sc).ValueOrDie();
  // Rebuild graph without attributes.
  GraphBuilder b(net.graph.num_nodes());
  b.AddEdges(net.graph.UndirectedEdges());
  Graph bare = std::move(b).Build().ValueOrDie();

  CoaneConfig cfg = FastConfig();
  EXPECT_FALSE(CoaneModel(bare, cfg).Preprocess().ok());
  cfg.use_attributes = false;
  cfg.use_attribute_loss = false;
  EXPECT_TRUE(CoaneModel(bare, cfg).Preprocess().ok());
}

// --- State adopters: WarmStartFrom and ApplyAveragedState take parameters
// --- from a TrainingCheckpoint held in memory.

bool SameBytes(const DenseMatrix& a, const DenseMatrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// The model's full training state as checkpoint-file bytes.
std::string StateBytes(const CoaneModel& model, const std::string& name) {
  const std::string path = ::testing::TempDir() + "coane_adopt_" + name +
                           ".ckpt";
  EXPECT_TRUE(model.SaveCheckpoint(path).ok());
  auto bytes = ReadFileToString(path);
  std::remove(path.c_str());
  return bytes.ok() ? bytes.value() : std::string();
}

// Saves `model` and reads the file back as the in-memory state.
TrainingCheckpoint SavedState(const CoaneModel& model,
                              const std::string& name) {
  const std::string path = ::testing::TempDir() + "coane_adopt_" + name +
                           ".ckpt";
  EXPECT_TRUE(model.SaveCheckpoint(path).ok());
  auto state = ReadCheckpointFile(path);
  std::remove(path.c_str());
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  return state.ok() ? state.value() : TrainingCheckpoint();
}

TEST(CoaneModelAdoptTest, ShapeMismatchIsDataLossAndLeavesModelUnchanged) {
  AttributedNetwork net = SmallNetwork();
  // A different encoder width, a fully-connected encoder (one weight
  // matrix, not context_size) and a different decoder width (behind an
  // encoder that fits) all fail before anything is written.
  CoaneConfig narrower = FastConfig();
  narrower.embedding_dim = 8;
  CoaneConfig fully_connected = FastConfig();
  fully_connected.encoder_kind = ContextEncoder::Kind::kFullyConnected;
  CoaneConfig other_decoder = FastConfig();
  other_decoder.decoder_hidden = {24};
  other_decoder.seed = 77;
  for (const CoaneConfig& source_cfg :
       {narrower, fully_connected, other_decoder}) {
    CoaneModel source(net.graph, source_cfg);
    ASSERT_TRUE(source.Preprocess().ok());
    const TrainingCheckpoint state = SavedState(source, "mismatch_src");

    CoaneModel model(net.graph, FastConfig());
    ASSERT_TRUE(model.Preprocess().ok());
    const DenseMatrix z_before = model.embeddings();
    const std::string bytes_before = StateBytes(model, "mismatch_before");

    Status warm = model.WarmStartFrom(state);
    EXPECT_EQ(warm.code(), StatusCode::kDataLoss) << warm.ToString();
    EXPECT_TRUE(SameBytes(model.embeddings(), z_before));
    EXPECT_TRUE(StateBytes(model, "mismatch_warm") == bytes_before);

    Status merged = model.ApplyAveragedState(state);
    EXPECT_EQ(merged.code(), StatusCode::kDataLoss) << merged.ToString();
    EXPECT_TRUE(SameBytes(model.embeddings(), z_before));
    EXPECT_TRUE(StateBytes(model, "mismatch_merged") == bytes_before);
  }
}

// Adoption checks the whole state before it writes any of it. A state
// whose encoder fits the model (with other values: it was trained an
// epoch) but whose decoder or Adam shapes do not, or whose RNG text does
// not parse, is DataLoss and leaves the model byte-identical — with no
// backup copy to roll back to, a write before the last check would show.
TEST(CoaneModelAdoptTest, AdoptionChecksEverythingBeforeWriting) {
  AttributedNetwork net = SmallNetwork();
  const CoaneConfig cfg = FastConfig();
  CoaneModel source(net.graph, cfg);
  ASSERT_TRUE(source.Preprocess().ok());
  ASSERT_TRUE(source.TrainEpoch().ok());
  TrainingCheckpoint good = SavedState(source, "checks_src");
  good.epochs_done = 0;  // the adopting models are fresh
  ASSERT_FALSE(good.decoder.empty());
  ASSERT_FALSE(good.adam.empty());

  TrainingCheckpoint bad_decoder = good;
  bad_decoder.decoder[0].weight = DenseMatrix(
      good.decoder[0].weight.rows() + 1, good.decoder[0].weight.cols());
  TrainingCheckpoint bad_adam = good;
  bad_adam.adam.back().v =
      DenseMatrix(good.adam.back().v.rows(), good.adam.back().v.cols() + 1);
  TrainingCheckpoint bad_rng = good;
  bad_rng.rng_state = "not an engine state";

  const std::string path = ::testing::TempDir() + "coane_adopt_checks.ckpt";
  // Adopts with `adopt` into a fresh model; returns the model's embeddings.
  auto adopt_fresh = [&](const std::function<Status(CoaneModel*)>& adopt,
                         Status* st) {
    CoaneModel model(net.graph, cfg);
    EXPECT_TRUE(model.Preprocess().ok());
    const DenseMatrix z_before = model.embeddings();
    const std::string bytes_before = StateBytes(model, "checks_before");
    *st = adopt(&model);
    if (!st->ok()) {
      EXPECT_TRUE(SameBytes(model.embeddings(), z_before));
      EXPECT_TRUE(StateBytes(model, "checks_after") == bytes_before);
    }
    return model.embeddings();
  };
  const std::pair<const char*, const TrainingCheckpoint*> cases[] = {
      {"decoder shape", &bad_decoder},
      {"Adam shape", &bad_adam},
      {"RNG text", &bad_rng}};
  for (const auto& [name, state] : cases) {
    ASSERT_TRUE(WriteCheckpointFile(path, *state).ok()) << name;
    Status st;
    adopt_fresh([&](CoaneModel* m) { return m->LoadCheckpoint(path); }, &st);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss)
        << name << " via LoadCheckpoint: " << st.ToString();
    // Only LoadCheckpoint adopts the RNG.
    if (state == &bad_rng) continue;
    adopt_fresh([&](CoaneModel* m) { return m->WarmStartFrom(*state); },
                &st);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss)
        << name << " via WarmStartFrom: " << st.ToString();
    adopt_fresh(
        [&](CoaneModel* m) { return m->ApplyAveragedState(*state); }, &st);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss)
        << name << " via ApplyAveragedState: " << st.ToString();
  }

  // The unbroken state is adopted by all three, and moves the embeddings:
  // each case above fails on its own defect, and a partial write of the
  // encoder would have changed them.
  ASSERT_TRUE(WriteCheckpointFile(path, good).ok());
  CoaneModel fresh(net.graph, cfg);
  ASSERT_TRUE(fresh.Preprocess().ok());
  Status st;
  const DenseMatrix loaded = adopt_fresh(
      [&](CoaneModel* m) { return m->LoadCheckpoint(path); }, &st);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(SameBytes(loaded, fresh.embeddings()));
  adopt_fresh([&](CoaneModel* m) { return m->WarmStartFrom(good); }, &st);
  EXPECT_TRUE(st.ok()) << st.ToString();
  adopt_fresh([&](CoaneModel* m) { return m->ApplyAveragedState(good); },
              &st);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::remove(path.c_str());
}

TEST(CoaneModelAdoptTest, WarmStartResetsEpochsAndKeepsOwnRng) {
  AttributedNetwork net = SmallNetwork();
  const CoaneConfig cfg = FastConfig();
  const std::string path = ::testing::TempDir() + "coane_warm_start.ckpt";
  {
    CoaneModel trained(net.graph, cfg);
    ASSERT_TRUE(trained.Preprocess().ok());
    ASSERT_TRUE(trained.TrainEpoch().ok());
    ASSERT_TRUE(trained.SaveCheckpoint(path).ok());
  }
  auto state = ReadCheckpointFile(path);
  ASSERT_TRUE(state.ok()) << state.status().ToString();

  CoaneModel loaded(net.graph, cfg);
  ASSERT_TRUE(loaded.Preprocess().ok());
  ASSERT_TRUE(loaded.LoadCheckpoint(path).ok());
  CoaneModel warm(net.graph, cfg);
  ASSERT_TRUE(warm.Preprocess().ok());
  Status st = warm.WarmStartFrom(state.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::remove(path.c_str());

  EXPECT_EQ(loaded.epochs_done(), 1);
  EXPECT_EQ(warm.epochs_done(), 0);
  // Same parameters, so the same embeddings ...
  EXPECT_TRUE(SameBytes(loaded.embeddings(), warm.embeddings()));
  // ... but only the loaded model continues the checkpoint's RNG stream,
  // so the next epoch shuffles and samples differently.
  ASSERT_TRUE(loaded.TrainEpoch().ok());
  ASSERT_TRUE(warm.TrainEpoch().ok());
  EXPECT_EQ(warm.epochs_done(), 1);
  EXPECT_FALSE(SameBytes(loaded.embeddings(), warm.embeddings()));
}

TEST(CoaneModelAdoptTest, AveragedStateAtAnotherEpochIsRejected) {
  AttributedNetwork net = SmallNetwork();
  CoaneModel source(net.graph, FastConfig());
  ASSERT_TRUE(source.Preprocess().ok());
  ASSERT_TRUE(source.TrainEpoch().ok());
  const TrainingCheckpoint state = SavedState(source, "epoch_src");

  CoaneModel model(net.graph, FastConfig());
  ASSERT_TRUE(model.Preprocess().ok());
  const std::string bytes_before = StateBytes(model, "epoch_before");
  Status st = model.ApplyAveragedState(state);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_EQ(model.epochs_done(), 0);
  EXPECT_TRUE(StateBytes(model, "epoch_after") == bytes_before);
}

// Golden training bytes. Each case trains a tiny model for two epochs and
// CRC-32s the checkpoint file: encoder filters, decoder weights, Adam
// moments and step counts, RNG state, learning rate. The constants were
// recorded before the batch-sized encoder-gradient reduction and dL/dZ
// replaced the full-buffer path. A changed summation order in the
// encoder-gradient merge, clipping that scales the wrong rows, or a
// rollback-and-retry that leaves stale state changes these bytes, at any
// thread count.
uint32_t CheckpointCrc(const Graph& graph, const CoaneConfig& cfg,
                       int threads, const std::string& name) {
  SetGlobalParallelism(threads);
  CoaneModel model(graph, cfg);
  EXPECT_TRUE(model.Preprocess().ok());
  auto history = model.Train();
  EXPECT_TRUE(history.ok()) << history.status().ToString();
  const std::string path = ::testing::TempDir() + "coane_golden_" + name +
                           "_t" + std::to_string(threads) + ".ckpt";
  EXPECT_TRUE(model.SaveCheckpoint(path).ok());
  auto bytes = ReadFileToString(path);
  std::remove(path.c_str());
  SetGlobalParallelism(1);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? Crc32(bytes.value()) : 0;
}

TEST(CoaneModelGoldenTest, ConvolutionBatchNegatives) {
  AttributedNetwork net = SmallNetwork();
  CoaneConfig cfg = FastConfig();
  cfg.negative_mode = NegativeSamplingMode::kBatch;
  for (int threads : {1, 3, 8}) {
    EXPECT_EQ(CheckpointCrc(net.graph, cfg, threads, "conv_batch"),
              0xb6cfc28bu)
        << "threads " << threads;
  }
}

TEST(CoaneModelGoldenTest, FullyConnectedPreSampledNegatives) {
  AttributedNetwork net = SmallNetwork();
  CoaneConfig cfg = FastConfig();
  cfg.encoder_kind = ContextEncoder::Kind::kFullyConnected;
  cfg.negative_mode = NegativeSamplingMode::kPreSampled;
  for (int threads : {1, 3, 8}) {
    EXPECT_EQ(CheckpointCrc(net.graph, cfg, threads, "fc_presampled"),
              0x32a118ceu)
        << "threads " << threads;
  }
}

TEST(CoaneModelGoldenTest, GradientClipping) {
  AttributedNetwork net = SmallNetwork();
  CoaneConfig cfg = FastConfig();
  cfg.grad_clip_norm = 0.5f;
  for (int threads : {1, 3, 8}) {
    EXPECT_EQ(CheckpointCrc(net.graph, cfg, threads, "clip"), 0xf2be2d59u)
        << "threads " << threads;
  }
}

TEST(CoaneModelGoldenTest, PoisonedBatchRollsBackAndRetries) {
  AttributedNetwork net = SmallNetwork();
  CoaneConfig cfg = FastConfig();
  for (int threads : {1, 3, 8}) {
    fault::Reset();
    fault::Arm("train.batch_grad", /*trigger_hit=*/1);
    EXPECT_EQ(CheckpointCrc(net.graph, cfg, threads, "retry"), 0x3ae60ad8u)
        << "threads " << threads;
    fault::Reset();
  }
}

}  // namespace
}  // namespace coane
