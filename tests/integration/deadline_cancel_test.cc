// Cooperative stop tests: every long-running stage must halt within one
// unit of work of a cancel/deadline/watchdog trip, return the right status
// code, preserve partial results where the API promises them, and leave
// training in a state that resumes bit-identically from a checkpoint.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/run_context.h"
#include "common/watchdog.h"
#include "core/coane_model.h"
#include "datasets/attributed_sbm.h"
#include "eval/clustering_task.h"
#include "eval/kmeans.h"
#include "eval/link_prediction.h"
#include "eval/logistic_regression.h"
#include "eval/node_classification.h"
#include "eval/tsne.h"
#include "walk/context_generator.h"
#include "walk/random_walk.h"

namespace coane {
namespace {

bool BitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

AttributedNetwork TinyNet() {
  AttributedSbmConfig c;
  c.num_nodes = 60;
  c.num_classes = 2;
  c.num_attributes = 60;
  c.circles_per_class = 2;
  c.seed = 71;
  return GenerateAttributedSbm(c).ValueOrDie();
}

CoaneConfig TinyConfig() {
  CoaneConfig c;
  c.walk_length = 10;
  c.embedding_dim = 8;
  c.num_negative = 3;
  c.max_epochs = 2;
  c.batch_size = 16;
  c.decoder_hidden = {16};
  return c;
}

RunContext ExpiredContext() { return RunContext().SetDeadlineAfter(-1.0); }

DenseMatrix SmoothPoints(int64_t n, int64_t d) {
  DenseMatrix m(n, d);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      m.At(i, j) = static_cast<float>(
          std::sin(0.7 * static_cast<double>(i) +
                   1.3 * static_cast<double>(j)));
    }
  }
  return m;
}

// --- Random walks and contexts.

TEST(DeadlineCancelTest, WalkDeadlineStopsBeforeAnyWork) {
  AttributedNetwork net = TinyNet();
  RandomWalkConfig wc;
  Rng rng(7);
  const RunContext expired = ExpiredContext();
  auto walks = GenerateRandomWalks(net.graph, wc, &rng, &expired);
  ASSERT_FALSE(walks.ok());
  EXPECT_EQ(walks.status().code(), StatusCode::kDeadlineExceeded)
      << walks.status().ToString();
}

TEST(DeadlineCancelTest, FaultInjectedWalkCancelReturnsCancelled) {
  fault::Reset();
  AttributedNetwork net = TinyNet();
  RandomWalkConfig wc;
  wc.walk_length = 5;
  Rng rng(7);
  fault::Arm("walk.generate", /*trigger_hit=*/3);
  auto walks = GenerateRandomWalks(net.graph, wc, &rng);
  fault::Reset();
  ASSERT_FALSE(walks.ok());
  EXPECT_EQ(walks.status().code(), StatusCode::kCancelled)
      << walks.status().ToString();
}

TEST(DeadlineCancelTest, ContextGenerationHonoursTheDeadline) {
  AttributedNetwork net = TinyNet();
  RandomWalkConfig wc;
  wc.walk_length = 10;
  Rng rng(7);
  auto walks = GenerateRandomWalks(net.graph, wc, &rng);
  ASSERT_TRUE(walks.ok());
  ContextOptions opts;
  const RunContext expired = ExpiredContext();
  Rng rng2(7);
  auto contexts = GenerateContexts(walks.value(), net.graph.num_nodes(),
                                   opts, &rng2, &expired);
  ASSERT_FALSE(contexts.ok());
  EXPECT_EQ(contexts.status().code(), StatusCode::kDeadlineExceeded);
}

// --- Training.

TEST(DeadlineCancelTest, PreprocessStopsOnExpiredDeadline) {
  AttributedNetwork net = TinyNet();
  CoaneModel model(net.graph, TinyConfig());
  const RunContext expired = ExpiredContext();
  Status st = model.Preprocess(&expired);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
}

TEST(DeadlineCancelTest, TrainStopsOnGlobalCancelToken) {
  SetGlobalCancel(false);
  AttributedNetwork net = TinyNet();
  CoaneModel model(net.graph, TinyConfig());
  ASSERT_TRUE(model.Preprocess().ok());
  SetGlobalCancel(true);
  const RunContext ctx = RunContext::WithGlobalCancel();
  auto history = model.Train(&ctx);
  SetGlobalCancel(false);
  ASSERT_FALSE(history.ok());
  EXPECT_EQ(history.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(model.epochs_done(), 0);
}

// The four ways a training epoch is stopped between batches.
enum class StopSource {
  kInjectedBatch,    // fault point "train.batch" armed at hit 2
  kCancelFlag,       // a cancel flag raised before the epoch
  kExpiredDeadline,  // a deadline already past
  kLatchedWatchdog,  // a watchdog that has already declared a stall
};

struct StopCase {
  StopSource source;
  const char* name;
  StatusCode code;
};

constexpr StopCase kStopCases[] = {
    {StopSource::kInjectedBatch, "injected train.batch",
     StatusCode::kCancelled},
    {StopSource::kCancelFlag, "cancel flag", StatusCode::kCancelled},
    {StopSource::kExpiredDeadline, "expired deadline",
     StatusCode::kDeadlineExceeded},
    {StopSource::kLatchedWatchdog, "latched watchdog",
     StatusCode::kDeadlineExceeded},
};

// Runs one epoch of `model` under `source`. The injected fault lets one
// batch (16 of the 60 nodes) train first; the others stop it before its
// first batch, after the epoch's shuffle has drawn from the RNG.
Result<EpochStats> TrainEpochStoppedBy(StopSource source, CoaneModel* model) {
  fault::Reset();
  std::atomic<bool> cancel{true};
  std::optional<Watchdog> dog;
  RunContext ctx;
  switch (source) {
    case StopSource::kInjectedBatch:
      fault::Arm("train.batch", /*trigger_hit=*/2);
      break;
    case StopSource::kCancelFlag:
      ctx.SetCancelFlag(&cancel);
      break;
    case StopSource::kExpiredDeadline:
      ctx.SetDeadlineAfter(-1.0);
      break;
    case StopSource::kLatchedWatchdog:
      dog.emplace(/*stall_seconds=*/0.001);
      for (int i = 0; i < 1000 && !dog->stalled(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ctx.SetWatchdog(&*dog);
      break;
  }
  auto stats = model->TrainEpoch(&ctx);
  fault::Reset();
  return stats;
}

TEST(DeadlineCancelTest, MidEpochStopRollsBackToTheEpochBoundary) {
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();

  CoaneModel straight(net.graph, cfg);
  ASSERT_TRUE(straight.Preprocess().ok());
  ASSERT_TRUE(straight.TrainEpoch().ok());
  const DenseMatrix after_one = straight.embeddings();

  for (const StopCase& stop : kStopCases) {
    SCOPED_TRACE(stop.name);
    // The stop lands inside the epoch: the partial epoch must be rolled
    // back entirely...
    CoaneModel stopped(net.graph, cfg);
    ASSERT_TRUE(stopped.Preprocess().ok());
    auto stats = TrainEpochStoppedBy(stop.source, &stopped);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), stop.code) << stats.status().ToString();
    EXPECT_EQ(stopped.epochs_done(), 0);

    // ...so an unrestricted retry reproduces the uninterrupted epoch
    // bit-for-bit (the rollback also restored the RNG stream).
    ASSERT_TRUE(stopped.TrainEpoch().ok());
    EXPECT_TRUE(BitIdentical(stopped.embeddings(), after_one));
  }
}

TEST(DeadlineCancelTest, CancelledTrainingResumesBitIdentically) {
  fault::Reset();
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();  // two epochs

  CoaneModel straight(net.graph, cfg);
  ASSERT_TRUE(straight.Preprocess().ok());
  ASSERT_TRUE(straight.Train().ok());

  const std::string path = "/tmp/coane_cancel_resume.ckpt";
  for (const StopCase& stop : kStopCases) {
    SCOPED_TRACE(stop.name);
    {
      CoaneModel cancelled(net.graph, cfg);
      ASSERT_TRUE(cancelled.Preprocess().ok());
      ASSERT_TRUE(cancelled.TrainEpoch().ok());
      // The stop arrives in epoch 2; the model falls back to the epoch-1
      // state and checkpoints there.
      auto stats = TrainEpochStoppedBy(stop.source, &cancelled);
      ASSERT_FALSE(stats.ok());
      EXPECT_EQ(stats.status().code(), stop.code);
      EXPECT_EQ(cancelled.epochs_done(), 1);
      ASSERT_TRUE(cancelled.SaveCheckpoint(path).ok());
    }

    CoaneModel resumed(net.graph, cfg);
    ASSERT_TRUE(resumed.Preprocess().ok());
    ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
    EXPECT_EQ(resumed.epochs_done(), 1);
    auto history = resumed.Train();
    ASSERT_TRUE(history.ok());
    EXPECT_TRUE(BitIdentical(straight.embeddings(), resumed.embeddings()))
        << "a run stopped mid-epoch must resume bit-identically";
  }
  std::remove(path.c_str());
}

TEST(DeadlineCancelTest, TrainCoaneEmbeddingsPropagatesTheDeadline) {
  AttributedNetwork net = TinyNet();
  const RunContext expired = ExpiredContext();
  auto z = TrainCoaneEmbeddings(net.graph, TinyConfig(), &expired);
  ASSERT_FALSE(z.ok());
  EXPECT_EQ(z.status().code(), StatusCode::kDeadlineExceeded);
}

// --- Evaluation loops.

TEST(DeadlineCancelTest, TsneStopsOnInjectedCancel) {
  fault::Reset();
  const DenseMatrix x = SmoothPoints(20, 4);
  TsneConfig cfg;
  cfg.perplexity = 5.0;
  cfg.iterations = 50;

  fault::Arm("eval.tsne_iter", /*trigger_hit=*/2);
  auto y2 = RunTsne(x, cfg);
  fault::Reset();
  ASSERT_FALSE(y2.ok());
  EXPECT_EQ(y2.status().code(), StatusCode::kCancelled);
}

TEST(DeadlineCancelTest, KMeansStopsOnDeadline) {
  const DenseMatrix points = SmoothPoints(12, 3);
  KMeansConfig cfg;

  const RunContext expired = ExpiredContext();
  auto r2 = RunKMeans(points, 2, cfg, &expired);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineCancelTest, LogisticRegressionStopsOnCancel) {
  const DenseMatrix x = SmoothPoints(8, 3);
  const std::vector<int> y = {0, 1, 0, 1, 0, 1, 0, 1};
  std::atomic<bool> cancel{true};
  RunContext ctx;
  ctx.SetCancelFlag(&cancel);
  LogisticRegression model;
  Status st = model.Fit(x, y, LogisticRegressionConfig(), &ctx);
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
}

TEST(DeadlineCancelTest, LinkPredictionStopsOnCancel) {
  LinkSplit split;
  split.train_pos = {{0, 1}, {1, 2}};
  split.train_neg = {{0, 3}, {2, 3}};
  const DenseMatrix z = SmoothPoints(4, 4);
  std::atomic<bool> cancel{true};
  RunContext ctx;
  ctx.SetCancelFlag(&cancel);
  auto r = EvaluateLinkPrediction(z, split, 42, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(DeadlineCancelTest, EvalWrappersPropagateTheDeadline) {
  const DenseMatrix z = SmoothPoints(20, 4);
  std::vector<int32_t> labels(20);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int32_t>(i % 2);
  }
  const RunContext expired = ExpiredContext();

  auto f1 = EvaluateNodeClassification(z, labels, 2, 0.5, 42, 1, &expired);
  ASSERT_FALSE(f1.ok());
  EXPECT_EQ(f1.status().code(), StatusCode::kDeadlineExceeded);

  auto nmi = EvaluateClusteringNmi(z, labels, 2, 42, &expired);
  ASSERT_FALSE(nmi.ok());
  EXPECT_EQ(nmi.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace coane
