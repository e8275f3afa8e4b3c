#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/attributed_sbm.h"
#include "eval/clustering_task.h"
#include "eval/link_prediction.h"
#include "eval/node_classification.h"
#include "graph/edge_split.h"

namespace coane {
namespace {

// Embeddings equal to a noisy one-hot of the label — an "oracle" embedding
// for which every task should score highly.
DenseMatrix OracleEmbeddings(const std::vector<int32_t>& labels,
                             int num_classes, double noise, Rng* rng) {
  DenseMatrix z(static_cast<int64_t>(labels.size()), num_classes);
  for (size_t i = 0; i < labels.size(); ++i) {
    for (int c = 0; c < num_classes; ++c) {
      z.At(static_cast<int64_t>(i), c) =
          (labels[i] == c ? 1.0f : 0.0f) +
          static_cast<float>(rng->Normal(0, noise));
    }
  }
  return z;
}

TEST(NodeClassificationTest, OracleScoresHigh) {
  Rng rng(1);
  std::vector<int32_t> labels;
  for (int i = 0; i < 200; ++i) labels.push_back(i % 4);
  DenseMatrix z = OracleEmbeddings(labels, 4, 0.1, &rng);
  auto result = EvaluateNodeClassification(z, labels, 4, 0.5, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().macro_f1, 0.95);
  EXPECT_GT(result.value().micro_f1, 0.95);
}

TEST(NodeClassificationTest, RandomEmbeddingsScoreLow) {
  Rng rng(2);
  std::vector<int32_t> labels;
  for (int i = 0; i < 200; ++i) labels.push_back(i % 4);
  DenseMatrix z(200, 8);
  z.GaussianInit(&rng, 0.0f, 1.0f);
  auto result = EvaluateNodeClassification(z, labels, 4, 0.5, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().micro_f1, 0.45);
}

TEST(NodeClassificationTest, Validation) {
  DenseMatrix z(10, 2, 0.0f);
  std::vector<int32_t> labels(10, 0);
  EXPECT_FALSE(EvaluateNodeClassification(z, labels, 2, 0.0, 1).ok());
  EXPECT_FALSE(EvaluateNodeClassification(z, labels, 2, 1.0, 1).ok());
  EXPECT_FALSE(
      EvaluateNodeClassification(z, {0, 1}, 2, 0.5, 1).ok());
}

TEST(ClusteringTaskTest, OracleScoresNearOne) {
  Rng rng(3);
  std::vector<int32_t> labels;
  for (int i = 0; i < 150; ++i) labels.push_back(i % 3);
  DenseMatrix z = OracleEmbeddings(labels, 3, 0.05, &rng);
  auto nmi = EvaluateClusteringNmi(z, labels, 3);
  ASSERT_TRUE(nmi.ok());
  EXPECT_GT(nmi.value(), 0.9);
}

TEST(ClusteringTaskTest, RandomScoresNearZero) {
  Rng rng(4);
  std::vector<int32_t> labels;
  for (int i = 0; i < 150; ++i) labels.push_back(i % 3);
  DenseMatrix z(150, 8);
  z.GaussianInit(&rng, 0.0f, 1.0f);
  auto nmi = EvaluateClusteringNmi(z, labels, 3);
  ASSERT_TRUE(nmi.ok());
  EXPECT_LT(nmi.value(), 0.12);
}

TEST(HadamardFeaturesTest, ElementwiseProduct) {
  DenseMatrix z(2, 3);
  for (int i = 0; i < 6; ++i) z.data()[i] = static_cast<float>(i + 1);
  auto features = HadamardFeatures(z, {{0, 1}});
  ASSERT_EQ(features.rows(), 1);
  EXPECT_FLOAT_EQ(features.At(0, 0), 1.0f * 4.0f);
  EXPECT_FLOAT_EQ(features.At(0, 1), 2.0f * 5.0f);
  EXPECT_FLOAT_EQ(features.At(0, 2), 3.0f * 6.0f);
}

TEST(LinkPredictionTest, OracleEmbeddingsGiveHighAuc) {
  // Build a two-block graph where same-block nodes connect; embeddings are
  // (noisy) block indicators, so Hadamard features separate pos/neg well.
  AttributedSbmConfig sc;
  sc.num_nodes = 150;
  sc.num_classes = 2;
  sc.num_attributes = 60;
  sc.circles_per_class = 2;
  sc.avg_degree = 8.0;
  sc.intra_circle_fraction = 0.6;
  sc.intra_class_fraction = 0.35;
  sc.seed = 5;
  auto net = GenerateAttributedSbm(sc).ValueOrDie();
  Rng rng(6);
  DenseMatrix z = OracleEmbeddings(net.graph.labels(), 2, 0.05, &rng);

  Rng split_rng(7);
  auto split = SplitEdges(net.graph, EdgeSplitOptions{}, &split_rng);
  ASSERT_TRUE(split.ok());
  auto result = EvaluateLinkPrediction(z, split.value());
  ASSERT_TRUE(result.ok());
  // Most edges are intra-class; indicator embeddings should score well
  // above chance.
  EXPECT_GT(result.value().test_auc, 0.7);
  EXPECT_GT(result.value().train_auc, 0.7);
}

TEST(LinkPredictionTest, EmptySplitFails) {
  DenseMatrix z(10, 4, 0.0f);
  LinkSplit split;
  EXPECT_FALSE(EvaluateLinkPrediction(z, split).ok());
}

}  // namespace
}  // namespace coane
