#include "eval/method_zoo.h"

#include <gtest/gtest.h>

#include "datasets/attributed_sbm.h"
#include "la/matrix_oracles.h"

namespace coane {
namespace {

AttributedNetwork TinyNet() {
  AttributedSbmConfig c;
  c.num_nodes = 80;
  c.num_classes = 2;
  c.num_attributes = 60;
  c.circles_per_class = 2;
  c.avg_degree = 6.0;
  c.seed = 41;
  return GenerateAttributedSbm(c).ValueOrDie();
}

TEST(MethodZooTest, AllStandardMethodsTrain) {
  AttributedNetwork net = TinyNet();
  MethodConfig cfg;
  cfg.embedding_dim = 16;
  for (const std::string& method : StandardMethods()) {
    auto z = TrainMethod(method, net.graph, cfg);
    ASSERT_TRUE(z.ok()) << method << ": " << z.status().ToString();
    EXPECT_EQ(z.value().rows(), 80) << method;
    EXPECT_EQ(z.value().cols(), 16) << method;
    EXPECT_GT(FrobeniusNorm(z.value()), 0.0) << method;
  }
}

TEST(MethodZooTest, UnknownMethodFails) {
  AttributedNetwork net = TinyNet();
  auto z = TrainMethod("not-a-method", net.graph, MethodConfig{});
  EXPECT_FALSE(z.ok());
  EXPECT_EQ(z.status().code(), StatusCode::kNotFound);
}

TEST(MethodZooTest, DefaultCoaneConfigRespectsOptions) {
  MethodConfig cfg;
  cfg.embedding_dim = 32;
  cfg.seed = 9;
  cfg.coane_negative_mode = NegativeSamplingMode::kPreSampled;
  CoaneConfig c = DefaultCoaneConfig(cfg);
  EXPECT_EQ(c.embedding_dim, 32);
  EXPECT_EQ(c.seed, 9u);
  EXPECT_EQ(c.negative_mode, NegativeSamplingMode::kPreSampled);
  cfg.fast = false;
  // Full mode uses the paper's settings; fast mode recalibrates for the
  // scaled graphs (larger batches vs extra walks and looser subsampling).
  EXPECT_GT(DefaultCoaneConfig(cfg).batch_size,
            DefaultCoaneConfig(MethodConfig{}).batch_size);
  EXPECT_LT(DefaultCoaneConfig(cfg).subsample_t,
            DefaultCoaneConfig(MethodConfig{}).subsample_t);
}

}  // namespace
}  // namespace coane
