// CoaneConfigFromFlags: the one binder from training flags to CoaneConfig
// shared by coane_cli, coane_distd and coane_streamd. Every flag maps to
// its field, every default is the tools' (--epochs defaults to 10, not
// CoaneConfig's 5), and a bad --missing-attrs is kInvalidArgument.

#include "core/config_flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/checkpoint.h"

namespace coane {
namespace {

Result<CoaneConfig> Bind(std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const flags::FlagSet flags(static_cast<int>(argv.size()), argv.data());
  return CoaneConfigFromFlags(flags);
}

TEST(CoaneConfigFromFlagsTest, DefaultsAreTheToolDefaults) {
  auto bound = Bind({});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const CoaneConfig& c = bound.value();
  EXPECT_EQ(c.embedding_dim, 128);
  EXPECT_EQ(c.max_epochs, 10);
  EXPECT_EQ(c.context_size, 5);
  EXPECT_EQ(c.num_walks, 1);
  EXPECT_EQ(c.walk_length, 80);
  EXPECT_EQ(c.num_negative, 20);
  EXPECT_EQ(c.attribute_gamma, 1e5f);
  EXPECT_EQ(c.learning_rate, 0.001f);
  EXPECT_EQ(c.seed, 42u);
  EXPECT_EQ(c.grad_clip_norm, 0.0f);
  EXPECT_EQ(c.negative_mode, NegativeSamplingMode::kBatch);
  EXPECT_EQ(c.missing_attrs, MissingAttrPolicy::kZero);
  EXPECT_TRUE(c.use_attributes);
  EXPECT_TRUE(c.use_attribute_loss);

  // Apart from --epochs, the defaults are CoaneConfig's own, so the
  // fingerprint equals a default config's with max_epochs = 10.
  CoaneConfig expected;
  expected.max_epochs = 10;
  EXPECT_EQ(ConfigFingerprint(c), ConfigFingerprint(expected));
  EXPECT_EQ(c.subsample_t, expected.subsample_t);
  EXPECT_EQ(c.decoder_hidden, expected.decoder_hidden);
  EXPECT_EQ(c.batch_size, expected.batch_size);
  EXPECT_EQ(c.negative_weight, expected.negative_weight);
}

TEST(CoaneConfigFromFlagsTest, MapsEveryFlag) {
  auto bound = Bind({"--dim=64", "--epochs=3", "--context=7", "--walks=2",
                     "--walk-length=40", "--negatives=5", "--gamma=1000",
                     "--lr=0.01", "--seed=9", "--grad-clip=2.5",
                     "--presample", "--missing-attrs=neighbor"});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const CoaneConfig& c = bound.value();
  EXPECT_EQ(c.embedding_dim, 64);
  EXPECT_EQ(c.max_epochs, 3);
  EXPECT_EQ(c.context_size, 7);
  EXPECT_EQ(c.num_walks, 2);
  EXPECT_EQ(c.walk_length, 40);
  EXPECT_EQ(c.num_negative, 5);
  EXPECT_EQ(c.attribute_gamma, 1000.0f);
  EXPECT_EQ(c.learning_rate, 0.01f);
  EXPECT_EQ(c.seed, 9u);
  EXPECT_EQ(c.grad_clip_norm, 2.5f);
  EXPECT_EQ(c.negative_mode, NegativeSamplingMode::kPreSampled);
  EXPECT_EQ(c.missing_attrs, MissingAttrPolicy::kNeighbor);
  // Whether attributes are used is the caller's call, never a flag here.
  EXPECT_TRUE(c.use_attributes);
}

TEST(CoaneConfigFromFlagsTest, BadMissingAttrsIsInvalidArgument) {
  auto bound = Bind({"--missing-attrs=sometimes"});
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bound.status().message().find("sometimes"), std::string::npos);
}

}  // namespace
}  // namespace coane
