// CoaneConfigFromFlags: the one binder from training flags to CoaneConfig
// shared by coane_cli, coane_distd and coane_streamd. Every flag maps to
// its field, every default is the tools' (--epochs defaults to 10, not
// CoaneConfig's 5), and a bad --missing-attrs is kInvalidArgument.
// ConfigToFlags is its inverse, and LoadFromFlags / MakeRetryPolicy are
// the loader and retry flags every tool shares. RunContextFromFlags,
// ApplyThreadsFlag, ExitWith and UsageExit are the tools' one exit
// contract: 0 success or stop, 1 error, 2 usage.

#include "core/config_flags.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/parallel/global_pool.h"
#include "core/checkpoint.h"

namespace coane {
namespace {

flags::FlagSet MakeFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return flags::FlagSet(static_cast<int>(argv.size()), argv.data());
}

Result<CoaneConfig> Bind(std::vector<std::string> args) {
  return CoaneConfigFromFlags(MakeFlags(std::move(args)));
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

// Every field CoaneConfigFromFlags binds, compared one by one.
void ExpectFlagFieldsEqual(const CoaneConfig& a, const CoaneConfig& b) {
  EXPECT_EQ(a.embedding_dim, b.embedding_dim);
  EXPECT_EQ(a.max_epochs, b.max_epochs);
  EXPECT_EQ(a.context_size, b.context_size);
  EXPECT_EQ(a.num_walks, b.num_walks);
  EXPECT_EQ(a.walk_length, b.walk_length);
  EXPECT_EQ(a.num_negative, b.num_negative);
  EXPECT_EQ(a.attribute_gamma, b.attribute_gamma);
  EXPECT_EQ(a.learning_rate, b.learning_rate);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.grad_clip_norm, b.grad_clip_norm);
  EXPECT_EQ(a.negative_mode, b.negative_mode);
  EXPECT_EQ(a.missing_attrs, b.missing_attrs);
}

TEST(ConfigToFlagsTest, RoundTripsEveryFlagBoundField) {
  std::vector<CoaneConfig> configs(4);
  // [0]: CoaneConfig defaults (max_epochs 5, not the tools' 10).
  configs[1].embedding_dim = 32;
  configs[1].max_epochs = 6;
  configs[1].context_size = 3;
  configs[1].num_walks = 2;
  configs[1].walk_length = 40;
  configs[1].num_negative = 4;
  configs[1].attribute_gamma = 1234.5678f;
  configs[1].learning_rate = 0.01f;
  configs[1].seed = 1ULL << 40;
  configs[1].grad_clip_norm = 0.7f;
  configs[1].negative_mode = NegativeSamplingMode::kPreSampled;
  configs[1].missing_attrs = MissingAttrPolicy::kNeighbor;
  // Floats whose shortest decimal needs all nine significant digits.
  configs[2].attribute_gamma = 3.40282347e38f;
  configs[2].learning_rate = 1.17549435e-38f;
  configs[2].grad_clip_norm = 0.1f;
  configs[2].missing_attrs = MissingAttrPolicy::kMean;
  configs[3].learning_rate = 1e-7f;
  configs[3].grad_clip_norm = 1e-45f;  // smallest subnormal
  configs[3].missing_attrs = MissingAttrPolicy::kReject;
  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    auto bound = Bind(ConfigToFlags(configs[i]));
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    ExpectFlagFieldsEqual(bound.value(), configs[i]);
    EXPECT_EQ(ConfigFingerprint(bound.value()),
              ConfigFingerprint(configs[i]));
  }
}

TEST(ConfigToFlagsTest, RendersFloatsWithNineDigits) {
  CoaneConfig c;
  c.learning_rate = 0.01f;
  const std::vector<std::string> out = ConfigToFlags(c);
  EXPECT_NE(std::find(out.begin(), out.end(), "--lr=0.00999999978"),
            out.end());
  EXPECT_NE(std::find(out.begin(), out.end(), "--gamma=100000"), out.end());
  EXPECT_EQ(std::find(out.begin(), out.end(), "--presample"), out.end());
}

TEST(MakeRetryPolicyTest, ReadsIoRetriesAndSeed) {
  const RetryPolicy defaults = MakeRetryPolicy(MakeFlags({}));
  EXPECT_EQ(defaults.max_attempts, 3);
  EXPECT_EQ(defaults.jitter_seed, 42u);
  const RetryPolicy set = MakeRetryPolicy(MakeFlags({"--io-retries=0",
                                                     "--seed=9"}));
  EXPECT_EQ(set.max_attempts, 1);  // at least one attempt
  EXPECT_EQ(set.jitter_seed, 9u);
}

class LoadFromFlagsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/config_flags_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    edges_ = dir_ + "/g.edges";
    ASSERT_TRUE(WriteFileAtomic(edges_, "0 1\n1 2\n2 3\n").ok());  // 4 nodes
  }
  void TearDown() override { EXPECT_TRUE(RemoveTree(dir_).ok()); }

  std::string dir_;
  std::string edges_;
};

TEST_F(LoadFromFlagsTest, BadOnBadLineValueIsInvalidArgument) {
  auto g = LoadFromFlags(
      MakeFlags({"--edges=" + edges_, "--on-bad-line=bogus"}), nullptr);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(g.status().message().find("bogus"), std::string::npos);
}

TEST_F(LoadFromFlagsTest, MissingEdgesIsInvalidArgument) {
  auto g = LoadFromFlags(MakeFlags({}), nullptr);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LoadFromFlagsTest, StrictByDefaultSkipOnRequest) {
  const std::string bad = dir_ + "/bad.edges";
  ASSERT_TRUE(WriteFileAtomic(bad, "0 1\nnot an edge\n2 3\n").ok());
  auto strict = LoadFromFlags(MakeFlags({"--edges=" + bad}), nullptr);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find(":2:"), std::string::npos);

  auto skip = LoadFromFlags(
      MakeFlags({"--edges=" + bad, "--on-bad-line=skip"}), nullptr);
  ASSERT_TRUE(skip.ok()) << skip.status().ToString();
  EXPECT_EQ(skip.value().num_nodes(), 4);
}

TEST_F(LoadFromFlagsTest, MaxNodesBelowTheFileFails) {
  auto uncapped = LoadFromFlags(MakeFlags({"--edges=" + edges_}), nullptr);
  ASSERT_TRUE(uncapped.ok()) << uncapped.status().ToString();
  EXPECT_EQ(uncapped.value().num_nodes(), 4);

  auto g = LoadFromFlags(MakeFlags({"--edges=" + edges_, "--max-nodes=2"}),
                         nullptr);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(g.status().message().find("out of range [0, 2)"),
            std::string::npos);
}

// A missing path or a directory fails the same way on every attempt, so
// it is reported at once instead of after the retry policy's backoff.
TEST_F(LoadFromFlagsTest, UnreadablePathIsNotRetried) {
  const std::pair<std::string, StatusCode> cases[] = {
      {dir_, StatusCode::kInvalidArgument},
      {dir_ + "/missing.edges", StatusCode::kNotFound},
  };
  for (const auto& [path, code] : cases) {
    auto g = LoadFromFlags(
        MakeFlags({"--edges=" + path, "--io-retries=3"}), nullptr);
    ASSERT_FALSE(g.ok()) << path;
    EXPECT_EQ(g.status().code(), code) << g.status().ToString();
    EXPECT_EQ(g.status().message().find("failed after 3 attempts"),
              std::string::npos)
        << g.status().ToString();
  }
}

TEST(ExitContractTest, ApplyThreadsFlagRejectsBelowOneAndSizesThePool) {
  SetGlobalParallelism(2);
  for (const char* bad : {"--threads=0", "--threads=-1"}) {
    const Status st = ApplyThreadsFlag(MakeFlags({bad}));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(GlobalParallelism(), 2) << bad << " must not touch the pool";
  }
  EXPECT_TRUE(ApplyThreadsFlag(MakeFlags({"--threads=3"})).ok());
  EXPECT_EQ(GlobalParallelism(), 3);
  SetGlobalParallelism(1);
}

TEST(ExitContractTest, RunContextFromFlagsAppliesDeadlineSec) {
  // No flag and --deadline-sec=0 set no deadline: a deadline of 0 s would
  // already have passed by the Check after the sleep.
  const RunContext unset = RunContextFromFlags(MakeFlags({}));
  const RunContext zero =
      RunContextFromFlags(MakeFlags({"--deadline-sec=0"}));
  const RunContext ctx = RunContextFromFlags(MakeFlags({"--deadline-sec=30"}));
  const RunContext expired =
      RunContextFromFlags(MakeFlags({"--deadline-sec=0.000001"}));
  ::usleep(1000);
  EXPECT_TRUE(unset.Check("test").ok());
  EXPECT_TRUE(zero.Check("test").ok());
  EXPECT_TRUE(ctx.Check("test").ok());
  EXPECT_EQ(expired.Check("test").code(), StatusCode::kDeadlineExceeded);
}

TEST(ExitContractTest, ExitWithMapsStopsToZeroAndErrorsToOne) {
  EXPECT_EQ(ExitWith(Status::OK()), 0);

  std::fflush(stdout);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(ExitWith(Status::Cancelled("interrupted")), 0);
  EXPECT_EQ(ExitWith(Status::DeadlineExceeded("late"), "rerun to resume"),
            0);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            "stopped: Cancelled: interrupted\n"
            "stopped: DeadlineExceeded: late — rerun to resume\n");

  // A budget overrun is not a cooperative stop: an error like any other.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(ExitWith(Status::ResourceExhausted("ENOSPC")), 1);
  EXPECT_EQ(UsageExit(Status::InvalidArgument("--x")), 2);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "error: ResourceExhausted: ENOSPC\n"
            "usage error: InvalidArgument: --x\n");
}

}  // namespace
}  // namespace coane
