// End-to-end distributed training through the real coane_distd binary:
// a coordinator process fork/exec'ing one worker process per shard
// attempt, exchanging artifacts through the work directory. This is the
// tier where a worker takes a genuine SIGKILL mid-round (via the
// shard-qualified COANE_FAULT_SHARD_<s> environment spec) and the run
// must still finish byte-identical to an undisturbed one.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "common/atomic_file.h"

namespace coane {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

int RunShell(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

class DistE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    distd_ = COANE_DISTD_BIN;
    cli_ = COANE_CLI_BIN;
    if (!PathExists(distd_) || !PathExists(cli_)) {
      GTEST_SKIP() << "tool binaries not built";
    }
    char tmpl[] = "/tmp/coane_dist_e2e_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    ASSERT_EQ(RunShell(cli_ + " generate --dataset=cora --scale=0.05" +
                       " --seed=3 --out=" + dir_ + "/g > /dev/null"),
              0);
  }

  void TearDown() override {
    if (!dir_.empty()) ASSERT_TRUE(RemoveTree(dir_).ok());
  }

  // Shared hyperparameters: small enough for fast worker processes,
  // multi-round so crashes land mid-run, pinned seed/threads for
  // byte-comparability.
  std::string CommonArgs() const {
    return " --edges=" + dir_ + "/g.edges --attrs=" + dir_ + "/g.attrs" +
           " --dim=8 --epochs=4 --walks=1 --walk-length=10 --context=3" +
           " --negatives=2 --threads=2 --seed=7";
  }

  // Runs `coane_distd train`, returns its exit code, and captures the
  // combined stdout/stderr into `log_path`.
  int RunDistd(const std::string& name, const std::string& extra,
               const std::string& env = "") {
    const std::string out = dir_ + "/" + name + ".emb";
    const std::string work = dir_ + "/" + name + ".work";
    const std::string log = dir_ + "/" + name + ".log";
    return RunShell(env + " " + distd_ + " train" + CommonArgs() +
                    " --out=" + out + " --work-dir=" + work +
                    " --round-epochs=2 --io-retries=3 " + extra + " > " +
                    log + " 2>&1");
  }

  std::string Emb(const std::string& name) const {
    return ReadAll(dir_ + "/" + name + ".emb");
  }
  std::string Log(const std::string& name) const {
    return ReadAll(dir_ + "/" + name + ".log");
  }

  std::string distd_, cli_, dir_;
};

TEST_F(DistE2eTest, SingleShardMatchesPlainCliTraining) {
  ASSERT_EQ(RunDistd("one", "--shards=1"), 0) << Log("one");
  const std::string dist_bytes = Emb("one");
  ASSERT_FALSE(dist_bytes.empty());

  const std::string cli_out = dir_ + "/cli.emb";
  ASSERT_EQ(RunShell(cli_ + " train" + CommonArgs() + " --out=" + cli_out +
                     " > /dev/null 2>&1"),
            0);
  // --shards=1 is the degenerate plan: same config, same seed, average
  // of one is the identity, so the bytes must match plain training.
  EXPECT_EQ(dist_bytes, ReadAll(cli_out));
}

TEST_F(DistE2eTest, LoaderFlagsAreEnforced) {
  // The same loader flags as coane_cli: a node cap below the graph's
  // size and an unknown bad-line policy both fail the load.
  EXPECT_EQ(RunDistd("capped", "--shards=2 --max-nodes=10"), 1)
      << Log("capped");
  EXPECT_NE(Log("capped").find("out of range [0, 10)"), std::string::npos)
      << Log("capped");
  EXPECT_EQ(RunDistd("policy", "--shards=2 --on-bad-line=bogus"), 1)
      << Log("policy");
  EXPECT_NE(Log("policy").find("--on-bad-line"), std::string::npos)
      << Log("policy");
}

TEST_F(DistE2eTest, SigkilledWorkerRecoversByteIdentical) {
  ASSERT_EQ(RunDistd("base", "--shards=3"), 0) << Log("base");
  const std::string baseline = Emb("base");
  ASSERT_FALSE(baseline.empty());

  // Every fork/exec'd incarnation of shard 1 SIGKILLs itself at its 2nd
  // epoch-boundary hit — i.e. each relaunch makes one epoch of durable
  // progress and dies. The coordinator must relaunch it through the
  // round; determinism makes the crash path byte-exact.
  const int rc = RunDistd("crash", "--shards=3",
                          "COANE_FAULT_SHARD_1='dist.crash.shard1@2'");
  ASSERT_EQ(rc, 0) << Log("crash");
  EXPECT_EQ(Emb("crash"), baseline);
  const std::string log = Log("crash");
  EXPECT_NE(log.find("STATS"), std::string::npos);
  EXPECT_EQ(log.find("worker_failures 0"), std::string::npos) << log;
}

TEST_F(DistE2eTest, WorkerPlacementDoesNotChangeBytes) {
  ASSERT_EQ(RunDistd("wide", "--shards=4"), 0) << Log("wide");
  ASSERT_EQ(RunDistd("narrow", "--shards=4 --max-workers=1"), 0)
      << Log("narrow");
  const std::string wide = Emb("wide");
  ASSERT_FALSE(wide.empty());
  // 4 concurrent worker processes vs. 1 at a time: same shard set, same
  // merge order, same bytes.
  EXPECT_EQ(Emb("narrow"), wide);
}

TEST_F(DistE2eTest, PermanentlyDeadShardCommitsDegradedWithStats) {
  const int rc = RunDistd(
      "degraded", "--shards=3 --quorum=2 --worker-restarts=1",
      "COANE_FAULT_SHARD_2='dist.abort.shard2@1x*'");
  ASSERT_EQ(rc, 0) << Log("degraded");
  EXPECT_FALSE(Emb("degraded").empty());
  const std::string log = Log("degraded");
  // Both rounds commit at quorum without shard 2, and the STATS ledger
  // says so.
  EXPECT_NE(log.find("degraded_rounds 2"), std::string::npos) << log;
  EXPECT_NE(log.find("shards_missing 2"), std::string::npos) << log;
  EXPECT_NE(log.find("(degraded)"), std::string::npos) << log;
}

}  // namespace
}  // namespace coane
