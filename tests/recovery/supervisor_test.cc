// Crash-recovery integration tests, run as their own ctest tier
// (coane_recovery_tests): the supervisor must shepherd a fault-injected
// training child — SIGKILLed mid-epoch, or hung until its watchdog fires —
// to final embeddings byte-identical to an uninterrupted run, and must
// quarantine a child that crash-loops without progress. The tier also
// holds the CLI's exit-contract cases (0 success or stop, 1 error, 2
// usage).
//
// These tests exec the real coane_cli / coane_supervisor binaries from the
// build tree (located relative to this test binary) and are skipped when
// the tools have not been built.

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

// Directory of the running test binary, via /proc/self/exe.
std::string SelfDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Runs `command` under /bin/sh and returns its exit code (-1 when the
// shell itself could not run or the child died on a signal).
int RunShell(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string self = SelfDir();
    cli_ = self + "/../tools/coane_cli";
    supervisor_ = self + "/../tools/coane_supervisor";
    if (!PathExists(cli_) || !PathExists(supervisor_)) {
      GTEST_SKIP() << "tool binaries not built next to " << self;
    }
    char tmpl[] = "/tmp/coane_recovery_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;

    // A tiny attributed graph all the tests share.
    ASSERT_EQ(RunShell(cli_ + " generate --dataset=cora --scale=0.05" +
                       " --seed=3 --out=" + dir_ + "/g > /dev/null"),
              0);
  }

  void TearDown() override {
    if (!dir_.empty()) {
      ASSERT_TRUE(RemoveTree(dir_).ok());
    }
  }

  // The shared training hyperparameters: small enough to finish fast,
  // multi-epoch so crashes land mid-run, fixed seed and thread count so
  // runs are byte-comparable.
  std::string TrainArgs(const std::string& out,
                        const std::string& ckpt_dir) const {
    return " train --edges=" + dir_ + "/g.edges --attrs=" + dir_ +
           "/g.attrs --out=" + out + " --dim=8 --epochs=6 --walks=1" +
           " --walk-length=10 --context=3 --negatives=2 --threads=2" +
           " --seed=7 --checkpoint-dir=" + ckpt_dir +
           " --checkpoint-every=1";
  }

  // One uninterrupted run: the golden bytes every recovery path must hit.
  std::string BaselineEmbeddings() {
    const std::string out = dir_ + "/base.emb";
    if (!PathExists(out)) {
      EXPECT_EQ(RunShell(cli_ + TrainArgs(out, dir_ + "/base_ck") +
                         " > /dev/null 2>&1"),
                0);
    }
    return ReadAll(out);
  }

  std::string cli_, supervisor_, dir_;
};

TEST_F(SupervisorTest, SigkilledChildRecoversByteIdentical) {
  const std::string baseline = BaselineEmbeddings();
  ASSERT_FALSE(baseline.empty());

  // cli.crash@3 SIGKILLs the child at its 3rd epoch boundary; each
  // restarted child has a fresh hit counter, so every run completes two
  // more epochs before dying. Three runs finish the six epochs.
  const std::string out = dir_ + "/crash.emb";
  const std::string ckpt = dir_ + "/crash_ck";
  const int rc = RunShell(
      "COANE_FAULT=cli.crash@3 " + supervisor_ + " --checkpoint-dir=" +
      ckpt + " --out=" + out + " --backoff-ms=10 -- " + cli_ +
      TrainArgs(out, ckpt) + " > /dev/null 2>&1");
  EXPECT_EQ(rc, 0);
  ASSERT_TRUE(PathExists(out));
  EXPECT_EQ(ReadAll(out), baseline)
      << "embeddings after SIGKILL+restart must be byte-identical to an "
         "uninterrupted run";
}

TEST_F(SupervisorTest, WatchdogDeclaredHangRecoversByteIdentical) {
  const std::string baseline = BaselineEmbeddings();
  ASSERT_FALSE(baseline.empty());

  // cli.hang@3 makes the child sleep 2 s without tickling its heartbeat;
  // its own --watchdog-sec=0.3 declares the stall, the child checkpoints
  // and exits 0 without the output file, and the supervisor restarts it.
  const std::string out = dir_ + "/hang.emb";
  const std::string ckpt = dir_ + "/hang_ck";
  const int rc = RunShell(
      "COANE_FAULT=cli.hang@3 COANE_HANG_SEC=2 " + supervisor_ +
      " --checkpoint-dir=" + ckpt + " --out=" + out +
      " --backoff-ms=10 --hang-sec=20 -- " + cli_ + TrainArgs(out, ckpt) +
      " --watchdog-sec=0.3 > /dev/null 2>&1");
  EXPECT_EQ(rc, 0);
  ASSERT_TRUE(PathExists(out));
  EXPECT_EQ(ReadAll(out), baseline)
      << "embeddings after a watchdog-declared hang must be "
         "byte-identical to an uninterrupted run";
}

TEST_F(SupervisorTest, CrashLoopWithoutProgressIsQuarantined) {
  // cli.crash@1 kills every child before it can checkpoint: no progress,
  // three consecutive failures at the same (absent) epoch, quarantine.
  const std::string out = dir_ + "/quar.emb";
  const std::string ckpt = dir_ + "/quar_ck";
  const int rc = RunShell(
      "COANE_FAULT=cli.crash@1 " + supervisor_ + " --checkpoint-dir=" +
      ckpt + " --out=" + out +
      " --backoff-ms=10 --max-crashes-at-step=3 -- " + cli_ +
      TrainArgs(out, ckpt) + " > /dev/null 2>&1");
  EXPECT_EQ(rc, 3) << "quarantine must exit 3";
  EXPECT_FALSE(PathExists(out));
  const std::string report = ReadAll(ckpt + "/quarantine.txt");
  EXPECT_NE(report.find("consecutive failures: 3"), std::string::npos)
      << report;
  EXPECT_NE(report.find("signal 9"), std::string::npos) << report;
}

TEST_F(SupervisorTest, CorruptCheckpointIsQuarantinedAndRecomputed) {
  const std::string baseline = BaselineEmbeddings();
  ASSERT_FALSE(baseline.empty());

  // Plant a corrupt checkpoint; --resume=auto (what the supervisor
  // passes) must move it aside and train from scratch instead of failing.
  const std::string out = dir_ + "/corrupt.emb";
  const std::string ckpt = dir_ + "/corrupt_ck";
  ASSERT_EQ(RunShell("mkdir -p " + ckpt), 0);
  {
    std::ofstream bad(ckpt + "/coane.ckpt", std::ios::binary);
    bad << "not a checkpoint";
  }
  const int rc = RunShell(supervisor_ + " --checkpoint-dir=" + ckpt +
                          " --out=" + out + " --backoff-ms=10 -- " + cli_ +
                          TrainArgs(out, ckpt) + " > /dev/null 2>&1");
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(PathExists(ckpt + "/coane.ckpt.corrupt"))
      << "the corrupt checkpoint must be moved aside, not deleted";
  EXPECT_EQ(ReadAll(out), baseline);
}

// `evaluate` scores only labels it read: a malformed line, trailing
// fields, or a node id past the embedding rows fail the run with the
// offending path:line:column (exit 1) instead of being dropped.
TEST_F(SupervisorTest, EvaluateFailsOnLabelsItCannotScore) {
  const std::string baseline = BaselineEmbeddings();
  ASSERT_FALSE(baseline.empty());
  const std::string evaluate =
      cli_ + " evaluate --embeddings=" + dir_ + "/base.emb --threads=2";
  EXPECT_EQ(RunShell(evaluate + " --labels=" + dir_ + "/g.labels" +
                     " > /dev/null 2>&1"),
            0);

  const std::string labels = dir_ + "/bad.labels";
  {
    std::ofstream out(labels);
    out << "0 1\nxyz\n3 2 extra\n999999 4\n";
  }
  const std::string err = dir_ + "/evaluate.err";
  EXPECT_EQ(RunShell(evaluate + " --labels=" + labels + " > /dev/null 2> " +
                     err),
            1);
  EXPECT_NE(ReadAll(err).find("error: InvalidArgument: " + labels + ":2:1:"),
            std::string::npos)
      << ReadAll(err);
}

}  // namespace
}  // namespace coane
