// End-to-end quality gate through the real binaries (ctest tier
// `quality_e2e`, excluded from sanitizer jobs like the other *_e2e
// tiers): drives the coane_quality tool with --cli-bin/--supervisor-bin
// so the harness adds its real-process leg — the substrate exported to
// graph files, trained through the actual coane_cli, and trained again
// under coane_supervisor with SIGKILLs injected at every other epoch
// boundary. The tool exits 0 only when the supervisor-resumed artifact
// is byte-identical to the uninterrupted CLI run AND the CLI run is
// byte-identical to the in-process baseline — closing the loop between
// the in-process matrix and what users actually execute.

#include <gtest/gtest.h>

#include <sys/wait.h>

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

TEST(QualityE2eTest, SupervisorResumedRunMatchesBaselineBytes) {
  const std::string quality_bin = COANE_QUALITY_BIN;
  const std::string cli_bin = COANE_CLI_BIN;
  const std::string supervisor_bin = COANE_SUPERVISOR_BIN;
  if (!PathExists(quality_bin) || !PathExists(cli_bin) ||
      !PathExists(supervisor_bin)) {
    GTEST_SKIP() << "tool binaries not built";
  }

  char tmpl[] = "/tmp/coane_quality_e2e_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string report = dir + "/QUALITY_coane.json";

  // Run the tool exactly as CI does (full fast matrix + real-process
  // leg): this test IS the published gate, not a scaled-down stand-in.
  const int rc = RunShell(quality_bin + " --work-dir=" + dir + "/work" +
                          " --out=" + report + " --cli-bin=" + cli_bin +
                          " --supervisor-bin=" + supervisor_bin +
                          " > " + dir + "/stdout.txt 2>&1");
  const std::string output = ReadAll(dir + "/stdout.txt");
  EXPECT_EQ(rc, 0) << output;

  const std::string json = ReadAll(report);
  ASSERT_FALSE(json.empty()) << output;
  EXPECT_NE(json.find("\"all_pass\": true"), std::string::npos) << json;
  // Both real-process rows made it into the trajectory artifact and
  // passed their bit gates.
  EXPECT_NE(json.find("\"name\": \"e2e-cli\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"e2e-supervisor-resume\""),
            std::string::npos);

  ASSERT_TRUE(RemoveTree(dir).ok());
}

}  // namespace
}  // namespace coane
