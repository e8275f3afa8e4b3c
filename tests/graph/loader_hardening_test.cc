// Corrupted-input matrix for the hardened loader: every malformed fixture
// is either rejected with a file:line:column diagnostic (strict) or
// quarantined with accurate summary counters (lenient), and the resource
// caps fail fast instead of ballooning memory.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/run_context.h"
#include "graph/graph_io.h"

namespace coane {
namespace {

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

class LoaderHardeningTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(edges_.c_str());
    std::remove(attrs_.c_str());
    std::remove(labels_.c_str());
  }

  const std::string edges_ = "/tmp/coane_harden.edges";
  const std::string attrs_ = "/tmp/coane_harden.attrs";
  const std::string labels_ = "/tmp/coane_harden.labels";
};

TEST_F(LoaderHardeningTest, StrictRejectsWithFileLineColumnDiagnostic) {
  WriteFile(edges_, "0 1\n2 x\n");
  LoadOptions strict;
  auto g = LoadAttributedGraph(edges_, "", "", strict);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  // The bad token 'x' sits on line 2, column 3.
  EXPECT_NE(g.status().message().find(edges_ + ":2:3:"), std::string::npos)
      << g.status().ToString();
}

TEST_F(LoaderHardeningTest, StrictIdOverflowIsOutOfRange) {
  WriteFile(edges_, "0 99999999999999999999\n");
  LoadOptions strict;
  auto g = LoadAttributedGraph(edges_, "", "", strict);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(g.status().message().find("overflows"), std::string::npos)
      << g.status().ToString();
}

TEST_F(LoaderHardeningTest, StrictRejectsTrailingGarbageAndNonFiniteWeights) {
  const struct {
    const char* contents;
    StatusCode code;
  } cases[] = {
      {"0 1 1.5abc\n", StatusCode::kInvalidArgument},  // trailing garbage
      {"0 1 nan\n", StatusCode::kInvalidArgument},
      {"0 1 inf\n", StatusCode::kInvalidArgument},
      {"0 1 1e999\n", StatusCode::kInvalidArgument},   // overflows to inf
  };
  for (const auto& c : cases) {
    WriteFile(edges_, c.contents);
    LoadOptions strict;
    auto g = LoadAttributedGraph(edges_, "", "", strict);
    ASSERT_FALSE(g.ok()) << "accepted: " << c.contents;
    EXPECT_EQ(g.status().code(), c.code) << c.contents;
  }
}

TEST_F(LoaderHardeningTest, TruncatedLinesAreFlagged) {
  // A file cut off mid-record: the final line lost its second field.
  WriteFile(edges_, "0 1\n1 2\n3\n");
  LoadOptions strict;
  auto g = LoadAttributedGraph(edges_, "", "", strict);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find(":3:"), std::string::npos)
      << g.status().ToString();

  LoadOptions lenient;
  lenient.bad_line_policy = BadLinePolicy::kSkip;
  LoadSummary summary;
  auto g2 = LoadAttributedGraph(edges_, "", "", lenient, &summary);
  ASSERT_TRUE(g2.ok()) << g2.status().ToString();
  EXPECT_EQ(summary.edges_loaded, 2);
  EXPECT_EQ(summary.quarantined_lines, 1);
  EXPECT_EQ(summary.bad_tokens, 1);
}

TEST_F(LoaderHardeningTest, LenientQuarantinesWithAccurateCounts) {
  WriteFile(edges_,
            "# comment\n"
            "0 1\n"                      // good
            "1 2 0.5\n"                  // good, weighted
            "0 1 2.0\n"                  // duplicate of line 2 (kept)
            "2 2\n"                      // self loop
            "3 x\n"                      // bad token
            "-1 4\n"                     // negative id
            "0 99999999999999999999\n"   // id overflow
            "4 5 nan\n"                  // non-finite weight
            "4 5 0\n"                    // non-positive weight
            "4 5 1.5abc\n"               // trailing garbage
            "0\n");                      // truncated line
  LoadOptions lenient;
  lenient.bad_line_policy = BadLinePolicy::kSkip;
  LoadSummary summary;
  auto g = LoadAttributedGraph(edges_, "", "", lenient, &summary);
  ASSERT_TRUE(g.ok()) << g.status().ToString();

  EXPECT_EQ(summary.lines_parsed, 11);
  EXPECT_EQ(summary.edges_loaded, 3);
  EXPECT_EQ(summary.duplicate_edges, 1);
  EXPECT_EQ(summary.quarantined_lines, 8);
  EXPECT_EQ(summary.bad_tokens, 3);   // 'x', '1.5abc', truncated line
  EXPECT_EQ(summary.self_loops, 1);
  EXPECT_EQ(summary.out_of_range_ids, 2);  // negative and overflow
  EXPECT_EQ(summary.non_finite_values, 1);
  EXPECT_EQ(summary.nonpositive_weights, 1);
  EXPECT_EQ(summary.sample_diagnostics.size(), 8u);
  // Every sample carries a file:line:column prefix.
  for (const std::string& diag : summary.sample_diagnostics) {
    EXPECT_EQ(diag.rfind(edges_ + ":", 0), 0u) << diag;
  }
  // Max id among the *accepted* edges is 2 — quarantined lines never
  // contribute to the inferred node count.
  EXPECT_EQ(g.value().num_nodes(), 3);
  EXPECT_NE(summary.ToString().find("quarantined 8 line(s)"),
            std::string::npos)
      << summary.ToString();
}

TEST_F(LoaderHardeningTest, AttributeDimensionMismatch) {
  WriteFile(edges_, "0 1\n");
  WriteFile(attrs_, "0 0 1.0\n0 5 1.0\n");
  LoadOptions strict;
  strict.num_attributes = 3;  // declared dimension: index 5 breaks it
  auto g = LoadAttributedGraph(edges_, attrs_, "", strict);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(g.status().message().find(attrs_ + ":2:3:"), std::string::npos)
      << g.status().ToString();

  LoadOptions lenient = strict;
  lenient.bad_line_policy = BadLinePolicy::kSkip;
  LoadSummary summary;
  auto g2 = LoadAttributedGraph(edges_, attrs_, "", lenient, &summary);
  ASSERT_TRUE(g2.ok()) << g2.status().ToString();
  EXPECT_EQ(summary.attributes_loaded, 1);
  EXPECT_EQ(summary.attr_dim_mismatches, 1);
  EXPECT_EQ(g2.value().num_attributes(), 3);
}

TEST_F(LoaderHardeningTest, NonFiniteAttributeValuesQuarantined) {
  WriteFile(edges_, "0 1\n");
  WriteFile(attrs_, "0 0 inf\n1 1 0.5\n");
  LoadOptions lenient;
  lenient.bad_line_policy = BadLinePolicy::kSkip;
  LoadSummary summary;
  auto g = LoadAttributedGraph(edges_, attrs_, "", lenient, &summary);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(summary.non_finite_values, 1);
  EXPECT_EQ(summary.attributes_loaded, 1);
}

TEST_F(LoaderHardeningTest, BadLabelsQuarantined) {
  WriteFile(edges_, "0 1\n");
  WriteFile(labels_, "0 2\n1 -1\n1 1.5\n");
  LoadOptions lenient;
  lenient.bad_line_policy = BadLinePolicy::kSkip;
  LoadSummary summary;
  auto g = LoadAttributedGraph(edges_, "", labels_, lenient, &summary);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(summary.labels_loaded, 1);
  EXPECT_EQ(summary.quarantined_lines, 2);
  ASSERT_EQ(g.value().labels().size(), 2u);
  EXPECT_EQ(g.value().labels()[0], 2);
  EXPECT_EQ(g.value().labels()[1], 0);  // bad lines never assign
}

// LoadLabels is the label block of LoadAttributedGraph on its own: what
// `coane_cli evaluate` reads its ground truth with. Every line of the
// evaluate repro fails strict with its path:line:column.
TEST_F(LoaderHardeningTest, LoadLabelsStrictNamesEveryBadLine) {
  LoadOptions strict;
  strict.max_nodes = 8;
  const struct {
    const char* contents;
    StatusCode code;
    const char* where;
  } cases[] = {
      {"0 1\nxyz\n", StatusCode::kInvalidArgument, ":2:1:"},
      {"0 1\n3 2 extra\n", StatusCode::kInvalidArgument, ":2:1:"},
      {"0 1\n999999 4\n", StatusCode::kOutOfRange, ":2:1:"},
      {"# node label\n0 1\n2 -1\n", StatusCode::kInvalidArgument, ":3:3:"},
      {"8 0\n", StatusCode::kOutOfRange, ":1:1:"},
  };
  for (const auto& c : cases) {
    WriteFile(labels_, c.contents);
    auto labels = LoadLabels(labels_, 8, strict);
    ASSERT_FALSE(labels.ok()) << c.contents;
    EXPECT_EQ(labels.status().code(), c.code) << c.contents;
    EXPECT_NE(labels.status().message().find(labels_ + c.where),
              std::string::npos)
        << labels.status().ToString();
  }
}

TEST_F(LoaderHardeningTest, LoadLabelsSizesToNodesAndKeepsLastLabel) {
  WriteFile(labels_, "# node label\n2 3\n0 1\n2 4\n");
  LoadSummary summary;
  auto labels = LoadLabels(labels_, 5, LoadOptions(), &summary);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ(labels.value(), (std::vector<int32_t>{1, 0, 4, 0, 0}));
  EXPECT_EQ(summary.labels_loaded, 3);
  EXPECT_EQ(summary.lines_parsed, 3);

  // Without a node count the vector ends at the largest labelled id.
  auto inferred = LoadLabels(labels_, 0, LoadOptions());
  ASSERT_TRUE(inferred.ok()) << inferred.status().ToString();
  EXPECT_EQ(inferred.value(), (std::vector<int32_t>{1, 0, 4}));
}

TEST_F(LoaderHardeningTest, LoadLabelsSkipQuarantinesLikeTheGraphLoader) {
  WriteFile(labels_, "0 1\nxyz\n3 2 extra\n999999 4\n1 -1\n");
  LoadOptions lenient;
  lenient.bad_line_policy = BadLinePolicy::kSkip;
  lenient.max_nodes = 4;
  LoadSummary summary;
  auto labels = LoadLabels(labels_, 4, lenient, &summary);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ(labels.value(), (std::vector<int32_t>{1, 0, 0, 0}));
  EXPECT_EQ(summary.labels_loaded, 1);
  EXPECT_EQ(summary.quarantined_lines, 4);
  EXPECT_EQ(summary.bad_tokens, 3);
  EXPECT_EQ(summary.out_of_range_ids, 1);
}

TEST_F(LoaderHardeningTest, NodeCapMakesBigIdsOutOfRange) {
  WriteFile(edges_, "0 50\n");
  LoadOptions options;
  options.max_nodes = 10;
  auto g = LoadAttributedGraph(edges_, "", "", options);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
}

TEST_F(LoaderHardeningTest, DeclaredSizesOverCapsFailFast) {
  WriteFile(edges_, "0 1\n");
  LoadOptions options;
  options.num_nodes = 100;
  options.max_nodes = 10;
  auto g = LoadAttributedGraph(edges_, "", "", options);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);

  LoadOptions attr_options;
  attr_options.num_attributes = 100;
  attr_options.max_attr_dim = 10;
  auto g2 = LoadAttributedGraph(edges_, "", "", attr_options);
  ASSERT_FALSE(g2.ok());
  EXPECT_EQ(g2.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(LoaderHardeningTest, FileSizeCapFailsFast) {
  WriteFile(edges_, "0 1\n1 2\n2 3\n");
  LoadOptions options;
  options.max_file_bytes = 4;
  auto g = LoadAttributedGraph(edges_, "", "", options);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(g.status().message().find("max_file_bytes"), std::string::npos);
}

TEST_F(LoaderHardeningTest, RunContextStopsALongLoad) {
  std::string contents;
  for (int i = 0; i < 5000; ++i) {
    contents += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  }
  WriteFile(edges_, contents);
  const RunContext expired = RunContext::WithDeadline(-1.0);
  LoadOptions options;
  options.run_context = &expired;
  auto g = LoadAttributedGraph(edges_, "", "", options);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(LoaderHardeningTest, FaultInjectedOpenFailsCleanly) {
  fault::Reset();
  WriteFile(edges_, "0 1\n");
  fault::Arm("graph_io.load", /*trigger_hit=*/1);
  auto g = LoadAttributedGraph(edges_, "", "");
  fault::Reset();
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().message().find("graph_io.load"), std::string::npos);
}

TEST_F(LoaderHardeningTest, CleanFileLoadsWithZeroQuarantine) {
  WriteFile(edges_, "# src dst\n0 1\n1 2 0.5\n");
  WriteFile(attrs_, "0 0 1.0\n2 1 0.25\n");
  WriteFile(labels_, "0 1\n1 0\n2 1\n");
  LoadOptions lenient;
  lenient.bad_line_policy = BadLinePolicy::kSkip;
  LoadSummary summary;
  auto g = LoadAttributedGraph(edges_, attrs_, labels_, lenient, &summary);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(summary.edges_loaded, 2);
  EXPECT_EQ(summary.attributes_loaded, 2);
  EXPECT_EQ(summary.labels_loaded, 3);
  EXPECT_EQ(summary.quarantined_lines, 0);
  EXPECT_EQ(summary.duplicate_edges, 0);
  EXPECT_TRUE(summary.sample_diagnostics.empty());
  EXPECT_EQ(g.value().num_nodes(), 3);
  EXPECT_EQ(g.value().num_attributes(), 2);
}

}  // namespace
}  // namespace coane
