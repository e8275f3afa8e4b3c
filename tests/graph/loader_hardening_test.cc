// Corrupted-input matrix for the hardened loader: every malformed fixture
// is either rejected with a file:line:column diagnostic (strict) or
// quarantined with accurate summary counters (lenient), and the resource
// caps fail fast instead of ballooning memory.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
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

// `s` with every occurrence of `from` replaced by `to`.
std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  for (size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
  return s;
}

// Everything a load produces, as one line: the status, every LoadSummary
// counter and diagnostic, and (on success) the whole Graph — node count,
// weighted edges, attribute entries, observation mask, masked cells and
// labels.
std::string RenderLoad(const Result<Graph>& g, const LoadSummary& s) {
  std::ostringstream out;
  out << (g.ok() ? "OK" : g.status().ToString()) << " | lines "
      << s.lines_parsed << " edges " << s.edges_loaded << " attrs "
      << s.attributes_loaded << " labels " << s.labels_loaded << " dup "
      << s.duplicate_edges << "/" << s.duplicate_attributes << " missing "
      << s.missing_attr_cells << "/" << s.nodes_missing_attrs << "/"
      << s.injected_attr_drops << " quarantined " << s.quarantined_lines
      << " bad " << s.bad_tokens << " loops " << s.self_loops << " range "
      << s.out_of_range_ids << " nonfinite " << s.non_finite_values
      << " nonpos " << s.nonpositive_weights << " dim "
      << s.attr_dim_mismatches;
  for (const std::string& d : s.sample_diagnostics) out << " [" << d << "]";
  if (!g.ok()) return out.str();
  const Graph& graph = g.value();
  out << " | n " << graph.num_nodes() << " d " << graph.num_attributes()
      << " E";
  for (const Edge& e : graph.UndirectedEdges()) {
    out << " " << e.src << "-" << e.dst << ":" << e.weight;
  }
  out << " X";
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    for (const SparseEntry& e : graph.attributes().Row(v)) {
      out << " " << v << "," << e.col << ":" << e.value;
    }
  }
  out << " obs ";
  for (const uint8_t o : graph.attr_observed()) out << int{o};
  out << " masked";
  for (const MissingAttrCell& c : graph.missing_attr_cells()) {
    out << " " << c.node << "," << c.col;
  }
  out << " y";
  for (const int32_t y : graph.labels()) out << " " << y;
  return out.str();
}

// Inputs that are odd but legal, and the diagnostics that must keep their
// exact place: each file loads to the same Graph, counters and messages
// under both policies. Paths render as EDGES / ATTRS / LABELS.
TEST_F(LoaderHardeningTest, OddButLegalInputsLoadTheSameUnderBothPolicies) {
  const struct {
    const char* name;
    std::string edges;
    const char* attrs;   // null: no attribute file
    const char* labels;  // null: no label file
    const char* strict;
    const char* skip;    // null: same as strict
  } cases[] = {
      {"crlf", "0 1\r\n1 2 0.5\r\n", "0 0 1\r\n2 1 0.25\r\n", nullptr,
       "OK | lines 4 edges 2 attrs 2 labels 0 dup 0/0 missing 0/1/0 "
       "quarantined 0 bad 0 loops 0 range 0 nonfinite 0 nonpos 0 dim 0 | "
       "n 3 d 2 E 0-1:1 1-2:0.5 X 0,0:1 2,1:0.25 obs 101 masked y",
       nullptr},
      {"tab, \\v and \\f separators", "0\t1\v2\f\n1 \t 2\n", nullptr,
       nullptr,
       "OK | lines 2 edges 2 attrs 0 labels 0 dup 0/0 missing 0/0/0 "
       "quarantined 0 bad 0 loops 0 range 0 nonfinite 0 nonpos 0 dim 0 | "
       "n 3 d 0 E 0-1:2 1-2:1 X obs  masked y",
       nullptr},
      {"indented comments, whitespace-only lines",
       "  # src dst\n \t \n\t#x 9\n0 1\n\v\f\r\n", nullptr, nullptr,
       "OK | lines 1 edges 1 attrs 0 labels 0 dup 0/0 missing 0/0/0 "
       "quarantined 0 bad 0 loops 0 range 0 nonfinite 0 nonpos 0 dim 0 | "
       "n 2 d 0 E 0-1:1 X obs  masked y",
       nullptr},
      {"no newline after the last line", "0 1\n1 2 3", "1 0 2", "2 1",
       "OK | lines 4 edges 2 attrs 1 labels 1 dup 0/0 missing 0/2/0 "
       "quarantined 0 bad 0 loops 0 range 0 nonfinite 0 nonpos 0 dim 0 | "
       "n 3 d 1 E 0-1:1 1-2:3 X 1,0:2 obs 010 masked y 0 0 1",
       nullptr},
      {"line and column after blank and comment lines",
       "# c\n\n   \n0 1\n  # c\n  3 x\n1 2\n", nullptr, nullptr,
       "InvalidArgument: EDGES:6:5: bad node id 'x' (not an integer) | "
       "lines 2 edges 1 attrs 0 labels 0 dup 0/0 missing 0/0/0 "
       "quarantined 0 bad 1 loops 0 range 0 nonfinite 0 nonpos 0 dim 0",
       "OK | lines 3 edges 2 attrs 0 labels 0 dup 0/0 missing 0/0/0 "
       "quarantined 1 bad 1 loops 0 range 0 nonfinite 0 nonpos 0 dim 0 "
       "[EDGES:6:5: bad node id 'x' (not an integer)] | "
       "n 3 d 0 E 0-1:1 1-2:1 X obs  masked y"},
      {"weights +1 and 0x1p0", "0 1 +1\n1 2 0x1p0\n", nullptr, nullptr,
       "OK | lines 2 edges 2 attrs 0 labels 0 dup 0/0 missing 0/0/0 "
       "quarantined 0 bad 0 loops 0 range 0 nonfinite 0 nonpos 0 dim 0 | "
       "n 3 d 0 E 0-1:1 1-2:1 X obs  masked y",
       nullptr},
      {"weights 1e-310 and 1e400", "0 1\n1 2 1e-310\n2 3  1e400\n", nullptr,
       nullptr,
       "InvalidArgument: EDGES:2:5: non-finite weight '1e-310' | "
       "lines 2 edges 1 attrs 0 labels 0 dup 0/0 missing 0/0/0 "
       "quarantined 0 bad 0 loops 0 range 0 nonfinite 1 nonpos 0 dim 0",
       "OK | lines 3 edges 1 attrs 0 labels 0 dup 0/0 missing 0/0/0 "
       "quarantined 2 bad 0 loops 0 range 0 nonfinite 2 nonpos 0 dim 0 "
       "[EDGES:2:5: non-finite weight '1e-310'] "
       "[EDGES:3:6: non-finite weight '1e400'] | "
       "n 2 d 0 E 0-1:1 X obs  masked y"},
      {"nan and two-field attribute cells are masked", "0 1\n1 2\n",
       "0 0 1.5\n0 1 nan\n1 1\n1 0 -NaN\n2 2 0.5\n0 1 2\n", nullptr,
       "OK | lines 8 edges 2 attrs 3 labels 0 dup 0/1 missing 3/0/0 "
       "quarantined 0 bad 0 loops 0 range 0 nonfinite 0 nonpos 0 dim 0 | "
       "n 3 d 3 E 0-1:1 1-2:1 X 0,0:1.5 0,1:2 2,2:0.5 obs 111 masked 1,0 "
       "1,1 y",
       nullptr},
      {"labels file", "0 1\n", nullptr,
       "# node label\r\n  3 2\n0\t1\n\n3 4",
       "OK | lines 4 edges 1 attrs 0 labels 3 dup 0/0 missing 0/0/0 "
       "quarantined 0 bad 0 loops 0 range 0 nonfinite 0 nonpos 0 dim 0 | "
       "n 4 d 0 E 0-1:1 X obs  masked y 1 0 0 4",
       nullptr},
      {"labels file with a bad line", "0 1\n", nullptr,
       "# node label\n\n0 1\n 1\t-2\n2 1\n",
       "InvalidArgument: LABELS:4:4: bad label '-2' (labels are "
       "non-negative integers) | lines 3 edges 1 attrs 0 labels 1 dup 0/0 "
       "missing 0/0/0 quarantined 0 bad 1 loops 0 range 0 nonfinite 0 "
       "nonpos 0 dim 0",
       "OK | lines 4 edges 1 attrs 0 labels 2 dup 0/0 missing 0/0/0 "
       "quarantined 1 bad 1 loops 0 range 0 nonfinite 0 nonpos 0 dim 0 "
       "[LABELS:4:4: bad label '-2' (labels are non-negative integers)] | "
       "n 3 d 0 E 0-1:1 X obs  masked y 1 0 1"},
  };
  for (const auto& c : cases) {
    WriteFile(edges_, c.edges);
    if (c.attrs != nullptr) WriteFile(attrs_, c.attrs);
    if (c.labels != nullptr) WriteFile(labels_, c.labels);
    for (const BadLinePolicy policy :
         {BadLinePolicy::kStrict, BadLinePolicy::kSkip}) {
      LoadOptions options;
      options.bad_line_policy = policy;
      LoadSummary summary;
      const auto g = LoadAttributedGraph(
          edges_, c.attrs != nullptr ? attrs_ : "",
          c.labels != nullptr ? labels_ : "", options, &summary);
      std::string got = RenderLoad(g, summary);
      got = ReplaceAll(got, edges_, "EDGES");
      got = ReplaceAll(got, attrs_, "ATTRS");
      got = ReplaceAll(got, labels_, "LABELS");
      const char* want = policy == BadLinePolicy::kSkip && c.skip != nullptr
                             ? c.skip
                             : c.strict;
      EXPECT_EQ(got, want)
          << c.name
          << (policy == BadLinePolicy::kSkip ? " (skip)" : " (strict)");
    }
  }
}

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

// A directory is not a graph file: each of the three paths, and the
// label reader on its own, fail with IoError instead of loading nothing.
TEST_F(LoaderHardeningTest, DirectoryPathIsIoError) {
  const std::string dir = "/tmp/coane_harden.dir";
  ::mkdir(dir.c_str(), 0755);
  WriteFile(edges_, "0 1\n");
  const Result<Graph> loads[] = {
      LoadAttributedGraph(dir, "", ""),
      LoadAttributedGraph(edges_, dir, ""),
      LoadAttributedGraph(edges_, "", dir),
  };
  for (const Result<Graph>& g : loads) {
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::kIoError);
    EXPECT_EQ(g.status().message(), "read failure on " + dir);
  }
  auto labels = LoadLabels(dir, 0, LoadOptions());
  ::rmdir(dir.c_str());
  ASSERT_FALSE(labels.ok());
  EXPECT_EQ(labels.status().code(), StatusCode::kIoError);
}

// A token with an embedded NUL is not a number, even where its bytes
// before the NUL are: strict names the field, skip quarantines the line.
// The diagnostic shows the NUL as '?'.
TEST_F(LoaderHardeningTest, EmbeddedNulTokensAreRejected) {
  using namespace std::string_literals;
  const struct {
    std::string edges, attrs, labels, strict;
  } cases[] = {
      {"0 1 1.5\0junk\n1 2\n"s, "", "",
       "EDGES:1:5: bad weight '1.5?junk'"},
      {"0 1\n1 2\n", "0 0 2\0x\n1 0 1\n"s, "",
       "ATTRS:1:5: bad attribute value '2?x'"},
      {"0 1\0 2\n1 2\n"s, "", "",
       "EDGES:1:3: bad node id '1?' (not an integer)"},
      {"0 1\n1 2\n", "", "0 1\n1 2\0\n"s,
       "LABELS:2:3: bad label '2?' (labels are non-negative integers)"},
  };
  for (const auto& c : cases) {
    WriteFile(edges_, c.edges);
    WriteFile(attrs_, c.attrs);
    WriteFile(labels_, c.labels);
    const std::string attrs = c.attrs.empty() ? "" : attrs_;
    const std::string labels = c.labels.empty() ? "" : labels_;
    std::string want = ReplaceAll(c.strict, "EDGES", edges_);
    want = ReplaceAll(want, "ATTRS", attrs_);
    want = ReplaceAll(want, "LABELS", labels_);

    auto strict = LoadAttributedGraph(edges_, attrs, labels, LoadOptions());
    ASSERT_FALSE(strict.ok()) << want;
    EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(strict.status().message(), want);

    LoadOptions lenient;
    lenient.bad_line_policy = BadLinePolicy::kSkip;
    LoadSummary summary;
    auto skipped = LoadAttributedGraph(edges_, attrs, labels, lenient,
                                       &summary);
    ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
    EXPECT_EQ(summary.quarantined_lines, 1) << want;
    EXPECT_EQ(summary.bad_tokens, 1) << want;
    EXPECT_EQ(summary.sample_diagnostics, std::vector<std::string>{want});
  }
}

// A NUL inside a token must not cut the printed diagnostic short: the
// message holds no NUL and still ends with the token's closing quote.
TEST_F(LoaderHardeningTest, NulTokenDiagnosticPrintsWhole) {
  using namespace std::string_literals;
  WriteFile(edges_, "0 1 1.5\0junk\n1 2\n"s);
  auto g = LoadAttributedGraph(edges_, "", "", LoadOptions());
  ASSERT_FALSE(g.ok());
  const std::string& message = g.status().message();
  EXPECT_EQ(message.find('\0'), std::string::npos);
  ASSERT_FALSE(message.empty());
  EXPECT_EQ(message.back(), '\'');
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
