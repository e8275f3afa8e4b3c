#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "graph/graph_builder.h"
#include "graph/graph_oracles.h"

namespace coane {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_path_ = "/tmp/coane_io_edges.txt";
    attrs_path_ = "/tmp/coane_io_attrs.txt";
    labels_path_ = "/tmp/coane_io_labels.txt";
  }
  void TearDown() override {
    std::remove(edges_path_.c_str());
    std::remove(attrs_path_.c_str());
    std::remove(labels_path_.c_str());
  }
  std::string edges_path_, attrs_path_, labels_path_;
};

TEST_F(GraphIoTest, RoundTripFullGraph) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 2.0f).AddEdge(1, 2);
  b.SetAttributes(
      SparseMatrix::FromTriplets(3, 5, {{0, 1, 1.0f}, {2, 4, 0.5f}}));
  b.SetLabels({0, 1, 0});
  Graph g = std::move(b).Build().ValueOrDie();

  ASSERT_TRUE(
      SaveAttributedGraph(g, edges_path_, attrs_path_, labels_path_).ok());
  auto loaded =
      LoadAttributedGraph(edges_path_, attrs_path_, labels_path_, 3, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph& h = loaded.value();
  EXPECT_EQ(h.num_nodes(), 3);
  EXPECT_EQ(h.num_edges(), 2);
  EXPECT_FLOAT_EQ(EdgeWeight(h, 0, 1), 2.0f);
  EXPECT_EQ(h.num_attributes(), 5);
  EXPECT_FLOAT_EQ(h.attributes().At(2, 4), 0.5f);
  EXPECT_EQ(h.labels(), g.labels());
}

TEST_F(GraphIoTest, LoadEdgeListSkipsComments) {
  std::ofstream out(edges_path_);
  out << "# a comment\n\n0 1\n1 2 3.0\n";
  out.close();
  auto g = LoadAttributedGraph(edges_path_, "", "");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 3);
  EXPECT_EQ(g.value().num_edges(), 2);
  EXPECT_FLOAT_EQ(EdgeWeight(g.value(), 1, 2), 3.0f);
}

TEST_F(GraphIoTest, MissingFileFails) {
  auto g =
      LoadAttributedGraph("/tmp/definitely_not_here_coane.txt", "", "");
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kNotFound);
}

TEST_F(GraphIoTest, MalformedEdgeLineFails) {
  std::ofstream out(edges_path_);
  out << "0 1 2 3\n";
  out.close();
  auto g = LoadAttributedGraph(edges_path_, "", "");
  EXPECT_FALSE(g.ok());
}

TEST_F(GraphIoTest, NonNumericFieldFails) {
  std::ofstream out(edges_path_);
  out << "0 abc\n";
  out.close();
  auto g = LoadAttributedGraph(edges_path_, "", "");
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, NumNodesOverridesInference) {
  std::ofstream out(edges_path_);
  out << "0 1\n";
  out.close();
  auto g = LoadAttributedGraph(edges_path_, "", "", 10);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 10);
}

TEST_F(GraphIoTest, EmbeddingsRoundTrip) {
  DenseMatrix m(3, 2);
  for (int i = 0; i < 6; ++i) m.data()[i] = 0.5f * static_cast<float>(i);
  const std::string path = "/tmp/coane_io_embed.txt";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().SameShape(m));
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(loaded.value().data()[i], m.data()[i]);
  }
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, EmbeddingsCarryCrcFooter) {
  DenseMatrix m(2, 2);
  for (int i = 0; i < 4; ++i) m.data()[i] = static_cast<float>(i);
  const std::string path = "/tmp/coane_io_embed_crc.txt";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  EXPECT_NE(contents.find("# crc32 "), std::string::npos)
      << "SaveEmbeddings must append a CRC footer";
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, CorruptEmbeddingsRejectedWithDataLoss) {
  DenseMatrix m(3, 2);
  for (int i = 0; i < 6; ++i) m.data()[i] = 0.25f * static_cast<float>(i);
  const std::string path = "/tmp/coane_io_embed_corrupt.txt";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());

  // Flip one digit of a value: the footer no longer matches.
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  const size_t pos = contents.find("0.25");
  ASSERT_NE(pos, std::string::npos);
  contents[pos + 2] = '7';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  auto loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  // The diagnostic names the offending file.
  EXPECT_NE(loaded.status().ToString().find(path), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, EmbeddingRowsAfterCrcFooterAreDataLoss) {
  DenseMatrix m(2, 2);
  for (int i = 0; i < 4; ++i) m.data()[i] = static_cast<float>(i);
  const std::string path = "/tmp/coane_io_embed_appended.txt";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  {
    // A row no CRC covers must not load as a third node.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "2 9 9\n";
  }
  auto loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok()) << "loaded " << loaded.value().rows() << " rows";
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find(path + ":"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, LegacyEmbeddingsWithoutFooterStillLoad) {
  const std::string path = "/tmp/coane_io_embed_legacy.txt";
  {
    std::ofstream out(path);
    out << "# hand-written, no CRC footer\n"
        << "0 1.0 2.0\n"
        << "1 3.0 4.0\n";
  }
  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().rows(), 2);
  EXPECT_EQ(loaded.value().cols(), 2);
  EXPECT_FLOAT_EQ(loaded.value().At(1, 1), 4.0f);
  std::remove(path.c_str());
}

// The reader is strict on footer-less files too: a non-finite value, a
// repeated node id (which, with one row per line, also leaves an id
// missing), a ragged row, an unparsable or out-of-range node id and an
// unparsable value are each DataLoss naming the offending path:line.
TEST_F(GraphIoTest, DefectiveEmbeddingRowsAreDataLossAtTheirLine) {
  const std::string path = "/tmp/coane_io_embed_strict.txt";
  struct Case {
    const char* contents;
    int line;
  };
  for (const Case& c : {Case{"0 1 2\n1 3 4\n2 nan 6\n", 3},
                        Case{"0 1 2\n1 inf 4\n2 5 6\n", 2},
                        Case{"0 1 2\n0 3 4\n2 5 6\n", 2},
                        Case{"0 1 2\n1 3\n", 2},
                        Case{"0 1 2\nx 3 4\n2 5 6\n", 2},
                        Case{"0 1 2\n1 3 4\n7 5 6\n", 3},
                        Case{"0 1 2\n1 abc 4\n2 5 6\n", 2}}) {
    {
      std::ofstream out(path);
      out << c.contents;
    }
    auto loaded = LoadEmbeddings(path);
    ASSERT_FALSE(loaded.ok()) << c.contents;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << c.contents;
    EXPECT_NE(loaded.status().message().find(path + ":" +
                                             std::to_string(c.line) + ":"),
              std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, AttributeNodeOutOfRangeFails) {
  {
    std::ofstream out(edges_path_);
    out << "0 1\n";
  }
  {
    std::ofstream out(attrs_path_);
    out << "9 0 1.0\n";
  }
  auto g = LoadAttributedGraph(edges_path_, attrs_path_, "", 2);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
}

// With no declared node count, isolated nodes whose ids exceed every edge
// endpoint still load: the count is max id + 1 over all three files.
TEST_F(GraphIoTest, IsolatedHighIdsOnlyInAttributesExtendNodeCount) {
  {
    std::ofstream out(edges_path_);
    out << "0 1\n1 2\n";
  }
  {
    std::ofstream out(attrs_path_);
    out << "0 0 1.0\n1 1 1.0\n2 0 1.0\n5 1 0.5\n3 0 2.0\n";
  }
  LoadSummary summary;
  auto g = LoadAttributedGraph(edges_path_, attrs_path_, "", LoadOptions(),
                               &summary);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Graph& h = g.value();
  EXPECT_EQ(h.num_nodes(), 6);
  EXPECT_EQ(h.num_edges(), 2);
  EXPECT_EQ(h.Degree(5), 0);
  EXPECT_FLOAT_EQ(h.attributes().At(5, 1), 0.5f);
  EXPECT_FLOAT_EQ(h.attributes().At(3, 0), 2.0f);
  // Node 4 is named by no file: an unobserved attribute row.
  EXPECT_EQ(summary.nodes_missing_attrs, 1);
  ASSERT_EQ(h.attr_observed().size(), 6u);
  EXPECT_EQ(h.attr_observed()[4], 0);
  EXPECT_EQ(h.attr_observed()[5], 1);

  // A label line can extend the count the same way.
  {
    std::ofstream out(labels_path_);
    out << "0 1\n7 2\n";
  }
  auto with_labels =
      LoadAttributedGraph(edges_path_, attrs_path_, labels_path_);
  ASSERT_TRUE(with_labels.ok()) << with_labels.status().ToString();
  EXPECT_EQ(with_labels.value().num_nodes(), 8);
  ASSERT_EQ(with_labels.value().labels().size(), 8u);
  EXPECT_EQ(with_labels.value().labels()[7], 2);
}

}  // namespace
}  // namespace coane
