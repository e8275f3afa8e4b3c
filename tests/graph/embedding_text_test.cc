// The embeddings and graph text writers format with std::to_chars and the
// embeddings reader parses with std::from_chars. These tests pin both to
// the stream-and-strtod code they replaced, which stays here as the
// oracle: the same bytes on disk, the same floats back, the same errors.

#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/flags.h"
#include "common/record_file.h"
#include "common/string_utils.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"

namespace coane {
namespace {

// ---- Oracle: the ostringstream writers. ----

std::string OstreamEmbeddings(const DenseMatrix& embeddings) {
  std::ostringstream out;
  out << "# node embedding[" << embeddings.cols() << "]\n";
  for (int64_t i = 0; i < embeddings.rows(); ++i) {
    out << i;
    for (int64_t j = 0; j < embeddings.cols(); ++j) {
      out << " " << embeddings.At(i, j);
    }
    out << "\n";
  }
  std::string contents = out.str();
  AppendCrcFooter(&contents);
  return contents;
}

std::string OstreamEdges(const Graph& graph) {
  std::ostringstream out;
  out << "# src dst weight\n";
  for (const Edge& e : graph.UndirectedEdges()) {
    out << e.src << " " << e.dst << " " << e.weight << "\n";
  }
  return out.str();
}

std::string OstreamAttributes(const Graph& graph) {
  std::ostringstream out;
  out << "# node attr_index value\n";
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    for (const SparseEntry& e : graph.attributes().Row(v)) {
      out << v << " " << e.col << " " << e.value << "\n";
    }
  }
  return out.str();
}

std::string OstreamLabels(const Graph& graph) {
  std::ostringstream out;
  out << "# node label\n";
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    out << v << " " << graph.labels()[static_cast<size_t>(v)] << "\n";
  }
  return out.str();
}

// ---- Oracle: the per-token strtod reader. ----

std::string OracleShown(const std::string& token) {
  std::string shown = token.substr(0, 24);
  for (char& c : shown) {
    if (!std::isprint(static_cast<unsigned char>(c))) c = '?';
  }
  return shown.size() < token.size() ? shown + "..." : shown;
}

bool OracleParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

Result<DenseMatrix> StrtodLoadEmbeddings(const std::string& path) {
  auto raw = ReadFileToString(path);
  if (!raw.ok()) return raw.status();
  std::vector<RecordLine> lines;
  COANE_RETURN_IF_ERROR(
      ForEachRecordLine(path, raw.value(), [&](const RecordLine& line) {
        const std::string trimmed = Trim(line.text);
        if (!trimmed.empty() && trimmed[0] != '#') lines.push_back(line);
      }));
  if (lines.empty()) {
    return Status::InvalidArgument("empty embedding file " + path);
  }
  const int64_t dim =
      static_cast<int64_t>(SplitWhitespace(lines[0].text).size()) - 1;
  if (dim <= 0) {
    return RecordLineError(path, lines[0], "embedding rows need >= 2 fields");
  }
  DenseMatrix m(static_cast<int64_t>(lines.size()), dim);
  std::vector<uint8_t> seen(lines.size(), 0);
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::vector<std::string> row = SplitWhitespace(lines[i].text);
    if (static_cast<int64_t>(row.size()) != dim + 1) {
      return RecordLineError(path, lines[i],
                             "ragged row: " + std::to_string(row.size()) +
                                 " fields, expected " +
                                 std::to_string(dim + 1));
    }
    int64_t r = 0;
    if (!flags::ParseWhole(row[0], &r) || r < 0 || r >= m.rows()) {
      return RecordLineError(path, lines[i],
                             "node id '" + OracleShown(row[0]) +
                                 "' is not in [0, " +
                                 std::to_string(m.rows()) + ")");
    }
    if (seen[static_cast<size_t>(r)] != 0) {
      return RecordLineError(path, lines[i],
                             "node id " + row[0] + " appears twice");
    }
    seen[static_cast<size_t>(r)] = 1;
    for (int64_t j = 0; j < dim; ++j) {
      const std::string& token = row[static_cast<size_t>(j) + 1];
      double v = 0.0;
      if (!OracleParseDouble(token, &v)) {
        return RecordLineError(path, lines[i],
                               "value '" + OracleShown(token) +
                                   "' is not a number");
      }
      const float f = static_cast<float>(v);
      if (!std::isfinite(f)) {
        return RecordLineError(path, lines[i],
                               "value '" + OracleShown(token) +
                                   "' is not a finite float");
      }
      m.At(r, j) = f;
    }
  }
  return m;
}

// ---- Helpers. ----

class EmbeddingTextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/coane_embedding_text_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { EXPECT_TRUE(RemoveTree(dir_).ok()); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  static void Write(const std::string& path, const std::string& contents) {
    ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
  }

  static std::string Read(const std::string& path) {
    return ReadFileToString(path).ValueOrDie();
  }

  // Both readers on one file: the same status, or the same matrix bits.
  static void ExpectSameLoad(const std::string& path,
                             const std::string& what) {
    auto got = LoadEmbeddings(path);
    auto want = StrtodLoadEmbeddings(path);
    ASSERT_EQ(got.ok(), want.ok())
        << what << ": got " << got.status().ToString() << ", want "
        << want.status().ToString();
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code()) << what;
      EXPECT_EQ(got.status().message(), want.status().message()) << what;
      return;
    }
    ASSERT_TRUE(got.value().SameShape(want.value())) << what;
    EXPECT_EQ(std::memcmp(got.value().data(), want.value().data(),
                          sizeof(float) * static_cast<size_t>(
                                              want.value().size())),
              0)
        << what;
  }

  std::string dir_;
};

// Values where "%.6g" is easy to get wrong: signed zeros, subnormals,
// the float range's ends, ties at the 6th significant digit and the
// switches between fixed and exponent form.
std::vector<float> EdgeValues() {
  return {0.0f,
          -0.0f,
          FLT_TRUE_MIN,
          -FLT_TRUE_MIN,
          2.5e-44f,
          1.0e-40f,
          FLT_MIN,
          std::nextafter(FLT_MIN, 0.0f),
          FLT_MAX,
          -FLT_MAX,
          0.1234565f,
          0.1234575f,
          999999.5f,
          999999.4f,
          -999999.5f,
          1e-5f,
          1e-4f,
          9.999995e-5f,
          0.0001f,
          999999.0f,
          1e6f,
          999999.9f,
          123456.5f,
          1.0f / 3.0f,
          16777216.0f,
          16777217.0f,
          0.5f,
          -2.75f,
          100.0f,
          1e10f,
          3.4e38f};
}

TEST_F(EmbeddingTextTest, WriterMatchesOstreamOnEdgeValues) {
  const std::vector<float> values = EdgeValues();
  DenseMatrix m(static_cast<int64_t>(values.size()), 3);
  for (size_t i = 0; i < values.size(); ++i) {
    const int64_t r = static_cast<int64_t>(i);
    m.At(r, 0) = values[i];
    m.At(r, 1) = -values[i];
    m.At(r, 2) = values[values.size() - 1 - i];
  }
  const std::string path = Path("edge.emb");
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  EXPECT_EQ(Read(path), OstreamEmbeddings(m));
  ExpectSameLoad(path, "edge values");

  // No columns: each row is its id alone.
  const DenseMatrix ids_only(3, 0);
  ASSERT_TRUE(SaveEmbeddings(ids_only, path).ok());
  EXPECT_EQ(Read(path), OstreamEmbeddings(ids_only));
}

TEST_F(EmbeddingTextTest, WriterMatchesOstreamOnRandomFloatBits) {
  std::mt19937_64 gen(23);
  DenseMatrix m(500, 64);
  for (int64_t i = 0; i < m.size(); ++i) {
    float f;
    do {
      const uint32_t bits = static_cast<uint32_t>(gen());
      std::memcpy(&f, &bits, sizeof(f));
    } while (!std::isfinite(f));
    m.data()[i] = f;
  }
  const std::string path = Path("random.emb");
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  EXPECT_EQ(Read(path), OstreamEmbeddings(m));
  ExpectSameLoad(path, "random bits");
}

TEST_F(EmbeddingTextTest, GraphWriterMatchesOstream) {
  GraphBuilder b(5);
  b.AddEdge(0, 1, 0.1234565f)
      .AddEdge(1, 2, 1e-5f)
      .AddEdge(2, 3, 999999.5f)
      .AddEdge(3, 4, 2.0f / 3.0f)
      .AddEdge(0, 4, 1e6f);
  b.SetAttributes(SparseMatrix::FromTriplets(
      5, 7,
      {{0, 1, 0.1f},
       {0, 6, 1e-4f},
       {1, 2, -3.25f},
       {2, 0, 123456.5f},
       {3, 3, FLT_TRUE_MIN},
       {4, 5, 7.0f / 9.0f}}));
  b.SetLabels({0, 3, 1, 2, 11});
  Graph g = std::move(b).Build().ValueOrDie();
  const std::string edges = Path("g.edges");
  const std::string attrs = Path("g.attrs");
  const std::string labels = Path("g.labels");
  ASSERT_TRUE(SaveAttributedGraph(g, edges, attrs, labels).ok());
  EXPECT_EQ(Read(edges), OstreamEdges(g));
  EXPECT_EQ(Read(attrs), OstreamAttributes(g));
  EXPECT_EQ(Read(labels), OstreamLabels(g));
}

// Tokens where from_chars and strtod part ways (a leading '+', a hex
// float, an underflow to zero, an overflow) or that each reject, next to
// ordinary ones: every token loads to the same float, or fails with the
// same code and message, through both readers.
TEST_F(EmbeddingTextTest, ReaderMatchesStrtodOnEveryToken) {
  const std::string path = Path("token.emb");
  for (const char* token :
       {"+1", "0x1p0", "1e-400", "-1e-400", "1e-310", "1e400", "3.5e38",
        "inf", "-INF", "nan", ".5", "1.", "1e", "-0", "5e-324", "0.1234565",
        "1e-45", "7e-46", "-", "+", ".", "e5", "1.5.2", "infinity", "nan(1)",
        "0x", "1e+5", "--1", "1,5", "0123", "0x1P-150",
        "12345678901234567890123456789"}) {
    Write(path, "0 " + std::string(token) + " 2\n");
    ExpectSameLoad(path, token);
  }
}

// Defective and unusual files (CRLF, \v and \f separators, indented
// comments, binary bytes) give the oracle's matrix, or its code and message.
TEST_F(EmbeddingTextTest, ReaderMatchesStrtodOnDefectiveRows) {
  const std::string path = Path("rows.emb");
  for (const char* contents :
       {"0 1 2\n1 3 4\n2 nan 6\n", "0 1 2\n0 3 4\n", "0 1 2\n1 3\n",
        "0 1 2\nx 3 4\n", "0 1 2\n1 3 4\n7 5 6\n", "0 1 2\n1 abc 4\n",
        "0\n", "# only a comment\n\n   \n", "  # indented comment\n0 1\n",
        "0 1\r\n1 2\r\n", "0\t1 \v2\f\n", "-0 1\n", "+0 1\n",
        "99999999999999999999 1\n", "0 \x01\x02\x03 1\n",
        "0 123456789012345678901234567890x 1\n"}) {
    Write(path, contents);
    ExpectSameLoad(path, contents);
  }
  // An embedded NUL: the oracle's strtod stops at it and takes 1.5; the
  // reader holds the whole token to be the number and rejects it.
  Write(path, std::string("0 1.5\0junk 2\n", 13));
  auto nul = LoadEmbeddings(path);
  ASSERT_FALSE(nul.ok());
  EXPECT_EQ(nul.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(nul.status().message(),
            path + ":1: value '1.5?junk' is not a number");
}

}  // namespace
}  // namespace coane
