// EmbeddingStore: the in-memory table of the serving read path. Covers
// the text-embeddings -> store round trip (through the trainer's
// CRC-footered format) with bit-exact rows and norms, rejection of a
// corrupt artifact before a snapshot is built, and byte-identical query
// results across thread counts.

#include "serve/embedding_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/parallel/global_pool.h"
#include "common/rng.h"
#include "graph/graph_io.h"
#include "serve/brute_force_index.h"
#include "serve/snapshot.h"

namespace coane {
namespace serve {
namespace {

class EmbeddingStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("coane_store_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    SetGlobalParallelism(1);
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  DenseMatrix MakeEmbeddings(int64_t rows, int64_t cols, uint64_t seed) {
    DenseMatrix m(rows, cols);
    Rng rng(seed);
    m.GaussianInit(&rng, 0.0f, 1.0f);
    return m;
  }

  std::filesystem::path dir_;
};

TEST_F(EmbeddingStoreTest, RoundTripsThroughTextEmbeddings) {
  const DenseMatrix original = MakeEmbeddings(37, 9, 5);
  const std::string text = Path("a.emb");
  ASSERT_TRUE(SaveEmbeddings(original, text).ok());

  // The text format prints floats with default precision, so compare
  // against what a reader of the text file sees — the store must match
  // the *published artifact* bit-for-bit, not the in-memory matrix.
  const DenseMatrix reloaded = LoadEmbeddings(text).ValueOrDie();
  const EmbeddingStore store(LoadEmbeddings(text).ValueOrDie());
  EXPECT_EQ(store.count(), 37);
  EXPECT_EQ(store.dim(), 9);
  const size_t row_bytes = sizeof(float) * static_cast<size_t>(store.dim());
  for (int64_t i = 0; i < reloaded.rows(); ++i) {
    EXPECT_EQ(std::memcmp(store.Vector(i), reloaded.Row(i), row_bytes), 0)
        << "row " << i;
    // The norm table holds the double sum of squares, rounded once.
    double sq = 0.0;
    for (int64_t j = 0; j < reloaded.cols(); ++j) {
      sq += double(reloaded.At(i, j)) * reloaded.At(i, j);
    }
    EXPECT_EQ(store.Norm(i), static_cast<float>(std::sqrt(sq)))
        << "row " << i;
  }
}

TEST_F(EmbeddingStoreTest, KeepsTheGivenMatrixBitForBit) {
  const DenseMatrix original = MakeEmbeddings(12, 4, 9);
  const EmbeddingStore store(original);
  ASSERT_TRUE(store.matrix().SameShape(original));
  for (int64_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(store.matrix().data()[i], original.data()[i]);
  }
}

TEST_F(EmbeddingStoreTest, CorruptTextFooterIsRejectedBeforeBuilding) {
  const std::string text = Path("corrupt.emb");
  ASSERT_TRUE(SaveEmbeddings(MakeEmbeddings(8, 3, 1), text).ok());
  // Flip a digit inside a data line; the trainer's CRC footer catches it.
  std::string contents;
  {
    std::ifstream in(text);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  const size_t pos = contents.find("0.");
  ASSERT_NE(pos, std::string::npos);
  contents[pos + 2] = contents[pos + 2] == '1' ? '2' : '1';
  {
    std::ofstream out(text);
    out << contents;
  }
  auto snapshot = BuildSnapshot(text, SnapshotOptions(), /*sequence=*/1);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kDataLoss)
      << snapshot.status().ToString();
}

TEST_F(EmbeddingStoreTest, QueriesAreByteIdenticalAcrossThreadCounts) {
  auto store =
      std::make_shared<const EmbeddingStore>(MakeEmbeddings(500, 24, 10));
  const BruteForceIndex index(store, Metric::kCosine);

  // Reference at one thread; 2 and 8 must match byte for byte.
  std::vector<std::vector<Neighbor>> per_thread_results;
  for (const int threads : {1, 2, 8}) {
    SetGlobalParallelism(threads);
    std::vector<Neighbor> neighbors;
    ASSERT_TRUE(index.Search(store->Vector(3), 10, &neighbors).ok());
    ASSERT_EQ(neighbors.size(), 10u);
    per_thread_results.push_back(std::move(neighbors));
  }
  for (size_t t = 1; t < per_thread_results.size(); ++t) {
    for (size_t i = 0; i < per_thread_results[0].size(); ++i) {
      EXPECT_EQ(per_thread_results[0][i].id, per_thread_results[t][i].id);
      // Bit-identical scores, not approximately equal.
      EXPECT_EQ(per_thread_results[0][i].score,
                per_thread_results[t][i].score);
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace coane
