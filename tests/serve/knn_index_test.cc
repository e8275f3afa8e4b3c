// KnnIndex implementations: exact brute force (the recall-1.0 reference)
// and the IVF coarse-quantized index, on both metrics, plus the
// deterministic top-k machinery they share.

#include "serve/knn_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "common/parallel/global_pool.h"
#include "common/rng.h"
#include "serve/brute_force_index.h"
#include "serve/embedding_store.h"
#include "serve/ivf_index.h"

namespace coane {
namespace serve {
namespace {

// Embeddings with planted cluster structure: `clusters` Gaussian blobs,
// the shape IVF exploits and CoANE outputs exhibit.
DenseMatrix ClusteredEmbeddings(int64_t n, int64_t dim, int clusters,
                                uint64_t seed) {
  DenseMatrix m(n, dim);
  Rng rng(seed);
  DenseMatrix centers(clusters, dim);
  centers.GaussianInit(&rng, 0.0f, 3.0f);
  for (int64_t i = 0; i < n; ++i) {
    const int c = static_cast<int>(i % clusters);
    for (int64_t j = 0; j < dim; ++j) {
      m.At(i, j) =
          centers.At(c, j) + static_cast<float>(rng.Normal(0.0, 0.5));
    }
  }
  return m;
}

class KnnIndexTest : public ::testing::Test {
 protected:
  void TearDown() override { SetGlobalParallelism(1); }

  std::shared_ptr<const EmbeddingStore> MakeStore(const DenseMatrix& m) {
    return std::make_shared<const EmbeddingStore>(m);
  }
};

TEST(TopKAccumulatorTest, KeepsBestKWithDeterministicTieBreak) {
  TopKAccumulator top(3);
  top.Offer(5, 1.0f);
  top.Offer(9, 2.0f);
  top.Offer(2, 1.0f);  // ties with id 5: lower id ranks first
  top.Offer(7, 3.0f);
  top.Offer(8, 0.5f);  // worse than everything retained
  const std::vector<Neighbor> result = top.SortedTake();
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 7);
  EXPECT_EQ(result[1].id, 9);
  EXPECT_EQ(result[2].id, 2);  // the id-2 tie wins over id 5
}

TEST(TopKAccumulatorTest, HandlesFewerCandidatesThanK) {
  TopKAccumulator top(10);
  top.Offer(1, 0.5f);
  top.Offer(0, 0.5f);
  const auto result = top.SortedTake();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 0);
  EXPECT_EQ(result[1].id, 1);
}

TEST_F(KnnIndexTest, BruteForceMatchesNaiveScanOnBothMetrics) {
  const DenseMatrix m = ClusteredEmbeddings(200, 16, 5, 11);
  auto store = MakeStore(m);
  for (const Metric metric : {Metric::kDot, Metric::kCosine}) {
    const BruteForceIndex index(store, metric);
    std::vector<Neighbor> got;
    SearchStats stats;
    ASSERT_TRUE(index.Search(m.Row(7), 5, &got, &stats).ok());
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(stats.vectors_scanned, 200);

    // Naive reference.
    std::vector<Neighbor> all;
    for (int64_t i = 0; i < m.rows(); ++i) {
      all.push_back({i, MetricScore(metric, m.Row(7), store->Norm(7),
                                    m.Row(i), store->Norm(i), m.cols())});
    }
    SelectTopK(&all, 5);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(got[i].id, all[i].id) << MetricName(metric);
      EXPECT_EQ(got[i].score, all[i].score) << MetricName(metric);
    }
  }
}

// The exact index scores a dimension-major block copy of the store, four
// rows per vector step. Every score must still equal, to the bit, the
// per-row MetricScore over the row-major mapping, for every dim (odd dims
// put a tail term into the even sum) and for row counts that leave a
// partly padded tail block, at every thread count. Row 0 is duplicated
// into the last row (a tie across blocks, broken by id) and row 1 is
// zero (the cosine zero-norm rule).
TEST_F(KnnIndexTest, BlockScanMatchesPerRowOracleBitForBit) {
  const int64_t m = 13;
  for (const int threads : {1, 2, 8}) {
    SetGlobalParallelism(threads);
    for (int64_t dim = 1; dim <= 130; ++dim) {
      for (const int64_t n : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{5},
                              4 * m - 1, 4 * m + 1}) {
        DenseMatrix rows(n, dim);
        Rng rng(static_cast<uint64_t>(dim * 1000 + n));
        rows.GaussianInit(&rng, 0.0f, 1.0f);
        if (n > 2) {
          std::memcpy(rows.Row(n - 1), rows.Row(0), sizeof(float) * dim);
          std::fill(rows.Row(1), rows.Row(1) + dim, 0.0f);
        }
        std::vector<float> query(static_cast<size_t>(dim));
        for (float& v : query) v = static_cast<float>(rng.Normal(0.0, 1.0));
        auto store = MakeStore(rows);
        for (const Metric metric : {Metric::kDot, Metric::kCosine}) {
          const float q_norm =
              std::sqrt(DotScore(query.data(), query.data(), dim));
          std::vector<Neighbor> oracle;
          for (int64_t i = 0; i < n; ++i) {
            oracle.push_back({i, MetricScore(metric, query.data(), q_norm,
                                             store->Vector(i),
                                             store->Norm(i), dim)});
          }
          std::sort(oracle.begin(), oracle.end(), BetterNeighbor);

          const BruteForceIndex index(store, metric);
          std::vector<Neighbor> got;
          ASSERT_TRUE(index.Search(query.data(), n, &got).ok());
          const std::string where =
              std::string(MetricName(metric)) + " dim=" +
              std::to_string(dim) + " n=" + std::to_string(n) +
              " threads=" + std::to_string(threads);
          ASSERT_EQ(got.size(), oracle.size()) << where;
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].id, oracle[i].id) << where << " rank " << i;
            ASSERT_EQ(std::memcmp(&got[i].score, &oracle[i].score,
                                  sizeof(float)),
                      0)
                << where << " rank " << i << ": " << got[i].score
                << " vs " << oracle[i].score;
          }
        }
      }
    }
  }
}

TEST_F(KnnIndexTest, CosineSelfSimilarityRanksFirst) {
  const DenseMatrix m = ClusteredEmbeddings(100, 8, 4, 13);
  auto store = MakeStore(m);
  const BruteForceIndex index(store, Metric::kCosine);
  std::vector<Neighbor> got;
  ASSERT_TRUE(index.Search(m.Row(42), 1, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 42);
  EXPECT_NEAR(got[0].score, 1.0f, 1e-5);
}

TEST_F(KnnIndexTest, IvfReachesHighRecallScanningAMinorityOfVectors) {
  const int64_t n = 1200;
  const DenseMatrix m = ClusteredEmbeddings(n, 24, 16, 17);
  auto store = MakeStore(m);
  const BruteForceIndex exact(store, Metric::kCosine);
  IvfConfig config;
  config.nlist = 16;
  config.nprobe = 4;
  auto ivf = IvfIndex::Build(store, Metric::kCosine, config);
  ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();

  int64_t hits = 0, total = 0, scanned = 0;
  const int kQueries = 50;
  for (int q = 0; q < kQueries; ++q) {
    const int64_t id = (q * 37) % n;
    std::vector<Neighbor> exact_result, ivf_result;
    SearchStats stats;
    ASSERT_TRUE(exact.Search(m.Row(id), 10, &exact_result).ok());
    ASSERT_TRUE(
        ivf.value()->Search(m.Row(id), 10, &ivf_result, &stats).ok());
    scanned += stats.vectors_scanned;
    std::set<int64_t> truth;
    for (const auto& nb : exact_result) truth.insert(nb.id);
    for (const auto& nb : ivf_result) hits += truth.count(nb.id);
    total += static_cast<int64_t>(exact_result.size());
  }
  const double recall = static_cast<double>(hits) / total;
  const double scan_fraction =
      static_cast<double>(scanned) / (kQueries * n);
  EXPECT_GE(recall, 0.9) << "recall@10 over " << kQueries << " queries";
  EXPECT_LT(scan_fraction, 0.4)
      << "IVF must scan a minority of the store";
}

TEST_F(KnnIndexTest, IvfProbingEveryListEqualsExactIdsAndScores) {
  const int64_t n = 203;
  const DenseMatrix m = ClusteredEmbeddings(n, 37, 6, 31);
  auto store = MakeStore(m);
  for (const Metric metric : {Metric::kDot, Metric::kCosine}) {
    const BruteForceIndex exact(store, metric);
    IvfConfig config;
    config.nlist = 8;
    config.nprobe = 8;
    auto ivf = IvfIndex::Build(store, metric, config);
    ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();
    for (const int64_t id : {int64_t{0}, int64_t{101}, n - 1}) {
      std::vector<Neighbor> exact_result, ivf_result;
      SearchStats stats;
      ASSERT_TRUE(exact.Search(m.Row(id), 25, &exact_result).ok());
      ASSERT_TRUE(
          ivf.value()->Search(m.Row(id), 25, &ivf_result, &stats).ok());
      EXPECT_EQ(stats.vectors_scanned, n);
      ASSERT_EQ(exact_result.size(), ivf_result.size());
      for (size_t i = 0; i < exact_result.size(); ++i) {
        EXPECT_EQ(exact_result[i].id, ivf_result[i].id)
            << MetricName(metric) << " query " << id << " rank " << i;
        EXPECT_EQ(std::memcmp(&exact_result[i].score, &ivf_result[i].score,
                              sizeof(float)),
                  0)
            << MetricName(metric) << " query " << id << " rank " << i;
      }
    }
  }
}

TEST_F(KnnIndexTest, IvfIsDeterministicAcrossThreadCountsAndRebuilds) {
  const DenseMatrix m = ClusteredEmbeddings(400, 12, 8, 19);
  auto store = MakeStore(m);
  IvfConfig config;
  config.nlist = 8;
  config.nprobe = 3;

  std::vector<std::vector<Neighbor>> results;
  for (const int threads : {1, 2, 8}) {
    SetGlobalParallelism(threads);
    auto ivf = IvfIndex::Build(store, Metric::kCosine, config);
    ASSERT_TRUE(ivf.ok());
    std::vector<Neighbor> neighbors;
    ASSERT_TRUE(ivf.value()->Search(m.Row(123), 7, &neighbors).ok());
    results.push_back(std::move(neighbors));
  }
  for (size_t t = 1; t < results.size(); ++t) {
    ASSERT_EQ(results[0].size(), results[t].size());
    for (size_t i = 0; i < results[0].size(); ++i) {
      EXPECT_EQ(results[0][i].id, results[t][i].id);
      EXPECT_EQ(results[0][i].score, results[t][i].score);
    }
  }
}

TEST_F(KnnIndexTest, IvfClampsNlistToRowCount) {
  const DenseMatrix m = ClusteredEmbeddings(5, 4, 2, 23);
  auto store = MakeStore(m);
  IvfConfig config;
  config.nlist = 64;
  config.nprobe = 64;
  auto ivf = IvfIndex::Build(store, Metric::kDot, config);
  ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();
  EXPECT_LE(ivf.value()->nlist(), 5);
  std::vector<Neighbor> neighbors;
  ASSERT_TRUE(ivf.value()->Search(m.Row(0), 5, &neighbors).ok());
  EXPECT_EQ(neighbors.size(), 5u);
}

TEST_F(KnnIndexTest, SearchHonorsCancelledContext) {
  const DenseMatrix m = ClusteredEmbeddings(300, 8, 4, 29);
  auto store = MakeStore(m);
  const BruteForceIndex index(store, Metric::kDot);
  std::atomic<bool> cancelled{true};
  RunContext ctx;
  ctx.SetCancelFlag(&cancelled);
  std::vector<Neighbor> neighbors;
  const Status st = index.Search(m.Row(0), 5, &neighbors, nullptr, &ctx);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

TEST_F(KnnIndexTest, ParseMetricRoundTrips) {
  EXPECT_EQ(ParseMetric("dot").value(), Metric::kDot);
  EXPECT_EQ(ParseMetric("cosine").value(), Metric::kCosine);
  EXPECT_FALSE(ParseMetric("euclidean").ok());
}

}  // namespace
}  // namespace serve
}  // namespace coane
