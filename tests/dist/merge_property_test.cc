// Property tests for the round-barrier averaging kernels: the merged
// bytes must be a pure function of the shard-state *multiset*. Two
// properties, each under seeded random inputs:
//
//   1. Permutation invariance — AverageCheckpoints / AverageEmbeddings
//      over any reordering of the same N inputs produce byte-identical
//      results. This is what lets the coordinator merge "the committed
//      shard set" without caring which worker finished first, and what
//      makes a degraded round's bytes depend only on *which* shards
//      survived, never on the order they were collected in.
//
//   2. Average-of-identical is bit-exact — N copies of one state average
//      to exactly that state, for any N (not just powers of two). n*v is
//      exact in double (24-bit float mantissa times a small integer) and
//      the correctly-rounded division n*v/n returns v itself; the kernel
//      divides by the count rather than multiplying by its reciprocal
//      precisely to keep this exact. N=1 is the --shards=1 byte-identity
//      contract.

#include "dist/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "la/dense_matrix.h"

namespace coane {
namespace dist {
namespace {

DenseMatrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  DenseMatrix m(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      // Mixed magnitudes so the sorted summation actually has something
      // to reorder (equal-magnitude values cannot expose order bugs).
      m.At(r, c) = static_cast<float>(rng->Normal(0.0, 1.0) *
                                      (rng->Bernoulli(0.2) ? 1e4 : 1.0));
    }
  }
  return m;
}

// A structurally valid random checkpoint: two encoder matrices, a
// two-layer decoder, two Adam slots — every section the averager walks.
TrainingCheckpoint RandomCheckpoint(Rng* rng) {
  TrainingCheckpoint ckpt;
  ckpt.epochs_done = 6;
  ckpt.learning_rate = static_cast<float>(rng->Uniform(1e-4, 1e-2));
  ckpt.config_fingerprint = 0xFEEDULL;
  ckpt.rng_state = "shard-private";

  ckpt.encoder.push_back(RandomMatrix(3, 4, rng));
  ckpt.encoder.push_back(RandomMatrix(2, 2, rng));

  ckpt.decoder.push_back({RandomMatrix(4, 3, rng), RandomMatrix(1, 3, rng)});
  ckpt.decoder.push_back({RandomMatrix(3, 2, rng), RandomMatrix(1, 2, rng)});

  for (int slot = 0; slot < 2; ++slot) {
    DenseMatrix m = RandomMatrix(3, 4, rng);
    DenseMatrix v = RandomMatrix(3, 4, rng);
    ckpt.adam.push_back({11, std::move(m), std::move(v)});
  }
  return ckpt;
}

void ExpectSameBytes(const TrainingCheckpoint& a,
                     const TrainingCheckpoint& b, const std::string& what) {
  std::vector<const DenseMatrix*> ma, mb;
  ForEachMatrix(a, [&](const DenseMatrix& m) { ma.push_back(&m); });
  ForEachMatrix(b, [&](const DenseMatrix& m) { mb.push_back(&m); });
  ASSERT_EQ(ma.size(), mb.size()) << what;
  for (size_t i = 0; i < ma.size(); ++i) {
    EXPECT_TRUE(ma[i]->SameShape(*mb[i]) &&
                std::memcmp(ma[i]->data(), mb[i]->data(),
                            static_cast<size_t>(ma[i]->size()) *
                                sizeof(float)) == 0)
        << what << ": matrix " << i;
  }
  ASSERT_EQ(a.adam.size(), b.adam.size()) << what;
  for (size_t i = 0; i < a.adam.size(); ++i) {
    EXPECT_EQ(a.adam[i].step, b.adam[i].step) << what << ": step " << i;
  }
  // learning_rate is averaged too; compare the bit pattern, not the value.
  EXPECT_EQ(a.learning_rate, b.learning_rate) << what << ": lr";
}

TEST(MergePropertyTest, CheckpointAverageIsPermutationInvariant) {
  for (int n : {2, 3, 4, 7}) {
    Rng rng(1000 + static_cast<uint64_t>(n));
    std::vector<TrainingCheckpoint> shards;
    for (int i = 0; i < n; ++i) shards.push_back(RandomCheckpoint(&rng));

    std::vector<const TrainingCheckpoint*> order;
    for (const auto& s : shards) order.push_back(&s);
    auto reference = AverageCheckpoints(order, 0x77ULL);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    // Reversed plus several seeded shuffles — every order must hit the
    // reference bytes exactly.
    std::reverse(order.begin(), order.end());
    for (int trial = 0; trial < 4; ++trial) {
      auto merged = AverageCheckpoints(order, 0x77ULL);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      ExpectSameBytes(merged.value(), reference.value(),
                      "n=" + std::to_string(n) + " trial=" +
                          std::to_string(trial));
      // Deterministic reshuffle for the next trial.
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1],
                  order[static_cast<size_t>(rng.UniformInt(
                      static_cast<int64_t>(i)))]);
      }
    }
  }
}

TEST(MergePropertyTest, CheckpointAverageOfIdenticalIsBitExact) {
  for (int n : {1, 2, 3, 5, 7}) {
    Rng rng(2000 + static_cast<uint64_t>(n));
    const TrainingCheckpoint one = RandomCheckpoint(&rng);
    std::vector<const TrainingCheckpoint*> copies(
        static_cast<size_t>(n), &one);
    auto merged = AverageCheckpoints(copies, 0x77ULL);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ExpectSameBytes(merged.value(), one, "n=" + std::to_string(n));
    EXPECT_EQ(merged.value().epochs_done, one.epochs_done);
  }
}

TEST(MergePropertyTest, EmbeddingAverageIsPermutationInvariant) {
  for (int n : {2, 3, 4, 7}) {
    Rng rng(3000 + static_cast<uint64_t>(n));
    std::vector<DenseMatrix> shards;
    for (int i = 0; i < n; ++i) shards.push_back(RandomMatrix(9, 5, &rng));

    std::vector<const DenseMatrix*> order;
    for (const auto& s : shards) order.push_back(&s);
    auto reference = AverageEmbeddings(order);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    std::reverse(order.begin(), order.end());
    for (int trial = 0; trial < 4; ++trial) {
      auto merged = AverageEmbeddings(order);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      for (int64_t r = 0; r < 9; ++r) {
        for (int64_t c = 0; c < 5; ++c) {
          ASSERT_EQ(merged.value().At(r, c), reference.value().At(r, c))
              << "n=" << n << " trial=" << trial << " at (" << r << ","
              << c << ")";
        }
      }
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1],
                  order[static_cast<size_t>(rng.UniformInt(
                      static_cast<int64_t>(i)))]);
      }
    }
  }
}

TEST(MergePropertyTest, EmbeddingAverageOfIdenticalIsBitExact) {
  for (int n : {1, 2, 3, 5, 7}) {
    Rng rng(4000 + static_cast<uint64_t>(n));
    const DenseMatrix one = RandomMatrix(9, 5, &rng);
    std::vector<const DenseMatrix*> copies(static_cast<size_t>(n), &one);
    auto merged = AverageEmbeddings(copies);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    for (int64_t r = 0; r < 9; ++r) {
      for (int64_t c = 0; c < 5; ++c) {
        ASSERT_EQ(merged.value().At(r, c), one.At(r, c))
            << "n=" << n << " at (" << r << "," << c << ")";
      }
    }
  }
}

}  // namespace
}  // namespace dist
}  // namespace coane
