#include "dist/merge.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "la/dense_matrix.h"

namespace coane {
namespace dist {
namespace {

DenseMatrix FilledMatrix(int64_t rows, int64_t cols, float base) {
  DenseMatrix m(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      m.At(r, c) = base + static_cast<float>(r * cols + c);
    }
  }
  return m;
}

bool SameBytes(const DenseMatrix& a, const DenseMatrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// Every matrix and Adam step of `a` and `b` agrees bit for bit.
bool SameState(const TrainingCheckpoint& a, const TrainingCheckpoint& b) {
  std::vector<const DenseMatrix*> ma, mb;
  ForEachMatrix(a, [&](const DenseMatrix& m) { ma.push_back(&m); });
  ForEachMatrix(b, [&](const DenseMatrix& m) { mb.push_back(&m); });
  if (ma.size() != mb.size() || a.adam.size() != b.adam.size()) return false;
  for (size_t i = 0; i < ma.size(); ++i) {
    if (!SameBytes(*ma[i], *mb[i])) return false;
  }
  for (size_t i = 0; i < a.adam.size(); ++i) {
    if (a.adam[i].step != b.adam[i].step) return false;
  }
  return true;
}

// A structurally valid state with one encoder matrix, one decoder layer,
// and one Adam slot — every section the averager walks, with fully
// controlled values.
TrainingCheckpoint MakeCheckpoint(float base, int64_t epochs = 4,
                                  int64_t adam_step = 7) {
  TrainingCheckpoint ckpt;
  ckpt.epochs_done = epochs;
  ckpt.learning_rate = 0.001f * (base + 1.0f);
  ckpt.config_fingerprint = 0xABCDULL;
  ckpt.rng_state = "shard-private-rng";
  ckpt.encoder.push_back(FilledMatrix(2, 3, base));
  ckpt.decoder.push_back(
      {FilledMatrix(3, 2, base + 10.0f), FilledMatrix(1, 2, base + 20.0f)});
  ckpt.adam.push_back({adam_step, FilledMatrix(2, 3, base + 30.0f),
                       FilledMatrix(2, 3, base + 40.0f)});
  return ckpt;
}

TEST(MergeTest, AverageOfOneIsBitExactIdentity) {
  const TrainingCheckpoint a = MakeCheckpoint(1.0f);
  auto merged = AverageCheckpoints({&a}, 0x1234ULL);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(SameState(merged.value(), a));
  EXPECT_EQ(merged.value().epochs_done, a.epochs_done);
  EXPECT_EQ(merged.value().learning_rate, a.learning_rate);
  // The merged artifact carries the plan fingerprint and no RNG: it is a
  // parameter artifact, not a resumable training state.
  EXPECT_EQ(merged.value().config_fingerprint, 0x1234ULL);
  EXPECT_TRUE(merged.value().rng_state.empty());
}

TEST(MergeTest, AveragesElementWise) {
  const TrainingCheckpoint a = MakeCheckpoint(0.0f);
  const TrainingCheckpoint b = MakeCheckpoint(2.0f);
  auto merged = AverageCheckpoints({&a, &b}, 0x1ULL);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  // Element (0,0) of the encoder matrices: (0 + 2) / 2 = 1.
  EXPECT_FLOAT_EQ(merged.value().encoder[0].At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(merged.value().learning_rate,
                  (a.learning_rate + b.learning_rate) / 2.0f);
  EXPECT_EQ(merged.value().epochs_done, a.epochs_done);
}

TEST(MergeTest, AverageIsIndependentOfShardOrder) {
  // SortedMean sorts each element's shard values before it sums them, so
  // the merged state is a function of the input set alone: {a, b} and
  // {b, a} give the same bytes.
  const TrainingCheckpoint a = MakeCheckpoint(0.5f);
  const TrainingCheckpoint b = MakeCheckpoint(3.5f);
  auto m1 = AverageCheckpoints({&a, &b}, 0x1ULL);
  auto m2 = AverageCheckpoints({&b, &a}, 0x1ULL);
  ASSERT_TRUE(m1.ok() && m2.ok());
  EXPECT_TRUE(SameState(m1.value(), m2.value()));
  EXPECT_EQ(m1.value().learning_rate, m2.value().learning_rate);
  EXPECT_FALSE(SameState(m1.value(), a));
}

TEST(MergeTest, EmptyInputRejected) {
  auto merged = AverageCheckpoints({}, 0x1ULL);
  EXPECT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST(MergeTest, EpochMismatchIsFailedPrecondition) {
  const TrainingCheckpoint a = MakeCheckpoint(0.0f, /*epochs=*/4);
  const TrainingCheckpoint b = MakeCheckpoint(1.0f, /*epochs=*/6);
  auto merged = AverageCheckpoints({&a, &b}, 0x1ULL);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MergeTest, AdamStepMismatchIsFailedPrecondition) {
  const TrainingCheckpoint a = MakeCheckpoint(0.0f, 4, /*adam_step=*/7);
  const TrainingCheckpoint b = MakeCheckpoint(1.0f, 4, /*adam_step=*/9);
  auto merged = AverageCheckpoints({&a, &b}, 0x1ULL);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MergeTest, ShapeMismatchIsDataLoss) {
  const TrainingCheckpoint a = MakeCheckpoint(0.0f);
  TrainingCheckpoint b = MakeCheckpoint(1.0f);
  b.encoder[0] = FilledMatrix(3, 3, 1.0f);  // wrong shape
  auto merged = AverageCheckpoints({&a, &b}, 0x1ULL);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);
}

TEST(MergeTest, MatrixCountMismatchIsDataLoss) {
  const TrainingCheckpoint a = MakeCheckpoint(0.0f);
  TrainingCheckpoint b = MakeCheckpoint(1.0f);
  b.encoder.push_back(FilledMatrix(2, 3, 1.0f));
  auto merged = AverageCheckpoints({&a, &b}, 0x1ULL);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);
}

TEST(MergeTest, DecoderPresenceMismatchIsDataLoss) {
  const TrainingCheckpoint a = MakeCheckpoint(0.0f);
  TrainingCheckpoint b = MakeCheckpoint(1.0f);
  b.decoder.clear();
  auto merged = AverageCheckpoints({&a, &b}, 0x1ULL);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);
}

TEST(MergeTest, AdamMomentShapeMismatchIsDataLoss) {
  const TrainingCheckpoint a = MakeCheckpoint(0.0f);
  TrainingCheckpoint b = MakeCheckpoint(1.0f);
  b.adam[0].v = FilledMatrix(2, 2, 1.0f);
  auto merged = AverageCheckpoints({&a, &b}, 0x1ULL);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);
}

TEST(MergeTest, AverageEmbeddingsNumericAndIdentity) {
  const DenseMatrix a = FilledMatrix(4, 2, 0.0f);
  const DenseMatrix b = FilledMatrix(4, 2, 3.0f);
  auto merged = AverageEmbeddings({&a, &b});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_FLOAT_EQ(merged.value().At(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(merged.value().At(3, 1), 8.5f);

  auto identity = AverageEmbeddings({&a});
  ASSERT_TRUE(identity.ok());
  EXPECT_EQ(std::memcmp(identity.value().data(), a.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

TEST(MergeTest, AverageEmbeddingsShapeMismatchIsDataLoss) {
  const DenseMatrix a = FilledMatrix(4, 2, 0.0f);
  const DenseMatrix b = FilledMatrix(2, 4, 0.0f);
  auto merged = AverageEmbeddings({&a, &b});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace dist
}  // namespace coane
