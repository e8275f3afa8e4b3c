#include "dist/merge.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "la/dense_matrix.h"
#include "nn/serialize.h"

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

// Hand-assembles a structurally valid checkpoint with one encoder
// matrix, one decoder layer, and one Adam slot — enough to exercise
// every blob the averager walks, with fully controlled values.
TrainingCheckpoint MakeCheckpoint(float base, int64_t epochs = 4,
                                  int64_t adam_step = 7) {
  TrainingCheckpoint ckpt;
  ckpt.epochs_done = epochs;
  ckpt.learning_rate = 0.001f * (base + 1.0f);
  ckpt.config_fingerprint = 0xABCDULL;
  ckpt.has_decoder = true;
  ckpt.rng_state = "shard-private-rng";

  AppendU32(&ckpt.encoder_blob, 1);
  AppendMatrix(&ckpt.encoder_blob, FilledMatrix(2, 3, base));

  AppendU32(&ckpt.decoder_blob, 1);
  AppendMatrix(&ckpt.decoder_blob, FilledMatrix(3, 2, base + 10.0f));
  AppendMatrix(&ckpt.decoder_blob, FilledMatrix(1, 2, base + 20.0f));

  AppendU32(&ckpt.optimizer_blob, 1);
  AppendI64(&ckpt.optimizer_blob, adam_step);
  AppendMatrix(&ckpt.optimizer_blob, FilledMatrix(2, 3, base + 30.0f));
  AppendMatrix(&ckpt.optimizer_blob, FilledMatrix(2, 3, base + 40.0f));
  return ckpt;
}

// First float of the first matrix inside an encoder-layout blob.
float FirstEncoderValue(const std::string& blob) {
  ByteReader reader(blob);
  uint32_t count = 0;
  int64_t rows = 0, cols = 0;
  float v = 0.0f;
  EXPECT_TRUE(reader.ReadU32(&count));
  EXPECT_TRUE(reader.ReadI64(&rows));
  EXPECT_TRUE(reader.ReadI64(&cols));
  EXPECT_TRUE(reader.ReadF32(&v));
  return v;
}

TEST(MergeTest, AverageOfOneIsBitExactIdentity) {
  const TrainingCheckpoint a = MakeCheckpoint(1.0f);
  auto merged = AverageCheckpoints({&a}, 0x1234ULL);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().encoder_blob, a.encoder_blob);
  EXPECT_EQ(merged.value().decoder_blob, a.decoder_blob);
  EXPECT_EQ(merged.value().optimizer_blob, a.optimizer_blob);
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
  EXPECT_FLOAT_EQ(FirstEncoderValue(merged.value().encoder_blob), 1.0f);
  EXPECT_FLOAT_EQ(merged.value().learning_rate,
                  (a.learning_rate + b.learning_rate) / 2.0f);
  EXPECT_EQ(merged.value().epochs_done, a.epochs_done);
}

TEST(MergeTest, OrderIsCallerFixedNotCommutativeByAccident) {
  // Averaging is order-sensitive in floating point only through the
  // accumulation order; with two inputs both orders agree, so assert the
  // stronger property the coordinator relies on: same input set, same
  // order, same bytes.
  const TrainingCheckpoint a = MakeCheckpoint(0.5f);
  const TrainingCheckpoint b = MakeCheckpoint(3.5f);
  auto m1 = AverageCheckpoints({&a, &b}, 0x1ULL);
  auto m2 = AverageCheckpoints({&a, &b}, 0x1ULL);
  ASSERT_TRUE(m1.ok() && m2.ok());
  EXPECT_EQ(m1.value().encoder_blob, m2.value().encoder_blob);
  EXPECT_EQ(m1.value().optimizer_blob, m2.value().optimizer_blob);
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
  b.encoder_blob.clear();
  AppendU32(&b.encoder_blob, 1);
  AppendMatrix(&b.encoder_blob, FilledMatrix(3, 3, 1.0f));  // wrong shape
  auto merged = AverageCheckpoints({&a, &b}, 0x1ULL);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);
}

// Both shards agree on an encoder shape whose float count overflows
// int64 (2^32 x 2^32, and 3 x 2^62) and carry no payload: DataLoss, not a
// signed overflow that skips the payload loop and returns OK.
TEST(MergeTest, OverflowingShapeIsDataLoss) {
  const std::pair<int64_t, int64_t> shapes[] = {
      {int64_t{1} << 32, int64_t{1} << 32}, {3, int64_t{1} << 62}};
  for (const auto& [rows, cols] : shapes) {
    TrainingCheckpoint a = MakeCheckpoint(0.0f);
    TrainingCheckpoint b = MakeCheckpoint(1.0f);
    for (TrainingCheckpoint* c : {&a, &b}) {
      c->encoder_blob.clear();
      AppendU32(&c->encoder_blob, 1);
      AppendI64(&c->encoder_blob, rows);
      AppendI64(&c->encoder_blob, cols);
    }
    auto merged = AverageCheckpoints({&a, &b}, 0x1ULL);
    ASSERT_FALSE(merged.ok()) << rows << "x" << cols;
    EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);
  }
}

TEST(MergeTest, DecoderPresenceMismatchIsDataLoss) {
  const TrainingCheckpoint a = MakeCheckpoint(0.0f);
  TrainingCheckpoint b = MakeCheckpoint(1.0f);
  b.has_decoder = false;
  b.decoder_blob.clear();
  auto merged = AverageCheckpoints({&a, &b}, 0x1ULL);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);
}

TEST(MergeTest, TruncatedBlobIsDataLoss) {
  const TrainingCheckpoint a = MakeCheckpoint(0.0f);
  TrainingCheckpoint b = MakeCheckpoint(1.0f);
  b.optimizer_blob.resize(b.optimizer_blob.size() / 2);
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
