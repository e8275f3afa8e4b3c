// Round-trip tests for the binary training-state serialization layer that
// backs checkpoints (src/nn/serialize.h).

#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace coane {
namespace {

DenseMatrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  DenseMatrix m(rows, cols);
  m.GaussianInit(rng, 0.0f, 1.0f);
  return m;
}

bool BitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

bool SameMatrices(const std::vector<DenseMatrix>& a,
                  const std::vector<DenseMatrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitIdentical(a[i], b[i])) return false;
  }
  return true;
}

TEST(SerializeTest, EncoderSectionRoundTripIsBitIdentical) {
  Rng rng(11);
  ContextEncoder original(3, 7, 4, ContextEncoder::Kind::kConvolution,
                          &rng);
  const std::vector<DenseMatrix>& weights = original.weight_matrices();
  ASSERT_EQ(weights.size(), 3u);
  std::string blob;
  AppendEncoderWeights(&blob, weights);
  // The object form writes the same bytes.
  std::string from_object;
  AppendEncoderWeights(&from_object, original);
  EXPECT_EQ(blob, from_object);

  ByteReader reader(blob);
  std::vector<DenseMatrix> restored;
  ASSERT_TRUE(ReadEncoderWeights(&reader, &restored).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_TRUE(SameMatrices(weights, restored));
  for (int i = 0; i < original.num_weight_matrices(); ++i) {
    EXPECT_TRUE(BitIdentical(original.weight_matrix(i), restored[i]));
  }
}

TEST(SerializeTest, TruncatedSectionIsDataLoss) {
  Rng rng(7);
  ContextEncoder encoder(3, 6, 6, ContextEncoder::Kind::kFullyConnected,
                         &rng);
  std::string blob;
  AppendEncoderWeights(&blob, encoder);
  // Cut inside the count, the matrix header and the matrix payload.
  for (size_t keep : {size_t{2}, size_t{10}, blob.size() / 2,
                      blob.size() - 1}) {
    ByteReader reader(blob.data(), keep);
    std::vector<DenseMatrix> restored;
    EXPECT_EQ(ReadEncoderWeights(&reader, &restored).code(),
              StatusCode::kDataLoss)
        << "keep=" << keep;
  }
}

// A shape whose float count overflows int64 (2^32 x 2^32, 3 x 2^62), a
// negative one, and one just past the bytes left: kDataLoss before any
// allocation is sized from it.
TEST(SerializeTest, ShapePastTheBytesIsDataLoss) {
  const std::pair<int64_t, int64_t> shapes[] = {
      {int64_t{1} << 32, int64_t{1} << 32},
      {3, int64_t{1} << 62},
      {-1, 4},
      {2, 3}};
  for (const auto& [rows, cols] : shapes) {
    std::string blob;
    AppendU32(&blob, 1);
    AppendI64(&blob, rows);
    AppendI64(&blob, cols);
    for (int i = 0; i < 5; ++i) AppendF32(&blob, 1.0f);  // 2x3 needs 6
    ByteReader reader(blob);
    std::vector<DenseMatrix> restored;
    EXPECT_EQ(ReadEncoderWeights(&reader, &restored).code(),
              StatusCode::kDataLoss)
        << rows << "x" << cols;
  }
}

TEST(SerializeTest, MlpSectionRoundTrip) {
  Rng rng(13);
  Mlp original({6, 10, 3}, &rng);
  std::string blob;
  AppendMlpWeights(&blob, original);

  ByteReader reader(blob);
  std::vector<LayerWeights> restored;
  ASSERT_TRUE(ReadMlpWeights(&reader, &restored).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  ASSERT_EQ(restored.size(), original.num_layers());
  for (size_t i = 0; i < original.num_layers(); ++i) {
    EXPECT_TRUE(BitIdentical(original.layer(i).weight(), restored[i].weight));
    EXPECT_TRUE(BitIdentical(original.layer(i).bias(), restored[i].bias));
  }
  std::string again;
  AppendMlpWeights(&again, restored);
  EXPECT_EQ(again, blob);
}

TEST(SerializeTest, AdamSectionRoundTripPreservesMomentsAndStep) {
  Rng rng(17);
  DenseMatrix p1 = RandomMatrix(3, 3, &rng);
  DenseMatrix p2 = RandomMatrix(2, 5, &rng);
  AdamOptimizer original;
  const int id1 = original.Register(&p1);
  const int id2 = original.Register(&p2);
  // Take a few steps so moments and timesteps are non-trivial.
  for (int s = 0; s < 3; ++s) {
    original.Step(id1, RandomMatrix(3, 3, &rng));
    original.Step(id2, RandomMatrix(2, 5, &rng));
  }
  std::string blob;
  AppendAdamState(&blob, original);

  ByteReader reader(blob);
  std::vector<AdamSlotState> restored;
  ASSERT_TRUE(ReadAdamState(&reader, &restored).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored[0].step, 3);
  EXPECT_EQ(restored[1].step, 3);
  EXPECT_TRUE(BitIdentical(original.slot_moment1(0), restored[0].m));
  EXPECT_TRUE(BitIdentical(original.slot_moment2(1), restored[1].v));
  std::string again;
  AppendAdamState(&again, restored);
  EXPECT_EQ(again, blob);
}

TEST(SerializeTest, NegativeAdamStepIsDataLoss) {
  std::vector<AdamSlotState> slots(1);
  slots[0].step = -1;
  slots[0].m = DenseMatrix(1, 2, 0.5f);
  slots[0].v = DenseMatrix(1, 2, 0.25f);
  std::string blob;
  AppendAdamState(&blob, slots);
  ByteReader reader(blob);
  std::vector<AdamSlotState> restored;
  EXPECT_EQ(ReadAdamState(&reader, &restored).code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, RngStateRoundTripContinuesSequence) {
  Rng a(123);
  for (int i = 0; i < 100; ++i) a.Uniform();
  const std::string state = a.SerializeState();

  Rng b(999);
  ASSERT_TRUE(b.DeserializeState(state));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.engine()(), b.engine()());
  }
  EXPECT_FALSE(b.DeserializeState("not a valid engine state"));
}

}  // namespace
}  // namespace coane
