#include "la/vector_ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace coane {
namespace {

TEST(VectorOpsTest, Dot) {
  float a[] = {1, 2, 3};
  float b[] = {4, 5, 6};
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 32.0f);
  EXPECT_FLOAT_EQ(Dot(a, b, 0), 0.0f);
}

TEST(VectorOpsTest, Axpy) {
  float x[] = {1, 1, 1};
  float y[] = {1, 2, 3};
  Axpy(2.0f, x, y, 3);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[2], 5.0f);
}

// The scalar loops Axpy and Scale replaced; the oracles for their bytes.
void ReferenceAxpy(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ReferenceScale(float alpha, float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

// n floats, starting at data() + offset, that mix ordinary values with
// +-0, +-inf, quiet NaN and subnormals; `salt` varies the mix. A trailing
// guard float catches a write past n.
std::vector<float> OracleInput(int64_t n, int64_t offset, int salt) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,
                            -0.0f,
                            kInf,
                            -kInf,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1e-39f,
                            -3e-40f,
                            std::numeric_limits<float>::min()};
  std::vector<float> v(static_cast<size_t>(n + offset + 1), 0.5f);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t k = i * 7 + salt;
    v[static_cast<size_t>(offset + i)] =
        k % 3 == 0 ? specials[k % 10]
                   : static_cast<float>(k % 101 - 50) / 16.0f + 0.1f;
  }
  return v;
}

// Every length up to four 8-float steps plus a tail, and a few long ones.
std::vector<int64_t> OracleSizes() {
  std::vector<int64_t> sizes;
  for (int64_t n = 0; n <= 33; ++n) sizes.push_back(n);
  for (int64_t n : {127, 128, 129, 6024}) sizes.push_back(n);
  return sizes;
}

const int64_t kOracleOffsets[] = {0, 1, 3};
const float kOracleAlphas[] = {0.0f,
                               -0.0f,
                               1.0f,
                               -1.0f,
                               1e-30f,
                               std::numeric_limits<float>::infinity(),
                               -std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::quiet_NaN()};

TEST(VectorOpsTest, AxpyMatchesScalarLoopBytes) {
  for (int64_t n : OracleSizes()) {
    for (int64_t x_off : kOracleOffsets) {
      for (int64_t y_off : kOracleOffsets) {
        for (float alpha : kOracleAlphas) {
          const std::vector<float> x = OracleInput(n, x_off, 1);
          std::vector<float> want = OracleInput(n, y_off, 2);
          std::vector<float> got = want;
          ReferenceAxpy(alpha, x.data() + x_off, want.data() + y_off, n);
          Axpy(alpha, x.data() + x_off, got.data() + y_off, n);
          ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                want.size() * sizeof(float)),
                    0)
              << "n=" << n << " x_off=" << x_off << " y_off=" << y_off
              << " alpha=" << alpha;
        }
      }
    }
  }
}

TEST(VectorOpsTest, AxpyInPlaceMatchesScalarLoopBytes) {
  for (int64_t n : OracleSizes()) {
    for (int64_t off : kOracleOffsets) {
      for (float alpha : kOracleAlphas) {
        std::vector<float> want = OracleInput(n, off, 3);
        std::vector<float> got = want;
        ReferenceAxpy(alpha, want.data() + off, want.data() + off, n);
        Axpy(alpha, got.data() + off, got.data() + off, n);
        ASSERT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(float)),
                  0)
            << "n=" << n << " off=" << off << " alpha=" << alpha;
      }
    }
  }
}

TEST(VectorOpsTest, ScaleMatchesScalarLoopBytes) {
  for (int64_t n : OracleSizes()) {
    for (int64_t off : kOracleOffsets) {
      for (float alpha : kOracleAlphas) {
        std::vector<float> want = OracleInput(n, off, 4);
        std::vector<float> got = want;
        ReferenceScale(alpha, want.data() + off, n);
        Scale(alpha, got.data() + off, n);
        ASSERT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(float)),
                  0)
            << "n=" << n << " off=" << off << " alpha=" << alpha;
      }
    }
  }
}

TEST(VectorOpsTest, Norm2) {
  float a[] = {3, 4};
  EXPECT_DOUBLE_EQ(Norm2(a, 2), 5.0);
}

TEST(VectorOpsTest, SigmoidValues) {
  EXPECT_FLOAT_EQ(Sigmoid(0.0f), 0.5f);
  EXPECT_NEAR(Sigmoid(100.0f), 1.0f, 1e-6);
  EXPECT_NEAR(Sigmoid(-100.0f), 0.0f, 1e-6);
  EXPECT_NEAR(Sigmoid(1.0f), 1.0f / (1.0f + std::exp(-1.0f)), 1e-6);
}

TEST(VectorOpsTest, SigmoidSymmetry) {
  for (float x : {0.1f, 0.7f, 2.3f, 9.0f}) {
    EXPECT_NEAR(Sigmoid(x) + Sigmoid(-x), 1.0f, 1e-6);
  }
}

TEST(VectorOpsTest, LogSigmoidMatchesLogOfSigmoid) {
  for (float x : {-5.0f, -1.0f, 0.0f, 1.0f, 5.0f}) {
    EXPECT_NEAR(LogSigmoid(x), std::log(Sigmoid(x)), 1e-5);
  }
}

TEST(VectorOpsTest, LogSigmoidNoOverflow) {
  EXPECT_NEAR(LogSigmoid(-500.0f), -500.0f, 1e-3);
  EXPECT_NEAR(LogSigmoid(500.0f), 0.0f, 1e-6);
}

TEST(VectorOpsTest, CosineSimilarity) {
  float a[] = {1, 0};
  float b[] = {0, 1};
  float c[] = {2, 0};
  float zero[] = {0, 0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b, 2), 0.0);
  EXPECT_NEAR(CosineSimilarity(a, c, 2), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, zero, 2), 0.0);
}

TEST(VectorOpsTest, SquaredDistance) {
  float a[] = {1, 2};
  float b[] = {4, 6};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b, 2), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, a, 2), 0.0);
}

TEST(VectorOpsTest, MeanAndStdDev) {
  std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_NEAR(StdDev(v), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0}), 0.0);
}

TEST(VectorOpsTest, PearsonCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> ny = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, ny), -1.0, 1e-12);
  std::vector<double> flat = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, flat), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, {1.0}), 0.0) << "size mismatch";
}

}  // namespace
}  // namespace coane
