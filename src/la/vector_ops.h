#ifndef COANE_LA_VECTOR_OPS_H_
#define COANE_LA_VECTOR_OPS_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace coane {

/// Free functions on raw float spans used in the hot loops of model training.
/// All require the obvious size preconditions (checked in debug via callers).

/// Inner product of two length-n vectors.
float Dot(const float* a, const float* b, int64_t n);

/// Four-lane float vector (GCC/Clang vector extension). The compiler maps it
/// onto the target's baseline SIMD registers; no intrinsics, no -march.
typedef float Lanes __attribute__((vector_size(16)));
constexpr int64_t kLanes = 4;

/// y[i] = y[i] + alpha * x[i] for i < n: one rounded multiply, then one
/// rounded add, per element, so the bytes do not depend on how many elements
/// a step handles (DESIGN.md section 5). `x` and `y` are either the same
/// pointer or do not overlap.
inline void Axpy(float alpha, const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    Lanes x0, x1, y0, y1;
    std::memcpy(&x0, x + i, sizeof(Lanes));
    std::memcpy(&x1, x + i + kLanes, sizeof(Lanes));
    std::memcpy(&y0, y + i, sizeof(Lanes));
    std::memcpy(&y1, y + i + kLanes, sizeof(Lanes));
    y0 = y0 + alpha * x0;
    y1 = y1 + alpha * x1;
    std::memcpy(y + i, &y0, sizeof(Lanes));
    std::memcpy(y + i + kLanes, &y1, sizeof(Lanes));
  }
  for (; i < n; ++i) y[i] = y[i] + alpha * x[i];
}

/// x[i] = alpha * x[i] for i < n: one rounded multiply per element.
inline void Scale(float alpha, float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    Lanes x0, x1;
    std::memcpy(&x0, x + i, sizeof(Lanes));
    std::memcpy(&x1, x + i + kLanes, sizeof(Lanes));
    x0 = alpha * x0;
    x1 = alpha * x1;
    std::memcpy(x + i, &x0, sizeof(Lanes));
    std::memcpy(x + i + kLanes, &x1, sizeof(Lanes));
  }
  for (; i < n; ++i) x[i] = alpha * x[i];
}

/// Euclidean norm.
double Norm2(const float* a, int64_t n);

/// Numerically-stable logistic sigmoid.
float Sigmoid(float x);

/// log(sigmoid(x)) computed without overflow for large |x|.
float LogSigmoid(float x);

/// Cosine similarity of two length-n vectors; 0 if either has zero norm.
double CosineSimilarity(const float* a, const float* b, int64_t n);

/// Squared Euclidean distance between two length-n vectors.
double SquaredDistance(const float* a, const float* b, int64_t n);

/// Mean of a vector of doubles; 0 for an empty input.
double Mean(const std::vector<double>& v);

/// Sample standard deviation; 0 for fewer than two elements.
double StdDev(const std::vector<double>& v);

/// Pearson correlation of two equal-length vectors; 0 when degenerate.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace coane

#endif  // COANE_LA_VECTOR_OPS_H_
