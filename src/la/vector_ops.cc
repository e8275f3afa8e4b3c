#include "la/vector_ops.h"

#include <cmath>

namespace coane {

float Dot(const float* a, const float* b, int64_t n) {
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double Norm2(const float* a, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) sum += static_cast<double>(a[i]) * a[i];
  return std::sqrt(sum);
}

float Sigmoid(float x) {
  if (x >= 0.0f) {
    return 1.0f / (1.0f + std::exp(-x));
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

float LogSigmoid(float x) {
  // log(1/(1+e^-x)) = -log(1+e^-x); for x<0 use x - log(1+e^x).
  if (x >= 0.0f) {
    return -std::log1p(std::exp(-x));
  }
  return x - std::log1p(std::exp(x));
}

double CosineSimilarity(const float* a, const float* b, int64_t n) {
  double na = Norm2(a, n);
  double nb = Norm2(b, n);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return static_cast<double>(Dot(a, b, n)) / (na * nb);
}

double SquaredDistance(const float* a, const float* b, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return sum;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double ss = 0.0;
  for (double x : v) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(v.size() - 1));
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace coane
