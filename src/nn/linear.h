#ifndef COANE_NN_LINEAR_H_
#define COANE_NN_LINEAR_H_

#include "common/rng.h"
#include "la/dense_matrix.h"
#include "nn/adam.h"

namespace coane {

/// Fully-connected layer y = x W + b with hand-written backward pass.
/// Weights are Xavier-initialized. One forward must precede each backward
/// (the layer caches its input).
class Linear {
 public:
  Linear(int64_t in_dim, int64_t out_dim, Rng* rng);

  /// y = x W + b. `x` is (batch x in_dim); returns (batch x out_dim).
  DenseMatrix Forward(const DenseMatrix& x);

  /// Given dL/dy, accumulates dL/dW and dL/db internally and returns dL/dx.
  DenseMatrix Backward(const DenseMatrix& dy);

  /// Zeroes the accumulated gradients.
  void ZeroGrad();

  /// Registers W and b with `optimizer`; call once before training.
  void RegisterParams(AdamOptimizer* optimizer);

  /// Applies the accumulated gradients through the registered optimizer.
  void ApplyGrad(AdamOptimizer* optimizer);

  int64_t in_dim() const { return weight_.rows(); }
  int64_t out_dim() const { return weight_.cols(); }
  const DenseMatrix& weight() const { return weight_; }
  DenseMatrix* mutable_weight() { return &weight_; }
  const DenseMatrix& bias() const { return bias_; }
  DenseMatrix* mutable_bias() { return &bias_; }
  const DenseMatrix& weight_grad() const { return weight_grad_; }
  const DenseMatrix& bias_grad() const { return bias_grad_; }

 private:
  DenseMatrix weight_;       // in x out
  DenseMatrix bias_;         // 1 x out
  DenseMatrix weight_grad_;
  DenseMatrix bias_grad_;
  DenseMatrix cached_input_;
  int weight_slot_ = -1;
  int bias_slot_ = -1;
};

/// In-place ReLU with cached mask for backward.
class ReluActivation {
 public:
  /// Returns max(x, 0) elementwise; caches the activation mask.
  DenseMatrix Forward(const DenseMatrix& x);

  /// Gates dy by the cached mask.
  DenseMatrix Backward(const DenseMatrix& dy) const;

 private:
  DenseMatrix mask_;
};

/// Mean-squared-error loss over all entries: L = mean((pred - target)^2).
/// When `grad` is non-null it receives dL/dpred.
double MseLoss(const DenseMatrix& pred, const DenseMatrix& target,
               DenseMatrix* grad);

}  // namespace coane

#endif  // COANE_NN_LINEAR_H_
