#include "nn/linear.h"

#include "common/logging.h"
#include "la/vector_ops.h"

namespace coane {

Linear::Linear(int64_t in_dim, int64_t out_dim, Rng* rng)
    : weight_(in_dim, out_dim),
      bias_(1, out_dim, 0.0f),
      weight_grad_(in_dim, out_dim, 0.0f),
      bias_grad_(1, out_dim, 0.0f) {
  weight_.XavierInit(rng);
}

DenseMatrix Linear::Forward(const DenseMatrix& x) {
  COANE_CHECK_EQ(x.cols(), weight_.rows());
  cached_input_ = x;
  DenseMatrix y = x.MatMul(weight_);
  for (int64_t i = 0; i < y.rows(); ++i) {
    Axpy(1.0f, bias_.Row(0), y.Row(i), y.cols());
  }
  return y;
}

DenseMatrix Linear::Backward(const DenseMatrix& dy) {
  COANE_CHECK_EQ(dy.rows(), cached_input_.rows());
  COANE_CHECK_EQ(dy.cols(), weight_.cols());
  // dW += x^T dy ; db += colsum(dy) ; dx = dy W^T.
  weight_grad_.Axpy(1.0f, cached_input_.TransposedMatMul(dy));
  for (int64_t i = 0; i < dy.rows(); ++i) {
    Axpy(1.0f, dy.Row(i), bias_grad_.Row(0), dy.cols());
  }
  return dy.MatMulTransposed(weight_);
}

void Linear::ZeroGrad() {
  weight_grad_.Fill(0.0f);
  bias_grad_.Fill(0.0f);
}

void Linear::RegisterParams(AdamOptimizer* optimizer) {
  weight_slot_ = optimizer->Register(&weight_);
  bias_slot_ = optimizer->Register(&bias_);
}

void Linear::ApplyGrad(AdamOptimizer* optimizer) {
  COANE_CHECK_GE(weight_slot_, 0);
  optimizer->Step(weight_slot_, weight_grad_);
  optimizer->Step(bias_slot_, bias_grad_);
}

DenseMatrix ReluActivation::Forward(const DenseMatrix& x) {
  mask_ = DenseMatrix(x.rows(), x.cols(), 0.0f);
  DenseMatrix y = x;
  for (int64_t i = 0; i < x.size(); ++i) {
    if (x.data()[i] > 0.0f) {
      mask_.data()[i] = 1.0f;
    } else {
      y.data()[i] = 0.0f;
    }
  }
  return y;
}

DenseMatrix ReluActivation::Backward(const DenseMatrix& dy) const {
  COANE_CHECK(dy.SameShape(mask_));
  DenseMatrix dx = dy;
  for (int64_t i = 0; i < dx.size(); ++i) dx.data()[i] *= mask_.data()[i];
  return dx;
}

double MseLoss(const DenseMatrix& pred, const DenseMatrix& target,
               DenseMatrix* grad) {
  COANE_CHECK(pred.SameShape(target));
  const int64_t n = pred.size();
  if (n == 0) return 0.0;
  double loss = 0.0;
  if (grad != nullptr) *grad = DenseMatrix(pred.rows(), pred.cols(), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    const double diff =
        static_cast<double>(pred.data()[i]) - target.data()[i];
    loss += diff * diff;
    if (grad != nullptr) {
      grad->data()[i] =
          static_cast<float>(2.0 * diff / static_cast<double>(n));
    }
  }
  return loss / static_cast<double>(n);
}

}  // namespace coane
