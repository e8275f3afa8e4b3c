#include "eval/logistic_regression.h"

#include <cmath>

#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "common/rng.h"
#include "la/vector_ops.h"
#include "nn/adam.h"

namespace coane {

Status LogisticRegression::Fit(const DenseMatrix& x,
                               const std::vector<int>& y,
                               const LogisticRegressionConfig& config,
                               const RunContext* ctx) {
  if (x.rows() == 0) return Status::InvalidArgument("empty training set");
  if (static_cast<int64_t>(y.size()) != x.rows()) {
    return Status::InvalidArgument("labels size mismatch");
  }
  for (int label : y) {
    if (label != 0 && label != 1) {
      return Status::InvalidArgument("binary labels must be 0 or 1");
    }
  }
  const int64_t d = x.cols();
  const int64_t m = x.rows();

  DenseMatrix w(1, d, 0.0f);
  DenseMatrix b(1, 1, 0.0f);
  AdamConfig adam_cfg;
  adam_cfg.learning_rate = config.learning_rate;
  AdamOptimizer opt(adam_cfg);
  const int w_slot = opt.Register(&w);
  const int b_slot = opt.Register(&b);

  DenseMatrix gw(1, d, 0.0f);
  DenseMatrix gb(1, 1, 0.0f);
  const float inv_m = 1.0f / static_cast<float>(m);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    COANE_RETURN_IF_STOPPED(ctx, "eval.logreg_epoch");
    gw.Fill(0.0f);
    gb.Fill(0.0f);
    for (int64_t i = 0; i < m; ++i) {
      const float s = Dot(w.Row(0), x.Row(i), d) + b.At(0, 0);
      const float err =
          Sigmoid(s) - static_cast<float>(y[static_cast<size_t>(i)]);
      Axpy(err * inv_m, x.Row(i), gw.Row(0), d);
      gb.At(0, 0) += err * inv_m;
    }
    gw.Axpy(config.l2, w);  // L2 penalty gradient
    opt.Step(w_slot, gw);
    opt.Step(b_slot, gb);
  }

  w_.assign(w.Row(0), w.Row(0) + d);
  b_ = b.At(0, 0);
  return Status::OK();
}

double LogisticRegression::PredictProba(const float* x) const {
  const float s =
      Dot(w_.data(), x, static_cast<int64_t>(w_.size())) + b_;
  return static_cast<double>(Sigmoid(s));
}

Status OneVsRestClassifier::Fit(const DenseMatrix& x,
                                const std::vector<int32_t>& y,
                                int num_classes,
                                const LogisticRegressionConfig& config,
                                const RunContext* ctx) {
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least two classes");
  }
  if (static_cast<int64_t>(y.size()) != x.rows()) {
    return Status::InvalidArgument("labels size mismatch");
  }
  for (int32_t label : y) {
    if (label < 0 || label >= num_classes) {
      return Status::OutOfRange("label out of range");
    }
  }
  models_.assign(static_cast<size_t>(num_classes), LogisticRegression());
  // Each class trains an independent deterministic binary model into its
  // own models_ slot, so the classes shard across the pool with no
  // reduction to order.
  ThreadPool* pool = GlobalThreadPool();
  return ParallelFor(
      pool, ctx, "eval.logreg_class", num_classes,
      ElasticShards(pool, num_classes),
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        std::vector<int> binary(y.size());
        for (int64_t c = begin; c < end; ++c) {
          COANE_RETURN_IF_STOPPED(ctx, "eval.logreg_class");
          for (size_t i = 0; i < y.size(); ++i) {
            binary[i] = (y[i] == static_cast<int32_t>(c)) ? 1 : 0;
          }
          COANE_RETURN_IF_ERROR(models_[static_cast<size_t>(c)].Fit(
              x, binary, config, ctx));
        }
        return Status::OK();
      });
}

int32_t OneVsRestClassifier::Predict(const float* x) const {
  int32_t best = 0;
  double best_score = -1.0;
  for (size_t c = 0; c < models_.size(); ++c) {
    const double score = models_[c].PredictProba(x);
    if (score > best_score) {
      best_score = score;
      best = static_cast<int32_t>(c);
    }
  }
  return best;
}

std::vector<int32_t> OneVsRestClassifier::PredictBatch(
    const DenseMatrix& x) const {
  std::vector<int32_t> out(static_cast<size_t>(x.rows()));
  for (int64_t i = 0; i < x.rows(); ++i) {
    out[static_cast<size_t>(i)] = Predict(x.Row(i));
  }
  return out;
}

}  // namespace coane
