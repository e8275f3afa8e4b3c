#include "eval/link_prediction.h"

#include "common/logging.h"
#include "eval/logistic_regression.h"
#include "eval/metrics.h"

namespace coane {

DenseMatrix HadamardFeatures(
    const DenseMatrix& embeddings,
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  const int64_t d = embeddings.cols();
  DenseMatrix out(static_cast<int64_t>(pairs.size()), d);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const float* u = embeddings.Row(pairs[i].first);
    const float* v = embeddings.Row(pairs[i].second);
    float* row = out.Row(static_cast<int64_t>(i));
    for (int64_t j = 0; j < d; ++j) row[j] = u[j] * v[j];
  }
  return out;
}

Result<LinkPredictionResult> EvaluateLinkPrediction(
    const DenseMatrix& embeddings, const LinkSplit& split, uint64_t seed,
    const RunContext* ctx) {
  if (split.train_pos.empty() || split.train_neg.empty()) {
    return Status::InvalidArgument("split has no training pairs");
  }
  // Assemble training set: positives then negatives.
  std::vector<std::pair<NodeId, NodeId>> train_pairs = split.train_pos;
  train_pairs.insert(train_pairs.end(), split.train_neg.begin(),
                     split.train_neg.end());
  std::vector<int> train_labels(split.train_pos.size(), 1);
  train_labels.resize(train_pairs.size(), 0);

  DenseMatrix train_x = HadamardFeatures(embeddings, train_pairs);
  LogisticRegression model;
  LogisticRegressionConfig cfg;
  cfg.seed = seed;
  COANE_RETURN_IF_ERROR(model.Fit(train_x, train_labels, cfg, ctx));

  auto auc_of = [&](const std::vector<std::pair<NodeId, NodeId>>& pos,
                    const std::vector<std::pair<NodeId, NodeId>>& neg) {
    std::vector<std::pair<NodeId, NodeId>> pairs = pos;
    pairs.insert(pairs.end(), neg.begin(), neg.end());
    std::vector<int> labels(pos.size(), 1);
    labels.resize(pairs.size(), 0);
    DenseMatrix x = HadamardFeatures(embeddings, pairs);
    std::vector<double> scores(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      scores[i] = model.PredictProba(x.Row(static_cast<int64_t>(i)));
    }
    return RocAuc(scores, labels);
  };

  LinkPredictionResult result;
  COANE_RETURN_IF_STOPPED(ctx, "eval.linkpred_score");
  result.train_auc = auc_of(split.train_pos, split.train_neg);
  if (!split.val_pos.empty()) {
    COANE_RETURN_IF_STOPPED(ctx, "eval.linkpred_score");
    result.val_auc = auc_of(split.val_pos, split.val_neg);
  }
  if (!split.test_pos.empty()) {
    COANE_RETURN_IF_STOPPED(ctx, "eval.linkpred_score");
    result.test_auc = auc_of(split.test_pos, split.test_neg);
  }
  return result;
}

}  // namespace coane
