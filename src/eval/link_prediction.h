#ifndef COANE_EVAL_LINK_PREDICTION_H_
#define COANE_EVAL_LINK_PREDICTION_H_

#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "graph/edge_split.h"
#include "la/dense_matrix.h"

namespace coane {

/// AUC of the link-prediction protocol of Sec. 4.2: Hadamard products of
/// endpoint embeddings as pair features, logistic-regression classifier
/// trained on the training positives/negatives, AUC on each split.
struct LinkPredictionResult {
  double train_auc = 0.0;
  double val_auc = 0.0;
  double test_auc = 0.0;
};

/// Evaluates embeddings (trained on split.train_graph by the caller) on the
/// given split. `ctx` (optional) bounds the classifier fit and is checked
/// before each split is scored.
Result<LinkPredictionResult> EvaluateLinkPrediction(
    const DenseMatrix& embeddings, const LinkSplit& split,
    uint64_t seed = 42, const RunContext* ctx = nullptr);

/// Hadamard (elementwise product) pair features for a list of node pairs.
DenseMatrix HadamardFeatures(
    const DenseMatrix& embeddings,
    const std::vector<std::pair<NodeId, NodeId>>& pairs);

}  // namespace coane

#endif  // COANE_EVAL_LINK_PREDICTION_H_
