#include "core/objective.h"

#include "common/logging.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "la/vector_ops.h"

namespace coane {

BatchLosses ParallelBatchObjective(
    const DenseMatrix& z,
    const std::vector<std::vector<PositivePair>>* pairs, bool split_lr,
    const std::vector<std::vector<NodeId>>* negatives, float negative_weight,
    const std::vector<NodeId>& batch,
    const std::vector<uint8_t>& /*in_batch*/, DenseMatrix* dz) {
  const int64_t d = z.cols();
  const int64_t half = d / 2;
  COANE_CHECK(pairs == nullptr || !split_lr || d % 2 == 0);
  const int64_t dot_dim = split_lr ? half : d;
  const int64_t batch_size = static_cast<int64_t>(batch.size());

  // Node id -> batch position, so shard-private gradient buffers can be
  // indexed by batch slot instead of node id (|batch| x d, not n x d).
  std::vector<int32_t> batch_pos(static_cast<size_t>(z.rows()), -1);
  for (int64_t b = 0; b < batch_size; ++b) {
    batch_pos[static_cast<size_t>(batch[static_cast<size_t>(b)])] =
        static_cast<int32_t>(b);
  }

  struct ShardAcc {
    DenseMatrix dzb;
    double positive = 0.0;
    double negative = 0.0;
  };
  // Fixed shard count: the summation tree below must not depend on how
  // many workers the pool happens to have.
  const int64_t num_shards = kFixedReductionShards;
  std::vector<ShardAcc> shards(static_cast<size_t>(num_shards));

  ThreadPool* pool = GlobalThreadPool();
  (void)ParallelFor(
      pool, nullptr, "train.batch_objective", batch_size, num_shards,
      [&](int64_t shard, int64_t begin, int64_t end) -> Status {
        ShardAcc& acc = shards[static_cast<size_t>(shard)];
        acc.dzb = DenseMatrix(batch_size, d, 0.0f);
        for (int64_t b = begin; b < end; ++b) {
          const NodeId i = batch[static_cast<size_t>(b)];
          if (pairs != nullptr) {
            for (const PositivePair& p : (*pairs)[static_cast<size_t>(i)]) {
              const NodeId j = p.j;
              if (j == i) continue;
              const float* li = z.Row(i);
              const float* rj = split_lr ? z.Row(j) + half : z.Row(j);
              const float s = Dot(li, rj, dot_dim);
              acc.positive -= static_cast<double>(p.weight) * LogSigmoid(s);
              const float coeff = -p.weight * (1.0f - Sigmoid(s));
              Axpy(coeff, rj, acc.dzb.Row(b), dot_dim);
              const int32_t bj = batch_pos[static_cast<size_t>(j)];
              if (bj >= 0) {
                float* drj = split_lr ? acc.dzb.Row(bj) + half
                                      : acc.dzb.Row(bj);
                Axpy(coeff, li, drj, dot_dim);
              }
            }
          }
          if (negatives != nullptr) {
            for (NodeId j : (*negatives)[static_cast<size_t>(b)]) {
              if (j == i) continue;
              const float s = Dot(z.Row(i), z.Row(j), d);
              acc.negative +=
                  static_cast<double>(negative_weight) * s * s;
              const float coeff = 2.0f * negative_weight * s;
              Axpy(coeff, z.Row(j), acc.dzb.Row(b), d);
              const int32_t bj = batch_pos[static_cast<size_t>(j)];
              if (bj >= 0) {
                Axpy(coeff, z.Row(i), acc.dzb.Row(bj), d);
              }
            }
          }
        }
        return Status::OK();
      });

  // Ordered reduction: fold shard buffers and loss sums in shard order.
  BatchLosses losses;
  for (const ShardAcc& acc : shards) {
    if (acc.dzb.rows() == 0) continue;  // shard never ran (batch < shards)
    for (int64_t b = 0; b < batch_size; ++b) {
      Axpy(1.0f, acc.dzb.Row(b), dz->Row(batch[static_cast<size_t>(b)]), d);
    }
    losses.positive += acc.positive;
    losses.negative += acc.negative;
  }
  return losses;
}

}  // namespace coane
