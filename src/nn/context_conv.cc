#include "nn/context_conv.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "common/status.h"
#include "la/vector_ops.h"

namespace coane {

ContextEncoder::ContextEncoder(int context_size, int64_t input_dim,
                               int64_t output_dim, Kind kind, Rng* rng)
    : context_size_(context_size),
      input_dim_(input_dim),
      output_dim_(output_dim),
      kind_(kind) {
  COANE_CHECK_GT(context_size, 0);
  COANE_CHECK_GT(input_dim, 0);
  COANE_CHECK_GT(output_dim, 0);
  const int count = num_position_matrices();
  weights_.reserve(static_cast<size_t>(count));
  grads_.reserve(static_cast<size_t>(count));
  for (int p = 0; p < count; ++p) {
    DenseMatrix w(input_dim, output_dim);
    // A filter sees c*d inputs and emits d' outputs.
    w.XavierInit(rng, static_cast<int64_t>(context_size) * input_dim,
                 output_dim);
    weights_.push_back(std::move(w));
    grads_.emplace_back(input_dim, output_dim, 0.0f);
  }
}

void ContextEncoder::EncodeNode(const ContextSet& contexts,
                                const SparseMatrix& x, NodeId v,
                                float* out) const {
  for (int64_t j = 0; j < output_dim_; ++j) out[j] = 0.0f;
  const auto& node_contexts = contexts.Contexts(v);
  if (node_contexts.empty()) return;
  for (const auto& context : node_contexts) {
    COANE_CHECK_EQ(static_cast<int>(context.size()), context_size_);
    for (int p = 0; p < context_size_; ++p) {
      const NodeId u = context[static_cast<size_t>(p)];
      if (u == kPaddingNode) continue;
      const DenseMatrix& w = weights_[static_cast<size_t>(
          position_index(p))];
      // out += x_u . W_p using x_u's sparse row.
      for (const SparseEntry& e : x.Row(u)) {
        Axpy(e.value, w.Row(e.col), out, output_dim_);
      }
    }
  }
  const float inv =
      1.0f / static_cast<float>(node_contexts.size());
  for (int64_t j = 0; j < output_dim_; ++j) out[j] *= inv;
}

DenseMatrix ContextEncoder::EncodeAll(const ContextSet& contexts,
                                      const SparseMatrix& x) const {
  DenseMatrix z(contexts.num_nodes(), output_dim_, 0.0f);
  // Row-disjoint writes: each node's embedding is a pure function of the
  // weights, so any sharding yields bit-identical output.
  ThreadPool* pool = GlobalThreadPool();
  const int64_t n = contexts.num_nodes();
  (void)ParallelFor(pool, nullptr, "nn.encode_all", n,
                    ElasticShards(pool, n),
                    [&](int64_t, int64_t begin, int64_t end) -> Status {
                      for (NodeId v = static_cast<NodeId>(begin);
                           v < static_cast<NodeId>(end); ++v) {
                        EncodeNode(contexts, x, v, z.Row(v));
                      }
                      return Status::OK();
                    });
  return z;
}

std::vector<DenseMatrix> ContextEncoder::MakeGradBuffer() const {
  std::vector<DenseMatrix> buf;
  buf.reserve(grads_.size());
  for (const DenseMatrix& g : grads_) {
    buf.emplace_back(g.rows(), g.cols(), 0.0f);
  }
  return buf;
}

template <typename Fn>
void ContextEncoder::ForEachGradTerm(const ContextSet& contexts,
                                     const SparseMatrix& x, NodeId v,
                                     Fn&& fn) const {
  const auto& node_contexts = contexts.Contexts(v);
  if (node_contexts.empty()) return;
  const float inv = 1.0f / static_cast<float>(node_contexts.size());
  for (const auto& context : node_contexts) {
    for (int p = 0; p < context_size_; ++p) {
      const NodeId u = context[static_cast<size_t>(p)];
      if (u == kPaddingNode) continue;
      // dW_p[a, :] += inv * x_u[a] * dz.
      for (const SparseEntry& e : x.Row(u)) {
        fn(position_index(p), e.col, inv * e.value);
      }
    }
  }
}

void ContextEncoder::AccumulateGradientInto(
    const ContextSet& contexts, const SparseMatrix& x, NodeId v,
    const float* dz, std::vector<DenseMatrix>* grads) const {
  ForEachGradTerm(contexts, x, v, [&](int m, int64_t a, float coeff) {
    Axpy(coeff, dz, (*grads)[static_cast<size_t>(m)].Row(a), output_dim_);
  });
}

void ContextEncoder::MergeGrad(const std::vector<DenseMatrix>& grads) {
  COANE_CHECK_EQ(grads.size(), grads_.size());
  for (size_t i = 0; i < grads_.size(); ++i) {
    grads_[i].Axpy(1.0f, grads[i]);
  }
}

void ContextEncoder::ComputeBatchGradient(const ContextSet& contexts,
                                          const SparseMatrix& x,
                                          const std::vector<NodeId>& batch,
                                          const DenseMatrix& dz) {
  const int64_t d = output_dim_;
  const int64_t keys =
      static_cast<int64_t>(num_position_matrices()) * input_dim_;
  if (grad_shards_.empty()) {
    grad_shards_.resize(static_cast<size_t>(kFixedReductionShards));
    for (GradShard& s : grad_shards_) {
      s.slot.assign(static_cast<size_t>(keys), -1);
    }
  }
  ThreadPool* pool = GlobalThreadPool();
  const int64_t batch_size = static_cast<int64_t>(batch.size());
  // Pass 1: the full-buffer path's shards over the batch, each adding its
  // terms into compact rows with the same Axpy sequence. A row is zeroed
  // when first touched, so it holds exactly the full buffer's row.
  (void)ParallelFor(
      pool, nullptr, "train.encoder_grad", batch_size,
      kFixedReductionShards,
      [&](int64_t shard, int64_t begin, int64_t end) -> Status {
        GradShard& s = grad_shards_[static_cast<size_t>(shard)];
        for (int64_t key : s.touched) s.slot[static_cast<size_t>(key)] = -1;
        s.touched.clear();
        for (int64_t b = begin; b < end; ++b) {
          const NodeId v = batch[static_cast<size_t>(b)];
          const float* dz_v = dz.Row(v);
          ForEachGradTerm(contexts, x, v, [&](int m, int64_t a, float coeff) {
            const int64_t key = m * input_dim_ + a;
            int32_t& slot = s.slot[static_cast<size_t>(key)];
            if (slot < 0) {
              slot = static_cast<int32_t>(s.touched.size());
              s.touched.push_back(key);
              const size_t need = s.touched.size() * static_cast<size_t>(d);
              if (s.rows.size() < need) s.rows.resize(need);
              std::fill_n(s.rows.data() + need - d, d, 0.0f);
            }
            Axpy(coeff, dz_v, s.rows.data() + static_cast<int64_t>(slot) * d,
                 d);
          });
        }
        return Status::OK();
      });
  // Pass 2: per gradient row, +0 then each shard's row in shard order —
  // MergeGrad's per-element sum without its untouched +0 terms, which
  // never change a sum that started at +0. Rows are disjoint, so any
  // sharding of this pass gives the same bytes. Shards past the batch
  // size never ran and hold stale slots, so they are skipped.
  const int64_t ran = std::min(kFixedReductionShards, batch_size);
  (void)ParallelFor(
      pool, nullptr, "train.encoder_grad_merge", keys,
      ElasticShards(pool, keys),
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        for (int64_t key = begin; key < end; ++key) {
          float* out = grads_[static_cast<size_t>(key / input_dim_)].Row(
              key % input_dim_);
          std::fill_n(out, d, 0.0f);
          for (int64_t shard = 0; shard < ran; ++shard) {
            const GradShard& s = grad_shards_[static_cast<size_t>(shard)];
            const int32_t slot = s.slot[static_cast<size_t>(key)];
            if (slot >= 0) {
              Axpy(1.0f, s.rows.data() + static_cast<int64_t>(slot) * d, out,
                   d);
            }
          }
        }
        return Status::OK();
      });
}

void ContextEncoder::ZeroGrad() {
  for (DenseMatrix& g : grads_) g.Fill(0.0f);
}

void ContextEncoder::RegisterParams(AdamOptimizer* optimizer) {
  slots_.clear();
  for (DenseMatrix& w : weights_) slots_.push_back(optimizer->Register(&w));
}

void ContextEncoder::ApplyGrad(AdamOptimizer* optimizer) {
  COANE_CHECK_EQ(slots_.size(), weights_.size());
  for (size_t i = 0; i < weights_.size(); ++i) {
    optimizer->Step(slots_[i], grads_[i]);
  }
}

const DenseMatrix& ContextEncoder::PositionWeights(int p) const {
  COANE_CHECK_GE(p, 0);
  COANE_CHECK_LT(p, context_size_);
  return weights_[static_cast<size_t>(position_index(p))];
}

}  // namespace coane
