#ifndef COANE_NN_CONTEXT_CONV_H_
#define COANE_NN_CONTEXT_CONV_H_

#include <vector>

#include "common/rng.h"
#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"
#include "nn/adam.h"
#include "walk/context_generator.h"

namespace coane {

/// CoANE's encoder (Sec. 3.2): a 1-D convolution over attribute-context
/// matrices with attributes as channels, receptive field = stride = c (no
/// overlap: each context is one unit), followed by 1-D average pooling over
/// a node's contexts:
///
///   r*_{vij} = sum( R_{vi} ⊙ Θ_j )          (conv value of context i,
///                                             filter j)
///   z_v      = mean_i r*_{vi·}              (average pooling)
///
/// Each filter Θ_j is a c x d weight matrix; per position p it holds a
/// d-vector, so the parameters are stored as c position matrices W_p of
/// shape d x d' (column j of W_p = position-p slice of filter j). Padding
/// slots contribute a zero attribute vector.
///
/// The fully-connected ablation of Fig. 6a ("each node's features in the
/// context are learned by the same parameters") shares one W across all
/// positions.
class ContextEncoder {
 public:
  enum class Kind {
    kConvolution,     // position-specific filters (CoANE)
    kFullyConnected,  // position-shared weights (Fig. 6a ablation)
  };

  /// `input_dim` = attribute dimension d; `output_dim` = embedding
  /// dimension d'. Filters are Xavier-initialized with fan_in = c*d,
  /// fan_out = d'.
  ContextEncoder(int context_size, int64_t input_dim, int64_t output_dim,
                 Kind kind, Rng* rng);

  int context_size() const { return context_size_; }
  int64_t input_dim() const { return input_dim_; }
  int64_t output_dim() const { return output_dim_; }
  Kind kind() const { return kind_; }

  /// Computes z_v into `out` (length output_dim). Nodes without contexts
  /// get the zero vector.
  void EncodeNode(const ContextSet& contexts, const SparseMatrix& x,
                  NodeId v, float* out) const;

  /// Encodes every node into an n x d' matrix.
  DenseMatrix EncodeAll(const ContextSet& contexts,
                        const SparseMatrix& x) const;

  /// Zeroed gradient buffer with the same shape as the internal one, for
  /// shard-private accumulation: each ParallelFor shard accumulates its
  /// nodes into its own buffer via AccumulateGradientInto, then the shards
  /// are folded into the internal gradient with MergeGrad *in shard order*,
  /// fixing the floating-point summation tree independently of the thread
  /// count.
  std::vector<DenseMatrix> MakeGradBuffer() const;

  /// Accumulates node v's parameter gradients, given dL/dz_v, into
  /// `grads` (a MakeGradBuffer buffer); const, so shards may run
  /// concurrently.
  void AccumulateGradientInto(const ContextSet& contexts,
                              const SparseMatrix& x, NodeId v,
                              const float* dz,
                              std::vector<DenseMatrix>* grads) const;

  /// Adds a buffer produced by MakeGradBuffer into the internal gradient.
  void MergeGrad(const std::vector<DenseMatrix>& grads);

  /// Sets the internal gradient to the batch gradient for dL/dZ = `dz`
  /// (rows indexed by node id; only batch rows are read). The result is
  /// byte-identical to ZeroGrad, then one MakeGradBuffer +
  /// AccumulateGradientInto buffer per kFixedReductionShards shard of
  /// `batch`, then MergeGrad in shard order — that full-buffer path stays
  /// the oracle — but costs what the batch touches: each shard keeps a
  /// compact row per (weight matrix, attribute) row its nodes reach, in
  /// scratch reused across calls, and one parallel pass writes every
  /// gradient row as +0 plus the shards' rows in shard order.
  void ComputeBatchGradient(const ContextSet& contexts, const SparseMatrix& x,
                            const std::vector<NodeId>& batch,
                            const DenseMatrix& dz);

  void ZeroGrad();
  void RegisterParams(AdamOptimizer* optimizer);
  void ApplyGrad(AdamOptimizer* optimizer);

  /// Position-p weight matrix W_p (d x d'); with kFullyConnected every p
  /// returns the same shared matrix. Used by the Fig. 6b filter analysis.
  const DenseMatrix& PositionWeights(int p) const;

  /// Number of distinct parameter matrices actually stored: context_size
  /// for kConvolution, 1 for kFullyConnected. Checkpointing iterates
  /// [0, num_weight_matrices()).
  int num_weight_matrices() const { return num_position_matrices(); }
  const DenseMatrix& weight_matrix(int i) const {
    return weights_[static_cast<size_t>(i)];
  }
  /// All of them, weight_matrix(0) first.
  const std::vector<DenseMatrix>& weight_matrices() const { return weights_; }
  /// Gradient of weight_matrix(i), as ApplyGrad hands it to Adam.
  const DenseMatrix& grad(int i) const {
    return grads_[static_cast<size_t>(i)];
  }
  DenseMatrix* mutable_weight_matrix(int i) {
    return &weights_[static_cast<size_t>(i)];
  }

 private:
  int num_position_matrices() const {
    return kind_ == Kind::kConvolution ? context_size_ : 1;
  }
  int position_index(int p) const {
    return kind_ == Kind::kConvolution ? p : 0;
  }

  // Calls fn(matrix, attribute, coeff) for every term of node v's
  // gradient, dW_matrix[attribute, :] += coeff * dz_v, in batch-independent
  // context -> position -> entry order.
  template <typename Fn>
  void ForEachGradTerm(const ContextSet& contexts, const SparseMatrix& x,
                       NodeId v, Fn&& fn) const;

  // One shard's scratch for ComputeBatchGradient, reused across batches.
  struct GradShard {
    // (matrix * input_dim + attribute) -> row index in `rows`; -1 when
    // untouched. Reset only on `touched` at the shard's next batch.
    std::vector<int32_t> slot;
    std::vector<int64_t> touched;
    std::vector<float> rows;  // grow-only, touched.size() x output_dim used
  };

  int context_size_;
  int64_t input_dim_;
  int64_t output_dim_;
  Kind kind_;
  std::vector<DenseMatrix> weights_;  // per position (or 1 shared), d x d'
  std::vector<DenseMatrix> grads_;
  std::vector<int> slots_;
  std::vector<GradShard> grad_shards_;
};

}  // namespace coane

#endif  // COANE_NN_CONTEXT_CONV_H_
