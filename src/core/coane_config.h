#ifndef COANE_CORE_COANE_CONFIG_H_
#define COANE_CORE_COANE_CONFIG_H_

#include <cstdint>
#include <vector>

#include "graph/attr_impute.h"
#include "nn/context_conv.h"

namespace coane {

/// How contextually negative samples are drawn (Sec. 3.3.2). The paper uses
/// pre-sampling on denser graphs (WebKB, Flickr) and batch-sampling on
/// sparser ones (Cora, Citeseer, Pubmed). kUniform is the "NS" ablation of
/// Fig. 6c.
enum class NegativeSamplingMode { kPreSampled, kBatch, kUniform };

/// Every hyperparameter of CoANE (Sec. 4.1 defaults) plus the ablation
/// switches exercised by Fig. 6.
struct CoaneConfig {
  // --- Structural context generation (Sec. 3.1).
  int num_walks = 1;          // r; the paper shows r = 1 suffices (Fig. 4b)
  int walk_length = 80;       // l
  int context_size = 5;       // c, odd
  double subsample_t = 1e-5;  // t; negative disables subsampling

  // --- Model (Sec. 3.2).
  int64_t embedding_dim = 128;  // d'; must be even (Z = [L | R])
  /// kConvolution is CoANE; kFullyConnected is the Fig. 6a "FC layer"
  /// ablation that shares one weight matrix across context positions.
  ContextEncoder::Kind encoder_kind = ContextEncoder::Kind::kConvolution;

  // --- Objective (Sec. 3.3).
  int num_negative = 20;          // k
  float negative_weight = 1e-3f;  // a in Eq. (3), tuned in [1e-5, 1e-1]
  float attribute_gamma = 1e5f;   // gamma in Eq. (4), tuned in [1e3, 1e7]
  NegativeSamplingMode negative_mode = NegativeSamplingMode::kBatch;
  /// Decoder hidden widths; the paper stacks two ReLU hidden layers.
  std::vector<int64_t> decoder_hidden = {256, 256};

  // --- Design-choice switches (Sec. 3.3.1 discussion; ablated by
  // bench_ablation_design rather than a paper figure).
  /// Paper's choice: D~ = normalize(D) + D^1, which boosts one-hop
  /// neighbors. Setting this true uses normalize(D + D^1) instead — the
  /// alternative the paper explicitly argues against.
  bool dtilde_normalize_after_add = false;
  /// Paper's choice: keep only each row's top-k_p strongest positive
  /// pairs (k_p = max_v |context(v)|) to suppress noisy rare
  /// co-occurrences. Setting this false keeps every pair.
  bool positive_topk = true;

  // --- Ablation switches (Fig. 6c names in comments).
  bool use_positive_loss = true;   // false = WP
  bool skipgram_positive = false;  // true  = SG (plain dot-product pairs)
  bool use_negative_loss = true;   // false = WN
  bool use_attribute_loss = true;  // false = WAP
  /// false = WF: node attributes are replaced by one-hot identity rows, so
  /// only structure is available.
  bool use_attributes = true;

  // --- Robustness (crash-safe training; DESIGN.md "Crash-safe training").
  /// Per-batch finite-ness checks on the three loss terms and on dL/dZ.
  /// Leave on: the checks are O(batch gradient) and gate the
  /// divergence-recovery policy below.
  bool check_numerics = true;
  /// Frobenius-norm threshold for clipping the batch gradient dL/dZ
  /// before it reaches the encoder; 0 disables clipping.
  float grad_clip_norm = 0.0f;
  /// When a batch produces a non-finite loss or gradient, the epoch is
  /// rolled back to its in-memory snapshot, the learning rate is
  /// multiplied by a fixed 0.5, and the epoch is retried — at most
  /// divergence_max_retries times before training fails with a clean
  /// error instead of NaN embeddings.
  int divergence_max_retries = 2;

  // --- Degraded inputs (DESIGN.md "Degraded inputs").
  /// How Preprocess materializes attribute rows the observation mask
  /// marks missing (see graph/attr_impute.h). kZero reproduces the
  /// pre-mask numbers exactly; kNeighbor is the Hou et al. estimate. The
  /// policy is part of the config fingerprint: a resume under a different
  /// policy is rejected, because it would train on different features.
  MissingAttrPolicy missing_attrs = MissingAttrPolicy::kZero;

  // --- Optimization (Sec. 3.3.4).
  int max_epochs = 5;
  int batch_size = 256;
  float learning_rate = 0.001f;
  /// Pool size for pre-sampled negatives, as a multiple of num_negative.
  int presample_pool_factor = 50;

  uint64_t seed = 42;
};

}  // namespace coane

#endif  // COANE_CORE_COANE_CONFIG_H_
