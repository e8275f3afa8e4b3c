#include "core/coane_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/objective.h"
#include "graph/attr_impute.h"
#include "la/vector_ops.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "walk/random_walk.h"

namespace coane {
namespace {

// Each divergence retry multiplies the epoch's learning rate by this.
constexpr float kDivergenceLrDecay = 0.5f;

Status ValidateConfig(const CoaneConfig& c) {
  if (c.context_size < 1 || c.context_size % 2 == 0) {
    return Status::InvalidArgument("context_size must be odd and >= 1");
  }
  if (c.embedding_dim < 2 || c.embedding_dim % 2 != 0) {
    return Status::InvalidArgument("embedding_dim must be even and >= 2");
  }
  if (c.num_walks < 1 || c.walk_length < 1) {
    return Status::InvalidArgument("walk parameters must be positive");
  }
  if (c.num_negative < 0) {
    return Status::InvalidArgument("num_negative must be non-negative");
  }
  if (c.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (c.max_epochs < 0) {
    return Status::InvalidArgument("max_epochs must be non-negative");
  }
  if (c.use_positive_loss && c.skipgram_positive &&
      c.embedding_dim % 2 != 0) {
    return Status::InvalidArgument("embedding_dim must be even");
  }
  if (c.grad_clip_norm < 0.0f) {
    return Status::InvalidArgument("grad_clip_norm must be non-negative");
  }
  if (c.divergence_max_retries < 0) {
    return Status::InvalidArgument(
        "divergence_max_retries must be non-negative");
  }
  return Status::OK();
}

// One-hot identity features for the WF (no attributes) ablation.
SparseMatrix IdentityFeatures(int64_t n) {
  std::vector<SparseMatrix::Triplet> triplets;
  triplets.reserve(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) triplets.push_back({v, v, 1.0f});
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

}  // namespace

CoaneModel::CoaneModel(const Graph& graph, const CoaneConfig& config)
    : graph_(graph), config_(config), rng_(config.seed) {}

Status CoaneModel::Preprocess(const RunContext* ctx) {
  COANE_RETURN_IF_ERROR(ValidateConfig(config_));
  if (config_.use_attributes && graph_.num_attributes() == 0) {
    return Status::FailedPrecondition(
        "graph has no attributes; set use_attributes = false");
  }
  if (config_.use_attributes) {
    // Materialize the training features through the imputation stage: a
    // complete graph passes through unchanged, a masked one has its
    // missing rows/cells filled per config_.missing_attrs (or rejected).
    // The mask fingerprint rides along into every checkpoint.
    auto imputed = ImputeMissingAttributes(graph_, config_.missing_attrs);
    if (!imputed.ok()) return imputed.status();
    features_ = std::move(imputed).ValueOrDie();
    data_fingerprint_ = AttrMaskFingerprint(graph_);
  } else {
    features_ = IdentityFeatures(graph_.num_nodes());
    data_fingerprint_ = 0;
  }

  // --- Structural contexts (Sec. 3.1).
  RandomWalkConfig walk_cfg;
  walk_cfg.num_walks_per_node = config_.num_walks;
  walk_cfg.walk_length = config_.walk_length;
  auto walks = GenerateRandomWalks(graph_, walk_cfg, &rng_, ctx);
  if (!walks.ok()) return walks.status();

  ContextOptions ctx_opt;
  ctx_opt.context_size = config_.context_size;
  ctx_opt.subsample_t = config_.subsample_t;
  auto contexts = GenerateContexts(walks.value(), graph_.num_nodes(),
                                   ctx_opt, &rng_, ctx);
  if (!contexts.ok()) return contexts.status();
  contexts_ = std::make_unique<ContextSet>(std::move(contexts).ValueOrDie());

  // --- Co-occurrence statistics (Sec. 3.1 / 3.3.1).
  cooccurrence_ = BuildCooccurrence(graph_, *contexts_);
  if (config_.dtilde_normalize_after_add) {
    // Design ablation: normalize(D + D^1) instead of normalize(D) + D^1 —
    // drops the paper's extra one-hop emphasis.
    cooccurrence_.d_tilde =
        SparseMatrix::Add(cooccurrence_.d, cooccurrence_.d1)
            .RowNormalized();
  }
  if (config_.skipgram_positive) {
    // SG ablation: every observed pair with its raw count, full-vector dots.
    positive_pairs_ = TopKPositivePairs(cooccurrence_.d,
                                        graph_.num_nodes());
  } else {
    const int64_t k = config_.positive_topk ? cooccurrence_.k_p
                                            : graph_.num_nodes();
    positive_pairs_ = TopKPositivePairs(cooccurrence_.d_tilde, k);
  }

  // --- Negative sampler (Sec. 3.3.2).
  switch (config_.negative_mode) {
    case NegativeSamplingMode::kPreSampled: {
      const int64_t pool = std::max<int64_t>(
          static_cast<int64_t>(config_.num_negative) *
              config_.presample_pool_factor,
          256);
      negative_sampler_ = std::make_unique<PreSampledNegativeSampler>(
          *contexts_, &cooccurrence_.d, pool, &rng_);
      break;
    }
    case NegativeSamplingMode::kBatch:
      negative_sampler_ = std::make_unique<BatchNegativeSampler>(
          *contexts_, &cooccurrence_.d);
      break;
    case NegativeSamplingMode::kUniform:
      negative_sampler_ =
          std::make_unique<UniformNegativeSampler>(graph_.num_nodes());
      break;
  }

  // --- Model parameters (Xavier-initialized).
  encoder_ = std::make_unique<ContextEncoder>(
      config_.context_size, features_.cols(), config_.embedding_dim,
      config_.encoder_kind, &rng_);
  encoder_->RegisterParams(&optimizer_);
  if (config_.use_attribute_loss) {
    std::vector<int64_t> dims;
    dims.push_back(config_.embedding_dim);
    for (int64_t h : config_.decoder_hidden) dims.push_back(h);
    dims.push_back(features_.cols());
    decoder_ = std::make_unique<Mlp>(dims, &rng_);
    decoder_->RegisterParams(&optimizer_);
  }
  optimizer_.set_learning_rate(config_.learning_rate);

  z_ = DenseMatrix(graph_.num_nodes(), config_.embedding_dim, 0.0f);
  dz_ = DenseMatrix(graph_.num_nodes(), config_.embedding_dim, 0.0f);
  in_batch_.assign(static_cast<size_t>(graph_.num_nodes()), 0);
  RenewEmbeddings();
  preprocessed_ = true;
  return Status::OK();
}

Result<std::vector<EpochStats>> CoaneModel::Train(const RunContext* ctx) {
  std::vector<EpochStats> history;
  while (epochs_done_ < config_.max_epochs) {
    auto stats = TrainEpoch(ctx);
    if (!stats.ok()) return stats.status();
    history.push_back(stats.value());
  }
  return history;
}

Result<EpochStats> CoaneModel::TrainEpoch(const RunContext* ctx) {
  COANE_RETURN_IF_ERROR(RequirePreprocessed("TrainEpoch"));
  // Divergence-recovery policy: snapshot the mutable state, and on a
  // non-finite batch roll back, decay the learning rate, and retry the
  // epoch — bounded, then fail cleanly instead of emitting NaN embeddings.
  // The snapshot is this model's own capture, so re-adopting it cannot fail.
  const TrainingCheckpoint snapshot = CaptureState();
  const float base_lr = optimizer_.config().learning_rate;
  for (int attempt = 0;; ++attempt) {
    auto stats = TrainEpochOnce(ctx);
    if (stats.ok()) return stats;
    if (stats.status().code() != StatusCode::kInternal) {
      // A cancel/deadline stop mid-epoch also rolls back to the epoch
      // boundary: the model then sits exactly at `epochs_done_` completed
      // epochs, so a checkpoint taken now resumes bit-identically.
      const StatusCode code = stats.status().code();
      if (code == StatusCode::kCancelled ||
          code == StatusCode::kDeadlineExceeded ||
          code == StatusCode::kResourceExhausted) {
        COANE_RETURN_IF_ERROR(
            AdoptState(snapshot, /*with_rng=*/true, "the epoch snapshot"));
      }
      return stats.status();
    }
    COANE_RETURN_IF_ERROR(
        AdoptState(snapshot, /*with_rng=*/true, "the epoch snapshot"));
    if (attempt >= config_.divergence_max_retries) {
      return Status::Internal(
          "training diverged at epoch " + std::to_string(epochs_done_ + 1) +
          " and did not recover after " + std::to_string(attempt) +
          " retry(ies); model rolled back to the epoch-start state: " +
          stats.status().message());
    }
    const float lr = base_lr * std::pow(kDivergenceLrDecay,
                                        static_cast<float>(attempt + 1));
    optimizer_.set_learning_rate(lr);
    COANE_LOG(Warning) << "epoch " << (epochs_done_ + 1)
                       << " diverged (" << stats.status().message()
                       << "); rolled back, retrying with lr " << lr;
  }
}

Result<EpochStats> CoaneModel::TrainEpochOnce(const RunContext* ctx) {
  Stopwatch watch;
  EpochStats stats;
  stats.epoch = epochs_done_ + 1;

  // RandomlySplitBatch: shuffle nodes, carve into batches of n_B.
  std::vector<NodeId> order(static_cast<size_t>(graph_.num_nodes()));
  std::iota(order.begin(), order.end(), 0);
  rng_.Shuffle(&order);
  for (size_t start = 0; start < order.size();
       start += static_cast<size_t>(config_.batch_size)) {
    // Unit of work = one batch; TrainEpoch rolls the partial epoch back.
    COANE_RETURN_IF_STOPPED(ctx, "train.batch");
    if (ctx != nullptr) ctx->ChargeWork(1);
    const size_t end = std::min(
        order.size(), start + static_cast<size_t>(config_.batch_size));
    std::vector<NodeId> batch(order.begin() + static_cast<int64_t>(start),
                              order.begin() + static_cast<int64_t>(end));
    COANE_RETURN_IF_ERROR(TrainBatch(batch, &stats));
  }
  RenewEmbeddings();
  stats.total_loss =
      stats.positive_loss + stats.negative_loss + stats.attribute_loss;
  stats.seconds = watch.ElapsedSeconds();
  ++epochs_done_;
  return stats;
}

Status CoaneModel::TrainBatch(const std::vector<NodeId>& batch,
                              EpochStats* stats) {
  ThreadPool* pool = GlobalThreadPool();
  const int64_t batch_size = static_cast<int64_t>(batch.size());

  const int64_t dim = z_.cols();

  // --- Embedding Updating: refresh z_v for batch nodes from the encoder,
  // and zero their dL/dz_v rows — the only rows of dz_ this batch writes
  // or reads. Row-disjoint writes (each batch node owns its z_ and dz_ rows
  // and its in_batch_ flag), so elastic sharding stays bit-identical.
  (void)ParallelFor(
      pool, nullptr, "train.batch_encode", batch_size,
      ElasticShards(pool, batch_size),
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        for (int64_t b = begin; b < end; ++b) {
          const NodeId v = batch[static_cast<size_t>(b)];
          encoder_->EncodeNode(*contexts_, features_, v, z_.Row(v));
          std::fill_n(dz_.Row(v), dim, 0.0f);
          in_batch_[static_cast<size_t>(v)] = 1;
        }
        return Status::OK();
      });
  // Whatever happens below, batch-membership flags must not leak into the
  // next batch.
  struct FlagReset {
    const std::vector<NodeId>& batch;
    std::vector<uint8_t>& flags;
    ~FlagReset() {
      for (NodeId v : batch) flags[static_cast<size_t>(v)] = 0;
    }
  } flag_reset{batch, in_batch_};

  // --- Loss Updating. Negatives are drawn from rng_ on this thread, in
  // batch order — exactly the draws the sequential loop made — so the
  // checkpointed RNG stream stays bit-identical under parallelism. The
  // losses themselves run sharded with ordered reduction (objective.h).
  std::vector<std::vector<NodeId>> negatives;
  const bool use_negative =
      config_.use_negative_loss && config_.num_negative > 0;
  if (use_negative) {
    negatives.resize(batch.size());
    for (size_t b = 0; b < batch.size(); ++b) {
      negatives[b] = negative_sampler_->Sample(
          batch[b], config_.num_negative, batch, &rng_);
    }
  }
  const BatchLosses losses = ParallelBatchObjective(
      z_, config_.use_positive_loss ? &positive_pairs_ : nullptr,
      /*split_lr=*/!config_.skipgram_positive,
      use_negative ? &negatives : nullptr, config_.negative_weight, batch,
      in_batch_, &dz_);
  double positive = losses.positive, negative = losses.negative,
         attribute = 0.0;

  if (config_.use_attribute_loss) {
    decoder_->ZeroGrad();
    // L_att = gamma * MSE(MLP(z_batch), X_batch).
    std::vector<int64_t> rows(batch.begin(), batch.end());
    DenseMatrix z_batch = z_.SelectRows(rows);
    DenseMatrix x_batch = BatchFeatures(batch);
    DenseMatrix x_hat = decoder_->Forward(z_batch);
    DenseMatrix dx_hat;
    const double mse = MseLoss(x_hat, x_batch, &dx_hat);
    attribute = config_.attribute_gamma * mse;
    dx_hat.Scale(config_.attribute_gamma);
    DenseMatrix dz_batch = decoder_->Backward(dx_hat);
    for (size_t b = 0; b < batch.size(); ++b) {
      Axpy(1.0f, dz_batch.Row(static_cast<int64_t>(b)),
           dz_.Row(batch[b]), dim);
    }
  }

  if (fault::ShouldFail("train.batch_grad")) {
    // Simulated divergence: poison the batch gradient exactly like an
    // overflowing loss term would.
    dz_.Row(batch.front())[0] = std::numeric_limits<float>::quiet_NaN();
  }

  // --- Numerical health: reject the batch before any parameter is
  // stepped, so rollback only ever has to undo whole epochs.
  if (config_.check_numerics) {
    if (!std::isfinite(positive) || !std::isfinite(negative) ||
        !std::isfinite(attribute)) {
      return Status::Internal("non-finite loss (L_pos=" +
                              std::to_string(positive) + ", L_neg=" +
                              std::to_string(negative) + ", L_att=" +
                              std::to_string(attribute) + ")");
    }
    for (NodeId v : batch) {
      const float* row = dz_.Row(v);
      if (!std::all_of(row, row + dim,
                       [](float g) { return std::isfinite(g); })) {
        return Status::Internal("non-finite batch gradient dL/dZ");
      }
    }
  }
  if (config_.grad_clip_norm > 0.0f) {
    // dL/dZ is zero outside the batch rows (dz_ keeps stale rows there,
    // never read), so summing the batch rows in ascending node-id order is
    // the full n x d' matrix's row-major Frobenius sum to the last bit.
    std::vector<NodeId> rows(batch);
    std::sort(rows.begin(), rows.end());
    double sum = 0.0;
    for (NodeId v : rows) {
      const float* row = dz_.Row(v);
      for (int64_t j = 0; j < dim; ++j) {
        sum += static_cast<double>(row[j]) * row[j];
      }
    }
    const double norm = std::sqrt(sum);
    if (norm > config_.grad_clip_norm) {
      const float scale = static_cast<float>(config_.grad_clip_norm / norm);
      for (NodeId v : rows) {
        float* row = dz_.Row(v);
        for (int64_t j = 0; j < dim; ++j) row[j] *= scale;
      }
    }
  }

  // --- Backprop dL/dz through the encoder for batch nodes and step. The
  // encoder reduces over a fixed shard count in shard order, so the
  // parameter gradient handed to Adam — and every checkpoint taken after
  // the step — is bit-identical at every thread count.
  encoder_->ComputeBatchGradient(*contexts_, features_, batch, dz_);
  encoder_->ApplyGrad(&optimizer_);
  if (config_.use_attribute_loss) decoder_->ApplyGrad(&optimizer_);

  stats->positive_loss += positive;
  stats->negative_loss += negative;
  stats->attribute_loss += attribute;
  return Status::OK();
}

void CoaneModel::RenewEmbeddings() {
  // Row-disjoint writes; z_v is a pure function of the weights, so any
  // sharding yields the same matrix.
  ThreadPool* pool = GlobalThreadPool();
  const int64_t n = graph_.num_nodes();
  (void)ParallelFor(pool, nullptr, "train.renew", n, ElasticShards(pool, n),
                    [&](int64_t, int64_t begin, int64_t end) -> Status {
                      for (NodeId v = static_cast<NodeId>(begin);
                           v < static_cast<NodeId>(end); ++v) {
                        encoder_->EncodeNode(*contexts_, features_, v,
                                             z_.Row(v));
                      }
                      return Status::OK();
                    });
}

DenseMatrix CoaneModel::BatchFeatures(
    const std::vector<NodeId>& batch) const {
  DenseMatrix x(static_cast<int64_t>(batch.size()), features_.cols(), 0.0f);
  for (size_t b = 0; b < batch.size(); ++b) {
    float* row = x.Row(static_cast<int64_t>(b));
    for (const SparseEntry& e : features_.Row(batch[b])) {
      row[e.col] = e.value;
    }
  }
  return x;
}

Status CoaneModel::RequirePreprocessed(const char* method) const {
  if (preprocessed_) return Status::OK();
  return Status::FailedPrecondition(std::string("call Preprocess() before ") +
                                    method + "()");
}

TrainingCheckpoint CoaneModel::CaptureState() const {
  TrainingCheckpoint state;
  state.epochs_done = epochs_done_;
  state.learning_rate = optimizer_.config().learning_rate;
  state.config_fingerprint = ConfigFingerprint(config_);
  state.data_fingerprint = data_fingerprint_;
  state.rng_state = rng_.SerializeState();
  state.encoder = encoder_->weight_matrices();
  if (decoder_) state.decoder = CaptureMlpWeights(*decoder_);
  state.adam = CaptureAdamState(optimizer_);
  return state;
}

Status CoaneModel::AdoptState(const TrainingCheckpoint& state, bool with_rng,
                              const std::string& source) {
  // Everything that can fail is checked before anything is written, so
  // the copy below cannot stop halfway and no backup is needed.
  Rng rng;
  if (with_rng && !rng.DeserializeState(state.rng_state)) {
    return Status::DataLoss("corrupt RNG section in " + source);
  }
  const size_t matrices = static_cast<size_t>(encoder_->num_weight_matrices());
  const size_t layers = decoder_ ? decoder_->num_layers() : 0;
  const size_t slots = static_cast<size_t>(optimizer_.num_slots());
  if (state.encoder.size() != matrices || state.decoder.size() != layers ||
      state.adam.size() != slots) {
    return Status::DataLoss("matrix, layer or slot count differs from the "
                            "model's in " + source);
  }
  std::vector<std::pair<const DenseMatrix*, DenseMatrix*>> copies;
  for (size_t i = 0; i < matrices; ++i) {
    copies.emplace_back(&state.encoder[i],
                        encoder_->mutable_weight_matrix(static_cast<int>(i)));
  }
  for (size_t i = 0; i < layers; ++i) {
    Linear& layer = decoder_->mutable_layer(i);
    copies.emplace_back(&state.decoder[i].weight, layer.mutable_weight());
    copies.emplace_back(&state.decoder[i].bias, layer.mutable_bias());
  }
  for (size_t i = 0; i < slots; ++i) {
    const int slot = static_cast<int>(i);
    copies.emplace_back(&state.adam[i].m,
                        optimizer_.mutable_slot_moment1(slot));
    copies.emplace_back(&state.adam[i].v,
                        optimizer_.mutable_slot_moment2(slot));
  }
  for (const auto& [from, to] : copies) {
    if (!from->SameShape(*to)) {
      return Status::DataLoss(
          "matrix shape mismatch: " + std::to_string(from->rows()) + "x" +
          std::to_string(from->cols()) + " where the model has " +
          std::to_string(to->rows()) + "x" + std::to_string(to->cols()) +
          " in " + source);
    }
  }

  if (with_rng) rng_ = rng;
  for (const auto& [from, to] : copies) *to = *from;
  for (size_t i = 0; i < slots; ++i) {
    optimizer_.set_slot_step(static_cast<int>(i), state.adam[i].step);
  }
  optimizer_.set_learning_rate(state.learning_rate);
  RenewEmbeddings();
  return Status::OK();
}

Status CoaneModel::SaveCheckpoint(const std::string& path,
                                  const RetryPolicy* retry) const {
  COANE_RETURN_IF_ERROR(RequirePreprocessed("SaveCheckpoint"));
  const TrainingCheckpoint ckpt = CaptureState();
  if (retry == nullptr) return WriteCheckpointFile(path, ckpt);
  // The serialized state is assembled once; only the write retries.
  return RetryOp(*retry, nullptr, "checkpoint.write",
                 [&](const RunContext*) {
                   return WriteCheckpointFile(path, ckpt);
                 });
}

Status CoaneModel::LoadCheckpoint(const std::string& path) {
  COANE_RETURN_IF_ERROR(RequirePreprocessed("LoadCheckpoint"));
  auto loaded = ReadCheckpointFile(path);
  if (!loaded.ok()) return loaded.status();
  const TrainingCheckpoint& ckpt = loaded.value();
  if (ckpt.config_fingerprint != ConfigFingerprint(config_)) {
    return Status::FailedPrecondition(
        "checkpoint " + path +
        " was written under a different configuration");
  }
  // A recorded 0 means "pre-field file / complete data" and is accepted;
  // any other value must match this model's mask exactly — resuming
  // against differently-degraded data would train on different features.
  if (ckpt.data_fingerprint != 0 &&
      ckpt.data_fingerprint != data_fingerprint_) {
    return Status::FailedPrecondition(
        "checkpoint " + path +
        " was written against differently-masked attribute data");
  }
  COANE_RETURN_IF_ERROR(AdoptState(ckpt, /*with_rng=*/true, path));
  // ReadCheckpointFile bounds epochs_done to [0, INT32_MAX].
  epochs_done_ = static_cast<int>(ckpt.epochs_done);
  return Status::OK();
}

Status CoaneModel::WarmStartFrom(const TrainingCheckpoint& ckpt) {
  COANE_RETURN_IF_ERROR(RequirePreprocessed("WarmStartFrom"));
  // No config/data-fingerprint checks: warm-starting across a mutation
  // batch legitimately crosses mask (and log-position) fingerprints.
  // Shape mismatches are still caught section by section.
  COANE_RETURN_IF_ERROR(
      AdoptState(ckpt, /*with_rng=*/false, "warm-start state"));
  epochs_done_ = 0;  // config.max_epochs now bounds the refinement budget
  return Status::OK();
}

Status CoaneModel::ApplyAveragedState(const TrainingCheckpoint& merged) {
  COANE_RETURN_IF_ERROR(RequirePreprocessed("ApplyAveragedState"));
  if (merged.data_fingerprint != 0 &&
      merged.data_fingerprint != data_fingerprint_) {
    return Status::FailedPrecondition(
        "merged state was averaged over differently-masked attribute data");
  }
  if (merged.epochs_done != epochs_done_) {
    return Status::FailedPrecondition(
        "merged state is at epoch " + std::to_string(merged.epochs_done) +
        " but this model is at epoch " + std::to_string(epochs_done_) +
        " — merges apply only at matching round boundaries");
  }
  return AdoptState(merged, /*with_rng=*/false, "merged state");
}

Result<DenseMatrix> TrainCoaneEmbeddings(const Graph& graph,
                                         const CoaneConfig& config,
                                         const RunContext* ctx) {
  CoaneModel model(graph, config);
  COANE_RETURN_IF_ERROR(model.Preprocess(ctx));
  auto stats = model.Train(ctx);
  if (!stats.ok()) return stats.status();
  return model.embeddings();
}

}  // namespace coane
