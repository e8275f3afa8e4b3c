#include "replay.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "core/objective.h"
#include "graph/attr_impute.h"
#include "la/vector_ops.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "walk/random_walk.h"

namespace perfbench {

using coane::DenseMatrix;
using coane::NodeId;
using coane::Status;

bool AllFinite(const DenseMatrix& m) {
  const float* p = m.data();
  for (int64_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

ReplayModel::ReplayModel(const coane::Graph& graph,
                         const coane::CoaneConfig& config, Tracer* tracer)
    : graph_(graph), config_(config), tracer_(tracer), rng_(config.seed) {}

Status ReplayModel::Preprocess() {
  const coane::CoaneConfig& c = config_;
  if (!c.use_attributes || !c.use_attribute_loss || !c.use_positive_loss ||
      !c.use_negative_loss || c.num_negative <= 0 || c.skipgram_positive ||
      !c.positive_topk || c.dtilde_normalize_after_add ||
      c.grad_clip_norm > 0.0f || !c.check_numerics ||
      c.negative_mode == coane::NegativeSamplingMode::kUniform) {
    return Status::InvalidArgument(
        "the replay mirrors only the default CoANE training path");
  }
  auto root = tracer_->Open("core.preprocess");
  {
    auto span = tracer_->Open("graph.impute");
    auto imputed = coane::ImputeMissingAttributes(graph_, c.missing_attrs);
    if (!imputed.ok()) return imputed.status();
    features_ = std::move(imputed).ValueOrDie();
  }
  std::vector<coane::Walk> walks;
  {
    auto span = tracer_->Open("walk.walks");
    coane::RandomWalkConfig walk_cfg;
    walk_cfg.num_walks_per_node = c.num_walks;
    walk_cfg.walk_length = c.walk_length;
    auto generated = coane::GenerateRandomWalks(graph_, walk_cfg, &rng_);
    if (!generated.ok()) return generated.status();
    walks = std::move(generated).ValueOrDie();
  }
  {
    auto span = tracer_->Open("walk.contexts");
    coane::ContextOptions options;
    options.context_size = c.context_size;
    options.subsample_t = c.subsample_t;
    auto contexts = coane::GenerateContexts(walks, graph_.num_nodes(),
                                            options, &rng_);
    if (!contexts.ok()) return contexts.status();
    contexts_ = std::make_unique<coane::ContextSet>(
        std::move(contexts).ValueOrDie());
  }
  walks.clear();
  {
    auto span = tracer_->Open("walk.cooccurrence");
    cooccurrence_ = coane::BuildCooccurrence(graph_, *contexts_);
  }
  {
    auto span = tracer_->Open("walk.topk");
    positive_pairs_ = coane::TopKPositivePairs(cooccurrence_.d_tilde,
                                               cooccurrence_.k_p);
  }
  {
    auto span = tracer_->Open("walk.sampler_build");
    if (c.negative_mode == coane::NegativeSamplingMode::kPreSampled) {
      const int64_t pool = std::max<int64_t>(
          static_cast<int64_t>(c.num_negative) * c.presample_pool_factor,
          256);
      negative_sampler_ = std::make_unique<coane::PreSampledNegativeSampler>(
          *contexts_, &cooccurrence_.d, pool, &rng_);
    } else {
      negative_sampler_ = std::make_unique<coane::BatchNegativeSampler>(
          *contexts_, &cooccurrence_.d);
    }
  }
  {
    auto span = tracer_->Open("nn.init");
    encoder_ = std::make_unique<coane::ContextEncoder>(
        c.context_size, features_.cols(), c.embedding_dim, c.encoder_kind,
        &rng_);
    encoder_->RegisterParams(&optimizer_);
    std::vector<int64_t> dims;
    dims.push_back(c.embedding_dim);
    for (int64_t h : c.decoder_hidden) dims.push_back(h);
    dims.push_back(features_.cols());
    decoder_ = std::make_unique<coane::Mlp>(dims, &rng_);
    decoder_->RegisterParams(&optimizer_);
    optimizer_.set_learning_rate(c.learning_rate);
  }
  z_ = DenseMatrix(graph_.num_nodes(), c.embedding_dim, 0.0f);
  in_batch_.assign(static_cast<size_t>(graph_.num_nodes()), 0);
  {
    auto span = tracer_->Open("nn.renew");
    Renew();
  }

  counts_.contexts = contexts_->TotalContexts();
  counts_.d_nnz = cooccurrence_.d.nnz();
  for (const auto& row : positive_pairs_) {
    counts_.positive_pairs += static_cast<int64_t>(row.size());
  }
  counts_.dz_bytes = z_.size() * static_cast<int64_t>(sizeof(float));
  for (int i = 0; i < optimizer_.num_slots(); ++i) {
    counts_.adam_params += optimizer_.slot_moment1(i).size();
  }
  return Status::OK();
}

Status ReplayModel::TrainEpoch() {
  auto root = tracer_->Open("core.epoch");
  {
    // CoaneModel::TrainEpoch serializes the mutable state first, so a
    // diverged epoch can be rolled back (CoaneModel::SnapshotState).
    auto span = tracer_->Open("core.epoch_snapshot");
    std::string blob;
    coane::AppendF32(&blob, optimizer_.config().learning_rate);
    const std::string rng_state = rng_.SerializeState();
    coane::AppendU64(&blob, rng_state.size());
    blob.append(rng_state);
    coane::AppendEncoderWeights(&blob, *encoder_);
    coane::AppendU32(&blob, 1);
    coane::AppendMlpWeights(&blob, *decoder_);
    coane::AppendAdamState(&blob, optimizer_);
  }
  std::vector<NodeId> order(static_cast<size_t>(graph_.num_nodes()));
  std::iota(order.begin(), order.end(), 0);
  rng_.Shuffle(&order);
  const size_t batch_size = static_cast<size_t>(config_.batch_size);
  for (size_t start = 0; start < order.size(); start += batch_size) {
    const size_t end = std::min(order.size(), start + batch_size);
    std::vector<NodeId> batch(order.begin() + static_cast<int64_t>(start),
                              order.begin() + static_cast<int64_t>(end));
    auto span = tracer_->Open("core.batch");
    COANE_RETURN_IF_ERROR(TrainBatch(batch));
    ++counts_.batches;
  }
  auto span = tracer_->Open("nn.renew");
  Renew();
  return Status::OK();
}

Status ReplayModel::TrainBatch(const std::vector<NodeId>& batch) {
  coane::ThreadPool* pool = coane::GlobalThreadPool();
  const int64_t batch_size = static_cast<int64_t>(batch.size());
  {
    auto span = tracer_->Open("nn.encode");
    (void)coane::ParallelFor(
        pool, nullptr, "train.batch_encode", batch_size,
        coane::ElasticShards(pool, batch_size),
        [&](int64_t, int64_t begin, int64_t end) -> Status {
          for (int64_t b = begin; b < end; ++b) {
            const NodeId v = batch[static_cast<size_t>(b)];
            encoder_->EncodeNode(*contexts_, features_, v, z_.Row(v));
            in_batch_[static_cast<size_t>(v)] = 1;
          }
          return Status::OK();
        });
  }
  struct FlagReset {
    const std::vector<NodeId>& batch;
    std::vector<uint8_t>& flags;
    ~FlagReset() {
      for (NodeId v : batch) flags[static_cast<size_t>(v)] = 0;
    }
  } flag_reset{batch, in_batch_};

  DenseMatrix dz;
  {
    auto span = tracer_->Open("core.dz_alloc");
    dz = DenseMatrix(z_.rows(), z_.cols(), 0.0f);
  }
  std::vector<std::vector<NodeId>> negatives(batch.size());
  {
    auto span = tracer_->Open("walk.negatives");
    for (size_t b = 0; b < batch.size(); ++b) {
      negatives[b] = negative_sampler_->Sample(
          batch[b], config_.num_negative, batch, &rng_);
      counts_.negatives_returned += static_cast<int64_t>(negatives[b].size());
    }
    counts_.negatives_requested +=
        static_cast<int64_t>(config_.num_negative) * batch_size;
  }
  coane::BatchLosses losses;
  {
    auto span = tracer_->Open("core.objective");
    losses = coane::ParallelBatchObjective(
        z_, &positive_pairs_, /*split_lr=*/true, &negatives,
        config_.negative_weight, batch, in_batch_, &dz);
  }
  double attribute = 0.0;
  {
    auto span = tracer_->Open("nn.decoder");
    decoder_->ZeroGrad();
    std::vector<int64_t> rows(batch.begin(), batch.end());
    DenseMatrix z_batch = z_.SelectRows(rows);
    // CoaneModel::BatchFeatures: densified feature rows of the batch.
    DenseMatrix x_batch(batch_size, features_.cols(), 0.0f);
    for (size_t b = 0; b < batch.size(); ++b) {
      float* row = x_batch.Row(static_cast<int64_t>(b));
      for (const coane::SparseEntry& e : features_.Row(batch[b])) {
        row[e.col] = e.value;
      }
    }
    DenseMatrix x_hat = decoder_->Forward(z_batch);
    DenseMatrix dx_hat;
    const double mse = coane::MseLoss(x_hat, x_batch, &dx_hat);
    attribute = config_.attribute_gamma * mse;
    dx_hat.Scale(config_.attribute_gamma);
    DenseMatrix dz_batch = decoder_->Backward(dx_hat);
    for (size_t b = 0; b < batch.size(); ++b) {
      coane::Axpy(1.0f, dz_batch.Row(static_cast<int64_t>(b)),
                  dz.Row(batch[b]), z_.cols());
    }
    int64_t weights = 0;
    for (size_t l = 0; l < decoder_->num_layers(); ++l) {
      const coane::Linear& layer = decoder_->layer(l);
      weights += layer.in_dim() * layer.out_dim();
    }
    counts_.decoder_flops += 6.0 * static_cast<double>(batch_size) *
                             static_cast<double>(weights);
  }
  {
    auto span = tracer_->Open("core.dz_check");
    if (!std::isfinite(losses.positive) || !std::isfinite(losses.negative) ||
        !std::isfinite(attribute) || !AllFinite(dz)) {
      return Status::Internal("non-finite loss or batch gradient");
    }
  }

  // Shard-private gradient buffers, made by the same shards that fill
  // them (CoaneModel makes each inside its encoder-gradient shard) and
  // folded in shard order.
  std::vector<std::vector<DenseMatrix>> grad_shards(
      static_cast<size_t>(coane::kFixedReductionShards));
  {
    auto span = tracer_->Open("nn.grad_merge");
    encoder_->ZeroGrad();
    (void)coane::ParallelFor(
        pool, nullptr, "train.encoder_grad", batch_size,
        coane::kFixedReductionShards,
        [&](int64_t shard, int64_t begin, int64_t end) -> Status {
          if (begin == end) return Status::OK();
          grad_shards[static_cast<size_t>(shard)] = encoder_->MakeGradBuffer();
          return Status::OK();
        });
  }
  {
    auto span = tracer_->Open("nn.encoder_grad");
    (void)coane::ParallelFor(
        pool, nullptr, "train.encoder_grad", batch_size,
        coane::kFixedReductionShards,
        [&](int64_t shard, int64_t begin, int64_t end) -> Status {
          auto& buf = grad_shards[static_cast<size_t>(shard)];
          for (int64_t b = begin; b < end; ++b) {
            const NodeId v = batch[static_cast<size_t>(b)];
            encoder_->AccumulateGradientInto(*contexts_, features_, v,
                                             dz.Row(v), &buf);
          }
          return Status::OK();
        });
  }
  {
    auto span = tracer_->Open("nn.grad_merge");
    int64_t buffer_bytes = 0;
    for (const auto& buf : grad_shards) {
      if (buf.empty()) continue;
      encoder_->MergeGrad(buf);
      for (const DenseMatrix& m : buf) {
        buffer_bytes += m.size() * static_cast<int64_t>(sizeof(float));
      }
    }
    counts_.grad_buffer_bytes =
        std::max(counts_.grad_buffer_bytes, buffer_bytes);
  }
  {
    auto span = tracer_->Open("nn.adam");
    encoder_->ApplyGrad(&optimizer_);
    decoder_->ApplyGrad(&optimizer_);
  }
  return Status::OK();
}

void ReplayModel::Renew() {
  coane::ThreadPool* pool = coane::GlobalThreadPool();
  const int64_t n = graph_.num_nodes();
  (void)coane::ParallelFor(
      pool, nullptr, "train.renew", n, coane::ElasticShards(pool, n),
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        for (NodeId v = static_cast<NodeId>(begin);
             v < static_cast<NodeId>(end); ++v) {
          encoder_->EncodeNode(*contexts_, features_, v, z_.Row(v));
        }
        return Status::OK();
      });
}

}  // namespace perfbench
