#include "stream/pipeline.h"

#include <utility>

#include "common/atomic_file.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/record_file.h"
#include "common/string_utils.h"
#include "core/artifact_manifest.h"
#include "core/checkpoint.h"
#include "core/coane_model.h"
#include "dist/shard_plan.h"
#include "graph/attr_impute.h"
#include "graph/graph_io.h"
#include "stream/graph_apply.h"
#include "stream/mutation_log.h"
#include "stream/provenance.h"

namespace coane {
namespace stream {
namespace {

constexpr char kStateHeader[] = "COANE-STREAM v1";

/// Node ids whose attribute rows were unobserved at train time.
std::vector<NodeId> UnobservedNodes(const Graph& graph) {
  std::vector<NodeId> out;
  if (graph.num_attributes() == 0 || !graph.has_missing_attrs()) return out;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (!graph.AttrObserved(v)) out.push_back(v);
  }
  return out;
}

}  // namespace

StreamPipeline::StreamPipeline(PipelineOptions options)
    : options_(std::move(options)) {}

std::string StreamPipeline::manifest_path() const {
  return options_.work_dir + "/manifest.tsv";
}

std::string StreamPipeline::state_path() const {
  return options_.work_dir + "/stream_state.tsv";
}

Result<std::unique_ptr<StreamPipeline>> StreamPipeline::Open(
    const PipelineOptions& options) {
  if (options.log_path.empty() || options.work_dir.empty()) {
    return Status::InvalidArgument("log_path and work_dir are required");
  }
  if (options.init_edges.empty()) {
    return Status::InvalidArgument(
        "init_edges is required: the committed state is reproduced by "
        "replaying the log over the initial graph");
  }
  if (options.refine_epochs < 0 || options.batch_max < 1) {
    return Status::InvalidArgument(
        "refine_epochs must be >= 0 and batch_max >= 1");
  }
  COANE_RETURN_IF_ERROR(dist::MakeDirs(options.work_dir));

  auto base = LoadAttributedGraph(options.init_edges, options.init_attrs,
                                  options.init_labels);
  if (!base.ok()) return base.status();

  std::unique_ptr<StreamPipeline> p(new StreamPipeline(options));
  p->graph_ = std::make_unique<Graph>(std::move(base).ValueOrDie());
  p->chain_ = GraphFingerprint(*p->graph_);

  // --- Committed state, if any.
  auto state_read = ReadFileToString(p->state_path());
  if (state_read.ok()) {
    auto body = ReadRecordBody(p->state_path(), state_read.value(),
                               kStateHeader);
    if (!body.ok()) return body.status();
    uint64_t committed_chain = 0;
    for (const RecordLine& line : body.value()) {
      const std::vector<std::string> kv = Split(line.text, '\t');
      if (kv.size() != 2) {
        return RecordLineError(p->state_path(), line,
                               "malformed stream state line '" +
                                   std::string(line.text) + "'");
      }
      bool ok = true;
      if (kv[0] == "log_seq") {
        ok = flags::ParseWhole(kv[1], &p->log_seq_);
      } else if (kv[0] == "chain_fingerprint") {
        ok = ParseHex64(kv[1], &committed_chain);
      } else if (kv[0] == "publish_count") {
        ok = flags::ParseWhole(kv[1], &p->publish_count_);
      } else if (kv[0] == "checkpoint") {
        p->ckpt_path_ = kv[1];
      } else if (kv[0] == "embeddings") {
        p->emb_path_ = kv[1];
      } else if (kv[0] == "walks") {
        p->walks_path_ = kv[1];
      } else {
        return RecordLineError(p->state_path(), line,
                               "unknown stream state key '" + kv[0] + "'");
      }
      if (!ok) {
        return RecordLineError(p->state_path(), line,
                               "bad stream state value in '" +
                                   std::string(line.text) + "'");
      }
    }
    p->initialized_ = true;

    // --- Reproduce the committed graph: replay the log prefix over the
    // base and verify the chain matches what was committed.
    if (p->log_seq_ > 0) {
      auto log = ReadMutationLog(options.log_path);
      if (!log.ok()) return log.status();
      std::vector<Mutation> prefix;
      for (const Mutation& m : log.value().mutations) {
        if (m.seq <= p->log_seq_) prefix.push_back(m);
      }
      ApplyDelta delta;
      auto replayed =
          ApplyMutations(*p->graph_, prefix, 0, p->chain_, &delta);
      if (!replayed.ok()) return replayed.status();
      if (delta.last_seq != p->log_seq_ ||
          delta.chain_fingerprint != committed_chain) {
        return Status::DataLoss(
            "mutation log " + options.log_path +
            " no longer reproduces the committed pipeline state (log "
            "position " +
            std::to_string(p->log_seq_) +
            ") — the log was truncated or rewritten");
      }
      p->graph_ =
          std::make_unique<Graph>(std::move(replayed).ValueOrDie());
      p->chain_ = delta.chain_fingerprint;
    } else if (committed_chain != p->chain_) {
      return Status::DataLoss(
          "initial graph no longer matches the committed pipeline state");
    }

    // --- Walk corpus: prefer the committed store, rebuild on any defect
    // (the rebuild is byte-identical by construction).
    bool walks_ok = false;
    if (!p->walks_path_.empty()) {
      auto corpus = LoadWalkCorpus(p->walks_path_);
      if (!corpus.ok()) {
        COANE_LOG(Warning) << "rebuilding the walk corpus: "
                           << corpus.status().ToString();
      } else if (corpus.value().num_walks_per_node ==
                     options.config.num_walks &&
                 corpus.value().walk_length == options.config.walk_length) {
        p->corpus_ = std::move(corpus).ValueOrDie();
        walks_ok = true;
      }
    }
    if (!walks_ok) {
      auto rebuilt =
          BuildWalkCorpus(*p->graph_, options.config.num_walks,
                          options.config.walk_length, options.config.seed);
      if (!rebuilt.ok()) return rebuilt.status();
      p->corpus_ = std::move(rebuilt).ValueOrDie();
    }

    // --- Features: recompute from the replayed graph (equal to the
    // incremental result by the reimpute equality contract).
    if (options.config.use_attributes && p->graph_->num_attributes() > 0) {
      auto features =
          ImputeMissingAttributes(*p->graph_, options.config.missing_attrs);
      if (!features.ok()) return features.status();
      p->features_ = std::move(features).ValueOrDie();
      p->has_features_ = true;
    }
  }
  return p;
}

Result<int64_t> StreamPipeline::Pending() const {
  auto log = ReadMutationLog(options_.log_path);
  if (!log.ok()) return log.status();
  int64_t pending = 0;
  for (const Mutation& m : log.value().mutations) {
    if (m.seq > log_seq_) ++pending;
  }
  return pending;
}

Result<StepResult> StreamPipeline::Step(const RunContext* ctx) {
  return initialized_ ? IncrementalStep(ctx) : InitialBuild(ctx);
}

Result<StepResult> StreamPipeline::InitialBuild(const RunContext* ctx) {
  StepResult result;
  result.log_seq = 0;
  result.chain_fingerprint = chain_;

  auto corpus =
      BuildWalkCorpus(*graph_, options_.config.num_walks,
                      options_.config.walk_length, options_.config.seed, ctx);
  if (!corpus.ok()) return corpus.status();

  {
    CoaneModel model(*graph_, options_.config);
    model.SetPrecomputedWalks(corpus.value().walks);  // copy; corpus kept
    COANE_RETURN_IF_ERROR(model.Preprocess(ctx));
    auto history = model.Train(ctx);
    if (!history.ok()) return history.status();
    if (options_.config.use_attributes) {
      features_ = model.features();
      has_features_ = true;
    }
    walks_path_ = options_.work_dir + "/gen_0.walks";
    COANE_RETURN_IF_ERROR(SaveWalkCorpus(corpus.value(), walks_path_));
    COANE_RETURN_IF_ERROR(
        PublishArtifacts(model, 0, chain_, *graph_, &result));
  }

  corpus_ = std::move(corpus).ValueOrDie();
  log_seq_ = 0;
  initialized_ = true;
  ++publish_count_;
  COANE_RETURN_IF_ERROR(CommitState());
  return result;
}

Result<StepResult> StreamPipeline::IncrementalStep(const RunContext* ctx) {
  StepResult result;
  result.log_seq = log_seq_;
  result.chain_fingerprint = chain_;

  // Tail the log: a torn tail is not an error for the publisher — the
  // valid prefix is consumed and recovery can quarantine the tail later.
  auto log = ReadMutationLog(options_.log_path);
  if (!log.ok()) return log.status();
  std::vector<Mutation> batch;
  for (const Mutation& m : log.value().mutations) {
    if (m.seq > log_seq_ &&
        static_cast<int64_t>(batch.size()) < options_.batch_max) {
      batch.push_back(m);
    }
  }
  if (batch.empty()) return result;

  ApplyDelta delta;
  auto applied =
      ApplyMutations(*graph_, batch, log_seq_ + 1, chain_, &delta);
  if (!applied.ok()) return applied.status();
  auto new_graph =
      std::make_unique<Graph>(std::move(applied).ValueOrDie());

  // --- Walk invalidation: re-walk only walks that visited a node whose
  // adjacency changed; new nodes' walks are appended.
  std::vector<uint8_t> changed(
      static_cast<size_t>(new_graph->num_nodes()), 0);
  for (const NodeId v : delta.structure_changed) {
    changed[static_cast<size_t>(v)] = 1;
  }
  WalkCorpus corpus = corpus_;  // work on a copy; commit on success only
  COANE_RETURN_IF_ERROR(UpdateWalkCorpus(*new_graph, changed, &corpus,
                                         &result.walk_stats, ctx));

  // --- Churn-driven re-imputation.
  SparseMatrix new_features;
  if (has_features_) {
    auto reimputed = IncrementalReimpute(
        *graph_, features_, *new_graph, options_.config.missing_attrs,
        delta.structure_changed, delta.attrs_changed,
        &result.reimpute_stats);
    if (!reimputed.ok()) return reimputed.status();
    new_features = std::move(reimputed).ValueOrDie();
  }

  // --- Warm-start refinement.
  {
    CoaneConfig refine = options_.config;
    refine.max_epochs = options_.refine_epochs;
    CoaneModel model(*new_graph, refine);
    model.SetPrecomputedWalks(corpus.walks);  // copy; corpus kept
    if (has_features_) {
      model.SetPrecomputedFeatures(new_features);  // copy
    }
    COANE_RETURN_IF_ERROR(model.Preprocess(ctx));
    auto prev = ReadCheckpointFile(ckpt_path_);
    if (!prev.ok()) return prev.status();
    COANE_RETURN_IF_ERROR(model.WarmStartFrom(prev.value()));
    auto history = model.Train(ctx);
    if (!history.ok()) return history.status();

    walks_path_ = options_.work_dir + "/gen_" +
                  std::to_string(delta.last_seq) + ".walks";
    COANE_RETURN_IF_ERROR(SaveWalkCorpus(corpus, walks_path_));
    COANE_RETURN_IF_ERROR(PublishArtifacts(
        model, delta.last_seq, delta.chain_fingerprint, *new_graph,
        &result));
  }

  // --- Commit point.
  graph_ = std::move(new_graph);
  corpus_ = std::move(corpus);
  if (has_features_) features_ = std::move(new_features);
  log_seq_ = delta.last_seq;
  chain_ = delta.chain_fingerprint;
  ++publish_count_;
  result.applied = static_cast<int64_t>(batch.size());
  result.log_seq = log_seq_;
  result.chain_fingerprint = chain_;
  COANE_RETURN_IF_ERROR(CommitState());
  return result;
}

Status StreamPipeline::PublishArtifacts(const CoaneModel& model,
                                        uint64_t log_seq, uint64_t chain,
                                        const Graph& graph,
                                        StepResult* result) {
  const std::string prefix =
      options_.work_dir + "/gen_" + std::to_string(log_seq);
  const std::string ckpt_path = prefix + ".ckpt";
  const std::string emb_path = prefix + ".emb";
  COANE_RETURN_IF_ERROR(model.SaveCheckpoint(ckpt_path));
  COANE_RETURN_IF_ERROR(SaveEmbeddings(model.embeddings(), emb_path));

  PublishInfo info;
  info.log_seq = log_seq;
  info.chain_fingerprint = chain;
  info.mask_fingerprint = model.data_fingerprint();
  // The manifest fingerprint covers the *base* config (not the refine
  // budget) extended by the log position, so every generation of one
  // pipeline shares a config identity but no two log positions collide.
  info.config_fingerprint = StreamFingerprint(
      ConfigFingerprint(options_.config), log_seq, chain);
  info.created_unix_ms = NowUnixMs();
  info.missing_attrs = options_.config.missing_attrs;
  if (options_.config.use_attributes) {
    info.unobserved = UnobservedNodes(graph);
  }
  const std::string pub_path = PublishInfoPathFor(emb_path);
  COANE_RETURN_IF_ERROR(SavePublishInfo(info, pub_path));

  // --- Attestation: record the artifacts in the manifest the serving
  // layer verifies against before building a snapshot.
  ArtifactManifest manifest;
  auto loaded = ArtifactManifest::Load(manifest_path());
  if (loaded.ok()) {
    manifest = std::move(loaded).ValueOrDie();
  } else if (loaded.status().code() == StatusCode::kDataLoss) {
    return loaded.status();  // a broken attestation is never overwritten
  }
  COANE_RETURN_IF_ERROR(
      AttestArtifacts(&manifest, manifest_path(),
                      {{"embeddings", emb_path}, {"checkpoint", ckpt_path}},
                      info.config_fingerprint, /*retry=*/nullptr)
          .status());

  ckpt_path_ = ckpt_path;
  emb_path_ = emb_path;
  result->published = true;
  result->embeddings_path = emb_path;
  result->provenance_path = pub_path;
  return Status::OK();
}

Status StreamPipeline::CommitState() {
  std::string body(kStateHeader);
  body += "\n";
  body += "log_seq\t" + std::to_string(log_seq_) + "\n";
  body += "chain_fingerprint\t" + Hex64(chain_) + "\n";
  body += "publish_count\t" + std::to_string(publish_count_) + "\n";
  body += "checkpoint\t" + ckpt_path_ + "\n";
  body += "embeddings\t" + emb_path_ + "\n";
  body += "walks\t" + walks_path_ + "\n";
  AppendCrcFooter(&body);
  return WriteFileAtomic(state_path(), body, "stream.state_save");
}

}  // namespace stream
}  // namespace coane
