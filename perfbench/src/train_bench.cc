// The train_wide / train_tall workloads: load -> Preprocess -> TrainEpoch
// x E -> save embeddings and checkpoint, timed the way `coane_cli train`
// runs them, plus the traced replay of one epoch.
#include "train_bench.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "core/coane_model.h"
#include "eval/node_classification.h"
#include "graph/graph_io.h"
#include "replay.h"
#include "trace.h"

namespace perfbench {
namespace {

using coane::CoaneModel;
using coane::Graph;
using coane::Status;

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint32_t EmbeddingCrc(const coane::DenseMatrix& m) {
  return coane::Crc32(m.data(),
                      static_cast<size_t>(m.size()) * sizeof(float));
}

std::string Hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

// The node count comes from the generator, not from the files: the
// loader infers it from edge endpoints only, and a generated graph may
// end with isolated nodes (which then fail the attribute load).
coane::Result<Graph> Load(const TrainArgs& args) {
  return coane::LoadAttributedGraph(args.edges, args.attrs, args.labels,
                                    args.num_nodes, args.num_attributes);
}

// Micro-F1 of a one-vs-rest logistic regression on the planted labels
// (half the nodes train), computed after every timed region.
double MicroF1(const coane::DenseMatrix& z, const Graph& graph,
               uint64_t seed) {
  auto f1 = coane::EvaluateNodeClassification(
      z, graph.labels(), graph.num_classes(), 0.5, seed, 1);
  return f1.ok() ? f1.value().micro_f1 : -1.0;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

int RunUntraced(const TrainArgs& args, const coane::CoaneConfig& config) {
  // Set-up is timed setup_reps times from a cold load; the last graph and
  // model are the ones trained.
  std::vector<double> setup_s;
  std::optional<Graph> graph;
  std::optional<CoaneModel> model;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    model.reset();
    graph.reset();
    const auto start = std::chrono::steady_clock::now();
    auto loaded = Load(args);
    if (!loaded.ok()) return Fail(loaded.status());
    graph.emplace(std::move(loaded).ValueOrDie());
    model.emplace(*graph, config);
    Status st = model->Preprocess();
    if (!st.ok()) return Fail(st);
    setup_s.push_back(Seconds(start));
  }

  std::vector<double> epoch_s;
  for (int e = 0; e < args.epochs; ++e) {
    const auto start = std::chrono::steady_clock::now();
    auto stats = model->TrainEpoch();
    if (!stats.ok()) return Fail(stats.status());
    epoch_s.push_back(Seconds(start));
  }

  // Saved like `coane_cli train` does; the traced run times the two saves.
  const std::string emb_path = args.out_dir + "/model.emb";
  Status st = coane::SaveEmbeddings(model->embeddings(), emb_path);
  if (st.ok()) st = model->SaveCheckpoint(args.out_dir + "/model.ckpt");
  if (!st.ok()) return Fail(st);
  const double peak_rss = PeakRssMiB();

  // Output checks, outside every timed region.
  const coane::DenseMatrix& z = model->embeddings();
  auto reloaded = coane::LoadEmbeddings(emb_path);
  const bool reload_ok =
      reloaded.ok() && reloaded.value().rows() == z.rows() &&
      reloaded.value().cols() == z.cols();
  JsonLine out;
  out.Nums("setup_s", setup_s);
  out.Nums("epoch_s", epoch_s);
  out.Num("peak_rss_mb", peak_rss);
  out.Bool("finite", AllFinite(z));
  out.Bool("reload_ok", reload_ok);
  out.Num("micro_f1", MicroF1(z, *graph, config.seed));
  out.Str("crc32", Hex32(EmbeddingCrc(z)));
  out.Int("nodes", graph->num_nodes());
  out.Int("attributes", graph->num_attributes());
  out.Print();
  return 0;
}

int RunTraced(const TrainArgs& args, const coane::CoaneConfig& config) {
  Tracer tracer;
  std::optional<Graph> graph;
  {
    auto span = tracer.Open("graph.load");
    auto loaded = Load(args);
    if (!loaded.ok()) return Fail(loaded.status());
    graph.emplace(std::move(loaded).ValueOrDie());
  }

  // The real model, untraced: one epoch gives the epoch_s the trace's
  // coverage is measured against, and the reference embeddings.
  CoaneModel model(*graph, config);
  Status st = model.Preprocess();
  if (!st.ok()) return Fail(st);
  const auto epoch_start = std::chrono::steady_clock::now();
  auto stats = model.TrainEpoch();
  if (!stats.ok()) return Fail(stats.status());
  const double epoch_s = Seconds(epoch_start);

  ReplayModel replay(*graph, config, &tracer);
  st = replay.Preprocess();
  if (st.ok()) st = replay.TrainEpoch();
  if (!st.ok()) return Fail(st);
  const coane::DenseMatrix& z = model.embeddings();
  const coane::DenseMatrix& rz = replay.embeddings();
  const bool identical =
      z.rows() == rz.rows() && z.cols() == rz.cols() &&
      std::memcmp(z.data(), rz.data(),
                  static_cast<size_t>(z.size()) * sizeof(float)) == 0;

  {
    auto span = tracer.Open("core.checkpoint");
    st = model.SaveCheckpoint(args.out_dir + "/model.ckpt");
    if (!st.ok()) return Fail(st);
  }
  {
    auto span = tracer.Open("core.embeddings_save");
    st = coane::SaveEmbeddings(z, args.out_dir + "/model.emb");
    if (!st.ok()) return Fail(st);
  }

  const int epoch = tracer.Last("core.epoch");
  const int pre = tracer.Last("core.preprocess");
  const ReplayCounts& c = replay.counts();
  JsonLine out;
  out.Bool("replay_identical", identical);
  out.Bool("finite", AllFinite(z));
  out.Str("crc32", Hex32(EmbeddingCrc(z)));
  out.Str("replay_crc32", Hex32(EmbeddingCrc(rz)));
  out.Num("epoch_s", epoch_s);
  out.Num("graph.load_s", tracer.Total("graph.load"));
  out.Num("graph.impute_s", tracer.Total("graph.impute"));
  out.Num("walk.walks_s", tracer.Total("walk.walks"));
  out.Num("walk.contexts_s", tracer.Total("walk.contexts"));
  out.Num("walk.cooccurrence_s", tracer.Total("walk.cooccurrence"));
  out.Num("walk.topk_s", tracer.Total("walk.topk"));
  out.Num("walk.sampler_build_s", tracer.Total("walk.sampler_build"));
  out.Num("walk.negatives_s", tracer.Total("walk.negatives", epoch));
  out.Num("nn.init_s", tracer.Total("nn.init"));
  out.Num("nn.renew_setup_s", tracer.Total("nn.renew", pre));
  out.Num("nn.renew_s", tracer.Total("nn.renew", epoch));
  out.Num("nn.encode_s", tracer.Total("nn.encode", epoch));
  out.Num("nn.decoder_s", tracer.Total("nn.decoder", epoch));
  out.Num("nn.encoder_grad_s", tracer.Total("nn.encoder_grad", epoch));
  out.Num("nn.grad_merge_s", tracer.Total("nn.grad_merge", epoch));
  out.Num("nn.adam_s", tracer.Total("nn.adam", epoch));
  out.Num("core.objective_s", tracer.Total("core.objective", epoch));
  out.Num("core.dz_s", tracer.Total("core.dz_alloc", epoch) +
                           tracer.Total("core.dz_check", epoch));
  out.Num("core.epoch_snapshot_s",
          tracer.Total("core.epoch_snapshot", epoch));
  out.Num("core.checkpoint_s", tracer.Total("core.checkpoint"));
  out.Num("core.embeddings_save_s", tracer.Total("core.embeddings_save"));
  out.Num("trace.replay_epoch_s", tracer.Total("core.epoch"));
  out.Num("trace.coverage", tracer.LeafTotal(epoch) / epoch_s);
  for (const auto& [layer, self] : tracer.LayerSelfTimes()) {
    out.Num(layer + ".self_s", self);
  }
  out.Int("walk.contexts", c.contexts);
  out.Int("walk.d_nnz", c.d_nnz);
  out.Int("walk.positive_pairs", c.positive_pairs);
  out.Num("walk.negatives_fill",
          c.negatives_requested > 0
              ? static_cast<double>(c.negatives_returned) /
                    static_cast<double>(c.negatives_requested)
              : 0.0);
  out.Num("nn.decoder_flops", c.decoder_flops);
  out.Int("nn.grad_buffer_bytes", c.grad_buffer_bytes);
  out.Int("nn.adam_params", c.adam_params);
  out.Int("core.dz_bytes", c.dz_bytes);
  out.Int("core.batches", c.batches);
  out.Num("peak_rss_mb", PeakRssMiB());
  if (!args.trace_out.empty() && !tracer.WriteJsonLines(args.trace_out)) {
    return Fail(Status::IoError("cannot write " + args.trace_out));
  }
  out.Print();
  return 0;
}

}  // namespace

int RunTrainBench(const TrainArgs& args) {
  coane::CoaneConfig config;
  config.embedding_dim = args.dim;
  config.max_epochs = args.epochs;
  config.seed = args.seed;
  if (args.presample) {
    config.negative_mode = coane::NegativeSamplingMode::kPreSampled;
  }
  return args.trace ? RunTraced(args, config) : RunUntraced(args, config);
}

}  // namespace perfbench
