// coane_cli — command-line front end to the CoANE library.
//
// Subcommands:
//   generate  Write a synthetic attributed network to disk.
//   stats     Print statistics of a graph on disk.
//   train     Train CoANE embeddings from edge/attribute files.
//   evaluate  Score saved embeddings on classification and clustering.
//
// Examples:
//   coane_cli generate --dataset=cora --scale=0.2 --out=/tmp/cora
//   coane_cli stats --edges=/tmp/cora.edges --attrs=/tmp/cora.attrs
//       --labels=/tmp/cora.labels
//   coane_cli train --edges=/tmp/cora.edges --attrs=/tmp/cora.attrs
//       --out=/tmp/cora.emb --dim=64 --epochs=10
//   coane_cli evaluate --embeddings=/tmp/cora.emb
//       --labels=/tmp/cora.labels --train-ratio=0.5

#include <csignal>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/retry.h"
#include "common/run_context.h"
#include "common/string_utils.h"
#include "common/table_printer.h"
#include "common/watchdog.h"
#include "core/artifact_manifest.h"
#include "core/checkpoint.h"
#include "core/coane_model.h"
#include "core/config_flags.h"
#include "datasets/dataset_registry.h"
#include "eval/clustering_task.h"
#include "eval/node_classification.h"
#include "graph/attr_impute.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"

namespace coane {
namespace {

// The shared "--key=value" convention (common/flags.h): bare "--key"
// maps to "true", malformed numeric values are a usage error (exit 2).
using Flags = flags::FlagSet;

int Usage() {
  std::fprintf(
      stderr,
      "usage: coane_cli <command> [--flags]\n"
      "commands:\n"
      "  generate --dataset=NAME [--scale=S] [--seed=N] --out=PREFIX\n"
      "           writes PREFIX.edges / PREFIX.attrs / PREFIX.labels\n"
      "  stats    --edges=FILE [--attrs=FILE] [--labels=FILE]\n"
      "  train    --edges=FILE [--attrs=FILE] --out=FILE\n"
      "           [--dim=128] [--epochs=10] [--context=5] [--walks=1]\n"
      "           [--walk-length=80] [--negatives=20] [--gamma=1e5]\n"
      "           [--lr=0.001] [--seed=42] [--presample]\n"
      "           [--grad-clip=0] [--checkpoint-dir=DIR]\n"
      "           [--checkpoint-every=1] [--resume]\n"
      "           [--missing-attrs=reject|zero|mean|neighbor]\n"
      "           imputation policy for masked attribute entries\n"
      "           (empty/nan cells, nodes absent from --attrs); the\n"
      "           policy is part of the config fingerprint, so resume\n"
      "           and manifest checks pin it (default zero)\n"
      "           SIGINT/SIGTERM or an expired --deadline-sec stops at the\n"
      "           next batch, rolls back the partial epoch, checkpoints\n"
      "           (when --checkpoint-dir is set), and exits 0\n"
      "  evaluate --embeddings=FILE --labels=FILE [--train-ratio=0.5]\n"
      "           [--seed=42]\n"
      "loader flags (stats/train):\n"
      "  --on-bad-line=strict|skip   reject the load on the first bad line\n"
      "           with a file:line:column diagnostic (strict, default), or\n"
      "           quarantine bad lines and print a load summary (skip)\n"
      "  --max-nodes=N --max-attr-dim=N   caps; an id or attribute index\n"
      "           past a cap fails the load with OutOfRange and a\n"
      "           file:line:column diagnostic\n"
      "deadline flag (all commands):\n"
      "  --deadline-sec=S   stop cooperatively after S seconds wall clock\n"
      "parallelism flag (all commands):\n"
      "  --threads=N   worker threads for walks, training, and evaluation\n"
      "           (default: hardware concurrency). Results are bit-\n"
      "           identical at every N; --threads=1 runs sequentially\n"
      "datasets: ");
  for (const std::string& name : ListDatasets()) {
    std::fprintf(stderr, "%s ", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::fprintf(
      stderr,
      "fault-tolerance flags (train):\n"
      "  --io-retries=N      attempts per checkpoint/embedding/manifest\n"
      "           write and per graph load (default 3; 1 disables retry)\n"
      "  --watchdog-sec=S    declare a hang when no unit of work completes\n"
      "           for S seconds; the run stops cooperatively, checkpoints,\n"
      "           and exits 0 so a supervisor can restart it (default off)\n"
      "  --resume=auto       like --resume, but a missing/corrupt/stale\n"
      "           checkpoint starts fresh (corrupt files are quarantined\n"
      "           to <ckpt>.corrupt) instead of failing — what\n"
      "           coane_supervisor passes\n"
      "unattended runs: see coane_supervisor --help\n");
  return 2;
}

int RunGenerate(const Flags& flags) {
  const std::string dataset = flags.Get("dataset");
  const std::string out = flags.Get("out");
  if (dataset.empty() || out.empty()) return Usage();
  auto net = MakeDataset(dataset, flags.GetDouble("scale", 1.0),
                         static_cast<uint64_t>(flags.GetInt("seed", 42)));
  if (!net.ok()) return ExitWith(net.status());
  Status st = SaveAttributedGraph(net.value().graph, out + ".edges",
                                  out + ".attrs", out + ".labels");
  if (!st.ok()) return ExitWith(st);
  const GraphStats stats = ComputeGraphStats(net.value().graph);
  std::printf("wrote %s.{edges,attrs,labels}: %lld nodes, %lld edges, "
              "%lld attributes, %d labels\n",
              out.c_str(), static_cast<long long>(stats.num_nodes),
              static_cast<long long>(stats.num_edges),
              static_cast<long long>(stats.num_attributes),
              stats.num_labels);
  return 0;
}

int RunStats(const Flags& flags) {
  const RunContext ctx = RunContextFromFlags(flags);
  auto graph = LoadFromFlags(flags, &ctx);
  if (!graph.ok()) return ExitWith(graph.status());
  const Graph& g = graph.value();
  const GraphStats s = ComputeGraphStats(g);
  TablePrinter table("Graph statistics");
  table.SetHeader({"metric", "value"});
  table.AddRow({"nodes", std::to_string(s.num_nodes)});
  table.AddRow({"edges", std::to_string(s.num_edges)});
  table.AddRow({"attributes", std::to_string(s.num_attributes)});
  table.AddRow({"labels", std::to_string(s.num_labels)});
  table.AddRow({"density", FormatDouble(s.density, 6)});
  table.AddRow({"avg degree", FormatDouble(s.avg_degree, 2)});
  table.AddRow({"max degree", std::to_string(s.max_degree)});
  table.AddRow({"isolated nodes", std::to_string(s.num_isolated)});
  table.AddRow({"avg attrs/node",
                FormatDouble(s.avg_attributes_per_node, 2)});
  table.AddRow({"label homophily", FormatDouble(s.label_homophily, 3)});
  table.AddRow({"clustering coefficient",
                FormatDouble(GlobalClusteringCoefficient(g), 3)});
  table.AddRow({"connected components",
                std::to_string(CountConnectedComponents(g))});
  table.ToStdout();
  return 0;
}

// Loads `manifest_path` (when present) and verifies the checkpoint entry
// against the file on disk and the current config fingerprint. Returns OK
// when the checkpoint may be trusted; the caller decides whether a
// failure is fatal (--resume) or a fresh start (--resume=auto).
Status VerifyCheckpointAgainstManifest(const std::string& manifest_path,
                                       const std::string& checkpoint_path,
                                       uint64_t fingerprint) {
  if (!PathExists(manifest_path)) return Status::OK();
  Status st = VerifyArtifactAgainstManifest(manifest_path, "checkpoint",
                                            checkpoint_path, &fingerprint);
  // kNotFound means the manifest makes no claim about this checkpoint (or
  // the file is already gone, which LoadCheckpoint reports better): not a
  // verification failure. An unreadable or corrupt manifest keeps its own
  // code (kIoError/kInvalidArgument/kDataLoss) and fails the resume — a
  // broken attestation must never read as "nothing to verify".
  if (st.code() == StatusCode::kNotFound) return Status::OK();
  return st;
}

int RunTrain(const Flags& flags) {
  const std::string out = flags.Get("out");
  if (out.empty()) return Usage();
  RunContext ctx = RunContextFromFlags(flags);

  // Hang watchdog: every unit of work (walk, batch, eval iteration)
  // beats it through ctx.Check; a stall turns into a cooperative
  // kDeadlineExceeded stop at the next check, which rolls back the
  // partial epoch and checkpoints like any deadline.
  std::unique_ptr<Watchdog> watchdog;
  const double watchdog_sec = flags.GetDouble("watchdog-sec", 0.0);
  if (watchdog_sec > 0.0) {
    watchdog = std::make_unique<Watchdog>(watchdog_sec);
    ctx.SetWatchdog(watchdog.get());
  }

  auto graph = LoadFromFlags(flags, &ctx);
  if (!graph.ok()) return ExitWith(graph.status());

  auto parsed_config = CoaneConfigFromFlags(flags);
  if (!parsed_config.ok()) return UsageExit(parsed_config.status());
  CoaneConfig config = std::move(parsed_config).ValueOrDie();
  if (graph.value().num_attributes() == 0) {
    std::printf("no attributes given; training structure-only (WF mode)\n");
    config.use_attributes = false;
    config.use_attribute_loss = false;
  } else if (graph.value().has_missing_attrs()) {
    std::printf(
        "incomplete attributes: %lld node(s) unobserved, %zu masked "
        "cell(s); --missing-attrs=%s\n",
        static_cast<long long>(graph.value().num_unobserved_nodes()),
        graph.value().missing_attr_cells().size(),
        MissingAttrPolicyName(config.missing_attrs));
  }

  const std::string checkpoint_dir = flags.Get("checkpoint-dir");
  const std::string checkpoint_path =
      checkpoint_dir.empty() ? "" : checkpoint_dir + "/coane.ckpt";
  const std::string manifest_path =
      checkpoint_dir.empty() ? "" : checkpoint_dir + "/manifest.tsv";
  const int64_t checkpoint_every =
      std::max<int64_t>(1, flags.GetInt("checkpoint-every", 1));
  if (!checkpoint_dir.empty() &&
      ::mkdir(checkpoint_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    // Fail before training starts rather than on the first checkpoint write.
    return ExitWith(Status::IoError("cannot create checkpoint dir " +
                                    checkpoint_dir + ": " +
                                    std::strerror(errno)));
  }
  const RetryPolicy retry = MakeRetryPolicy(flags);
  const uint64_t fingerprint = ConfigFingerprint(config);
  ArtifactManifest manifest;
  if (!manifest_path.empty() && PathExists(manifest_path)) {
    auto loaded = ArtifactManifest::Load(manifest_path);
    if (loaded.ok()) {
      manifest = loaded.value();
    } else {
      // A torn manifest only loses the reuse optimization; rebuild it.
      std::fprintf(stderr, "warning: ignoring unreadable manifest: %s\n",
                   loaded.status().ToString().c_str());
    }
  }

  CoaneModel model(graph.value(), config);
  Status st = model.Preprocess(&ctx);
  if (!st.ok()) return ExitWith(st);

  // --resume fails on any defective checkpoint; --resume=auto (what the
  // supervisor passes) treats missing/corrupt/stale checkpoints as "start
  // fresh", quarantining corrupt files so the next restart doesn't trip
  // over them again.
  const std::string resume_mode =
      flags.Has("resume") ? flags.Get("resume") : "";
  if (!resume_mode.empty()) {
    if (checkpoint_path.empty()) {
      return ExitWith(Status::InvalidArgument(
          "--resume requires --checkpoint-dir"));
    }
    if (resume_mode != "true" && resume_mode != "auto") {
      return ExitWith(Status::InvalidArgument(
          "--resume takes no value or 'auto', got '" + resume_mode + "'"));
    }
    const bool tolerant = resume_mode == "auto";
    if (tolerant && !PathExists(checkpoint_path)) {
      std::printf("no checkpoint at %s; starting fresh\n",
                  checkpoint_path.c_str());
    } else {
      st = VerifyCheckpointAgainstManifest(manifest_path, checkpoint_path,
                                           fingerprint);
      if (st.ok()) st = model.LoadCheckpoint(checkpoint_path);
      if (st.ok()) {
        std::printf("resumed from %s at epoch %d\n",
                    checkpoint_path.c_str(), model.epochs_done());
      } else if (!tolerant) {
        return ExitWith(st);
      } else {
        const std::string quarantined = QuarantineArtifact(checkpoint_path);
        std::fprintf(stderr,
                     "warning: checkpoint rejected (%s); quarantined to %s, "
                     "starting fresh\n",
                     st.ToString().c_str(), quarantined.c_str());
      }
    }
  }

  // Saves the checkpoint (under the retry policy) and records it in the
  // manifest so a restart can prove it intact before trusting it.
  auto save_checkpoint = [&]() -> Status {
    COANE_RETURN_IF_ERROR(model.SaveCheckpoint(checkpoint_path, &retry));
    return AttestArtifacts(&manifest, manifest_path,
                           {{"checkpoint", checkpoint_path}}, fingerprint,
                           &retry)
        .status();
  };

  // A cooperative stop (SIGINT/SIGTERM, --deadline-sec, a watchdog-
  // declared hang) surfaces from TrainEpoch with the partial epoch
  // already rolled back, so the model sits at its last completed epoch
  // and the checkpoint resumes bit-identically.
  Status stop_status = Status::OK();
  while (model.epochs_done() < config.max_epochs) {
    // Fault points for the supervisor's integration tests, armed from the
    // COANE_FAULT environment variable: an abrupt kill (the crash the
    // supervisor must ride through) and a silent hang (what the watchdog
    // must convert into a recoverable stop). Never armed in production.
    if (fault::ShouldFail("cli.crash")) {
      ::kill(::getpid(), SIGKILL);
    }
    if (fault::ShouldFail("cli.hang")) {
      double hang_sec = 5.0;
      if (const char* env = std::getenv("COANE_HANG_SEC")) {
        hang_sec = std::strtod(env, nullptr);
      }
      // Deliberately does NOT beat the watchdog.
      std::this_thread::sleep_for(std::chrono::duration<double>(hang_sec));
    }
    auto stats = model.TrainEpoch(&ctx);
    if (!stats.ok()) {
      if (!IsCooperativeStop(stats.status())) return ExitWith(stats.status());
      stop_status = stats.status();
      break;
    }
    const EpochStats& e = stats.value();
    std::printf("epoch %d: L_pos %.2f  L_neg %.2f  L_att %.2f  (%.2fs)\n",
                e.epoch, e.positive_loss, e.negative_loss,
                e.attribute_loss, e.seconds);
    if (!checkpoint_path.empty() &&
        (model.epochs_done() % checkpoint_every == 0 ||
         model.epochs_done() == config.max_epochs)) {
      st = save_checkpoint();
      if (!st.ok()) return ExitWith(st);
    }
  }
  if (!stop_status.ok()) {
    if (!checkpoint_path.empty()) {
      st = save_checkpoint();
      if (!st.ok()) return ExitWith(st);
      std::printf("stopped (%s) at epoch %d; checkpoint saved to %s — "
                  "restart with --resume to continue\n",
                  stop_status.ToString().c_str(), model.epochs_done(),
                  checkpoint_path.c_str());
    } else {
      std::printf("stopped (%s) at epoch %d (no --checkpoint-dir; progress "
                  "discarded)\n", stop_status.ToString().c_str(),
                  model.epochs_done());
    }
    return 0;
  }

  st = RetryOp(retry, nullptr, "graph_io.save", [&] {
    return SaveEmbeddings(model.embeddings(), out);
  });
  if (!st.ok()) return ExitWith(st);
  if (!manifest_path.empty()) {
    st = AttestArtifacts(&manifest, manifest_path, {{"embeddings", out}},
                         fingerprint, &retry)
             .status();
    if (!st.ok()) return ExitWith(st);
  }
  std::printf("embeddings (%lld x %lld) written to %s\n",
              static_cast<long long>(model.embeddings().rows()),
              static_cast<long long>(model.embeddings().cols()),
              out.c_str());
  return 0;
}

int RunEvaluate(const Flags& flags) {
  const std::string embeddings_path = flags.Get("embeddings");
  const std::string labels_path = flags.Get("labels");
  if (embeddings_path.empty() || labels_path.empty()) return Usage();
  auto z = LoadEmbeddings(embeddings_path);
  if (!z.ok()) return ExitWith(z.status());
  // The graph loader's label reader, strict and capped at the embedding
  // rows: every line is scored or the run fails at its path:line:column.
  LoadOptions label_options;
  label_options.max_nodes = z.value().rows();
  auto labels = LoadLabels(labels_path, z.value().rows(), label_options);
  if (!labels.ok()) return ExitWith(labels.status());
  int num_classes = 0;
  for (int32_t l : labels.value()) num_classes = std::max(num_classes, l + 1);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const RunContext ctx = RunContextFromFlags(flags);

  auto f1 = EvaluateNodeClassification(
      z.value(), labels.value(), num_classes,
      flags.GetDouble("train-ratio", 0.5), seed, 2, &ctx);
  if (!f1.ok()) return ExitWith(f1.status());
  auto nmi = EvaluateClusteringNmi(z.value(), labels.value(), num_classes,
                                   seed, &ctx);
  if (!nmi.ok()) return ExitWith(nmi.status());

  TablePrinter table("Evaluation of " + embeddings_path);
  table.SetHeader({"task", "metric", "score"});
  table.AddRow({"classification", "Macro-F1",
                FormatDouble(f1.value().macro_f1, 3)});
  table.AddRow({"classification", "Micro-F1",
                FormatDouble(f1.value().micro_f1, 3)});
  table.AddRow({"clustering", "NMI", FormatDouble(nmi.value(), 3)});
  table.ToStdout();
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  // Integration tests fault-inject this process (possibly as a
  // supervisor's child) through COANE_FAULT; unset, this arms nothing.
  if (Status st = fault::ArmFromEnv(); !st.ok()) return UsageExit(st);
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  // Parallelism is an execution knob only (bit-identical results at every
  // value — see common/parallel/global_pool.h), so it is configured once
  // here rather than plumbed through each subcommand.
  if (Status st = ApplyThreadsFlag(flags); !st.ok()) return UsageExit(st);
  if (command == "generate") return RunGenerate(flags);
  if (command == "stats") return RunStats(flags);
  if (command == "train") return RunTrain(flags);
  if (command == "evaluate") return RunEvaluate(flags);
  return Usage();
}

}  // namespace
}  // namespace coane

int main(int argc, char** argv) { return coane::Main(argc, argv); }
