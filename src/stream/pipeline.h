#ifndef COANE_STREAM_PIPELINE_H_
#define COANE_STREAM_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/run_context.h"
#include "common/status.h"
#include "core/coane_config.h"
#include "graph/graph.h"

namespace coane {

class CoaneModel;

namespace stream {

/// Configuration of one train→publish pipeline instance.
struct PipelineOptions {
  /// The mutation log this pipeline tails (mutation_log.h format).
  std::string log_path;
  /// Directory for every pipeline artifact: per-generation checkpoints,
  /// embeddings + provenance sidecars, the artifact manifest, and the
  /// commit-point state file. Created if absent.
  std::string work_dir;
  /// Initial graph files (LoadAttributedGraph), consulted on every Open:
  /// the committed state is reproduced by replaying the log over this
  /// base. attrs/labels may be empty.
  std::string init_edges;
  std::string init_attrs;
  std::string init_labels;
  /// Training configuration. config.max_epochs is the *initial* full
  /// build's budget; each mutation batch trains `refine_epochs` from the
  /// warm start instead. Every step derives its walks and features from
  /// the current graph and config.seed in CoaneModel::Preprocess.
  CoaneConfig config;
  /// Bounded refinement budget per mutation batch.
  int refine_epochs = 5;
  /// Maximum mutations folded per Step.
  int64_t batch_max = 64;
};

/// What one Step produced.
struct StepResult {
  /// Mutations folded this step; 0 = log exhausted, nothing published
  /// (initial build reports 0 applied but does publish).
  int64_t applied = 0;
  /// True when this step published a fresh embedding artifact.
  bool published = false;
  /// Log position after the step (seq of the last folded mutation).
  uint64_t log_seq = 0;
  uint64_t chain_fingerprint = 0;
  /// Published artifact paths ("" when nothing was published).
  std::string embeddings_path;
  std::string provenance_path;
};

/// The train→publish pipeline: tails a mutation log, folds batches into
/// its graph, preprocesses the new graph exactly as `coane_cli train`
/// does, warm-starts training from the previous checkpoint, and publishes
/// manifest-attested embedding artifacts with provenance sidecars.
///
/// Crash discipline: every artifact of a step is written first; the
/// state file (`stream_state.tsv`) is written last and is the commit
/// point. A crash anywhere mid-step leaves the old state committed, and
/// the next Open replays the log over the initial graph to reproduce it
/// exactly — so a killed-and-resumed step emits byte-identical artifacts
/// to an uninterrupted run (the wall-clock `created_unix_ms` in the
/// provenance sidecar is the sole exception, and is excluded from every
/// determinism comparison).
class StreamPipeline {
 public:
  /// Loads the committed state from options.work_dir, or prepares a
  /// fresh pipeline when no state file exists (the first Step then runs
  /// the initial full build at log position 0). A state file that exists
  /// but cannot be read is an error. Verifies on resume that the replayed
  /// log reproduces the committed chain fingerprint — kDataLoss
  /// otherwise.
  static Result<std::unique_ptr<StreamPipeline>> Open(
      const PipelineOptions& options);

  /// Runs one unit of pipeline work: the initial full build when none is
  /// committed, otherwise folds up to batch_max pending mutations, warm
  /// starts, trains, and publishes. A step with nothing pending returns
  /// applied=0 / published=false and commits nothing. Any error (including
  /// a ctx stop mid-train) leaves the committed state untouched; the
  /// retried step reproduces the same artifacts.
  Result<StepResult> Step(const RunContext* ctx = nullptr);

  /// True once the initial build has been committed.
  bool initialized() const { return initialized_; }
  /// Committed log position / chain fingerprint.
  uint64_t log_seq() const { return log_seq_; }
  uint64_t chain_fingerprint() const { return chain_; }
  /// Committed artifact paths ("" before the initial build).
  const std::string& embeddings_path() const { return emb_path_; }
  const std::string& checkpoint_path() const { return ckpt_path_; }
  std::string manifest_path() const;
  std::string state_path() const;

  /// Mutations in the log beyond the committed position.
  Result<int64_t> Pending() const;

 private:
  explicit StreamPipeline(PipelineOptions options);
  Result<StepResult> InitialBuild(const RunContext* ctx);
  Result<StepResult> IncrementalStep(const RunContext* ctx);
  Status PublishArtifacts(const CoaneModel& model, uint64_t log_seq,
                          uint64_t chain, const Graph& graph,
                          StepResult* result);
  Status CommitState();

  PipelineOptions options_;
  bool initialized_ = false;
  uint64_t log_seq_ = 0;
  uint64_t chain_ = 0;
  uint64_t publish_count_ = 0;
  std::string ckpt_path_;
  std::string emb_path_;
  std::unique_ptr<Graph> graph_;
};

}  // namespace stream
}  // namespace coane

#endif  // COANE_STREAM_PIPELINE_H_
