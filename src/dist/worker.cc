#include "dist/worker.h"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/atomic_file.h"
#include "common/fault_injection.h"
#include "core/checkpoint.h"
#include "dist/merge.h"
#include "graph/graph_io.h"

namespace coane {
namespace dist {
namespace {

using Clock = std::chrono::steady_clock;

std::string ShardPoint(const char* what, int shard) {
  return std::string("dist.") + what + ".shard" + std::to_string(shard);
}

double HangSeconds() {
  const char* env = std::getenv("COANE_HANG_SEC");
  if (env != nullptr) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return 5.0;
}

}  // namespace

ShardWorker::ShardWorker(const Graph& graph, const ShardPlan& plan,
                         const WorkerOptions& options)
    : graph_(graph),
      plan_(plan),
      options_(options),
      plan_fingerprint_(PlanFingerprint(plan)) {}

ShardWorker::~ShardWorker() = default;

Status ShardWorker::EnsureModel(const RunContext* ctx) {
  if (model_ != nullptr) return Status::OK();
  auto model =
      std::make_unique<CoaneModel>(graph_, ShardConfig(plan_, options_.shard));
  COANE_RETURN_IF_ERROR(model->Preprocess(ctx));
  model_ = std::move(model);
  return Status::OK();
}

Status ShardWorker::ResumeOwnCheckpoint() {
  const std::string path =
      ShardCheckpointPath(options_.work_dir, options_.shard);
  if (!PathExists(path)) return Status::OK();  // fresh shard

  Status why = VerifyArtifactAgainstManifest(
      ShardManifestPath(options_.work_dir, options_.shard),
      ShardCheckpointKind(), path, &plan_fingerprint_);
  // kDataLoss / kFailedPrecondition: the bytes are provably wrong or
  // belong to another plan. Otherwise (OK, or no/broken attestation —
  // kNotFound / kIoError / kInvalidArgument) the checkpoint file's own
  // sectioned CRCs are the next gate.
  if (why.code() != StatusCode::kDataLoss &&
      why.code() != StatusCode::kFailedPrecondition) {
    why = model_->LoadCheckpoint(path);
    if (why.ok()) return Status::OK();
  }
  // Replay: determinism makes the re-trained state byte-identical.
  std::fprintf(stderr,
               "[worker] quarantined %s -> %s (%s); replaying shard\n",
               path.c_str(), QuarantineArtifact(path).c_str(),
               why.ToString().c_str());
  return Status::OK();
}

Status ShardWorker::ApplyMerge(int merged_round, const RunContext* ctx) {
  const std::string manifest_path =
      CoordinatorManifestPath(options_.work_dir);
  const std::string path =
      MergedModelPath(options_.work_dir, merged_round);
  const std::string kind = MergedModelKind(merged_round);

  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.merge_wait_sec));
  int attempt = 1;
  for (;;) {
    const Status attested = VerifyArtifactAgainstManifest(
        manifest_path, kind, path, &plan_fingerprint_);
    if (attested.ok()) break;
    const bool not_yet =
        attested.code() == StatusCode::kNotFound ||
        attested.code() == StatusCode::kIoError ||
        attested.code() == StatusCode::kUnavailable;
    if (!not_yet) return attested;  // broken attestation: fail fast
    COANE_RETURN_IF_STOPPED(ctx, "dist.merge_wait");
    TouchHeartbeat();  // still alive, just waiting on the coordinator
    const double delay = BackoffDelaySeconds(options_.io_retry, attempt++);
    if (Clock::now() + std::chrono::duration<double>(delay) >= give_up) {
      return Status::Unavailable(
          "merged round " + std::to_string(merged_round) +
          " did not appear within " +
          std::to_string(options_.merge_wait_sec) +
          "s: " + attested.ToString());
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }

  auto merged = ReadCheckpointFile(path);
  if (!merged.ok()) return merged.status();
  if (merged.value().config_fingerprint != plan_fingerprint_) {
    return Status::FailedPrecondition(
        "merged artifact " + path + " carries a foreign plan fingerprint");
  }
  return model_->ApplyAveragedState(merged.value());
}

Status ShardWorker::SaveOwn() {
  const std::string path =
      ShardCheckpointPath(options_.work_dir, options_.shard);
  COANE_RETURN_IF_ERROR(model_->SaveCheckpoint(path, &options_.io_retry));
  return AttestArtifacts(&manifest_,
                         ShardManifestPath(options_.work_dir, options_.shard),
                         {{ShardCheckpointKind(), path}}, plan_fingerprint_,
                         &options_.io_retry)
      .status();
}

Status ShardWorker::Publish() {
  const int round = options_.round;
  const std::string model_path =
      ShardRoundModelPath(options_.work_dir, options_.shard, round);
  const std::string emb_path =
      ShardRoundEmbeddingsPath(options_.work_dir, options_.shard, round);

  COANE_RETURN_IF_ERROR(
      model_->SaveCheckpoint(model_path, &options_.io_retry));
  COANE_RETURN_IF_ERROR(RetryOp(
      options_.io_retry, nullptr, "dist.publish_embeddings",
      [&] {
        return SaveEmbeddings(model_->embeddings(), emb_path);
      }));

  COANE_RETURN_IF_ERROR(
      AttestArtifacts(&manifest_,
                      ShardManifestPath(options_.work_dir, options_.shard),
                      {{RoundModelKind(round), model_path},
                       {RoundEmbeddingsKind(round), emb_path}},
                      plan_fingerprint_, &options_.io_retry)
          .status());

  // Merge-poisoning chaos: rot the published bytes *after* the manifest
  // attested them, so the artifact and its attestation disagree. The
  // coordinator's verify gate must quarantine this shard's output.
  if (fault::ShouldFail(ShardPoint("corrupt", options_.shard))) {
    auto bytes = ReadFileToString(model_path);
    if (bytes.ok() && !bytes.value().empty()) {
      std::string rotted = std::move(bytes).ValueOrDie();
      rotted[rotted.size() / 2] ^= 0x40;
      COANE_RETURN_IF_ERROR(WriteFileAtomic(model_path, rotted));
    }
  }
  return Status::OK();
}

Status ShardWorker::TouchHeartbeat() {
  // The payload is informational; the mtime is the lease signal.
  const std::string path =
      ShardHeartbeatPath(options_.work_dir, options_.shard);
  const int epochs = model_ != nullptr ? model_->epochs_done() : 0;
  return WriteFileAtomic(path, "epoch " + std::to_string(epochs) + "\n");
}

Status ShardWorker::RunRound(const RunContext* ctx) {
  COANE_RETURN_IF_ERROR(ValidatePlan(plan_));
  if (options_.shard < 0 || options_.shard >= plan_.num_shards) {
    return Status::InvalidArgument(
        "shard " + std::to_string(options_.shard) + " outside plan of " +
        std::to_string(plan_.num_shards) + " shards");
  }
  if (options_.round < 0 || options_.round >= plan_.num_rounds()) {
    return Status::InvalidArgument(
        "round " + std::to_string(options_.round) + " outside plan of " +
        std::to_string(plan_.num_rounds()) + " rounds");
  }
  COANE_RETURN_IF_ERROR(VerifyPlanFile(options_.work_dir, plan_));
  COANE_RETURN_IF_ERROR(
      MakeDirs(ShardDir(options_.work_dir, options_.shard)));

  COANE_RETURN_IF_ERROR(EnsureModel(ctx));

  // The shard manifest is advisory state owned by this worker: unreadable
  // or corrupt just means "attest from scratch" (the quarantine logic in
  // ResumeOwnCheckpoint handles any artifact fallout).
  auto manifest = ArtifactManifest::Load(
      ShardManifestPath(options_.work_dir, options_.shard));
  manifest_ = manifest.ok() ? std::move(manifest).ValueOrDie()
                            : ArtifactManifest();

  COANE_RETURN_IF_ERROR(ResumeOwnCheckpoint());

  const int end_epoch = plan_.RoundEndEpoch(options_.round);
  if (model_->epochs_done() > end_epoch) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(options_.shard) + " is at epoch " +
        std::to_string(model_->epochs_done()) + ", past round " +
        std::to_string(options_.round) + " ending at epoch " +
        std::to_string(end_epoch) +
        " — the round schedule went backwards");
  }

  const std::string crash_point = ShardPoint("crash", options_.shard);
  const std::string abort_point = ShardPoint("abort", options_.shard);
  const std::string hang_point = ShardPoint("hang", options_.shard);

  COANE_RETURN_IF_ERROR(TouchHeartbeat());
  while (model_->epochs_done() < end_epoch) {
    const int epoch = model_->epochs_done();
    if (epoch % plan_.round_epochs == 0 && epoch / plan_.round_epochs > 0) {
      // Entering round q at its boundary: adopt the parameters merged at
      // the end of round q-1. Idempotent, so a crash replay re-applies
      // harmlessly; a worker resumed mid-round skips this (its own
      // checkpoint already includes the application).
      COANE_RETURN_IF_ERROR(
          ApplyMerge(epoch / plan_.round_epochs - 1, ctx));
    }
    if (fault::ShouldFail(crash_point)) {
      // A real crash: no unwinding, no destructors — exactly what a
      // worker process dying mid-round looks like to the coordinator.
      ::kill(::getpid(), SIGKILL);
    }
    if (fault::ShouldFail(abort_point)) {
      return Status::Internal("injected worker abort at epoch " +
                              std::to_string(epoch));
    }
    if (fault::ShouldFail(hang_point)) {
      // Stop heartbeating without exiting: the lease-expiry scenario.
      // Slices keep the hang responsive to a cooperative kill (the
      // in-process launcher's cancel flag).
      const Clock::time_point until =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(HangSeconds()));
      while (Clock::now() < until) {
        if (ctx != nullptr && ctx->Cancelled()) {
          return ctx->Check("dist.hang");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    auto stats = model_->TrainEpoch(ctx);
    if (!stats.ok()) return stats.status();
    COANE_RETURN_IF_ERROR(SaveOwn());
    COANE_RETURN_IF_ERROR(TouchHeartbeat());
  }
  return Publish();
}

}  // namespace dist
}  // namespace coane
