#include "dist/coordinator.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/atomic_file.h"
#include "core/checkpoint.h"
#include "dist/merge.h"
#include "graph/graph_io.h"

namespace coane {
namespace dist {
namespace {

using Clock = std::chrono::steady_clock;
using WallClock = std::chrono::system_clock;

/// The file's mtime as wall-clock seconds, or a negative value when the
/// file cannot be statted (never heartbeat yet).
double FileMtimeSeconds(const std::string& path) {
  struct stat st = {};
  if (::stat(path.c_str(), &st) != 0) return -1.0;
  return static_cast<double>(st.st_mtim.tv_sec) +
         static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
}

double WallNowSeconds() {
  return std::chrono::duration<double>(
             WallClock::now().time_since_epoch())
      .count();
}

/// Per-round life of one shard.
enum class ShardState { kPending, kRunning, kBackoff, kDone, kDead };

}  // namespace

std::string DistStats::ToString() const {
  std::string out;
  const auto add = [&out](const char* name, int64_t value) {
    if (!out.empty()) out += "  ";
    out += std::string(name) + " " + std::to_string(value);
  };
  add("rounds_committed", rounds_committed);
  add("degraded_rounds", degraded_rounds);
  add("shards_merged", shards_merged);
  add("shards_missing", shards_missing);
  add("worker_failures", worker_failures);
  add("worker_restarts", worker_restarts);
  add("lease_expiries", lease_expiries);
  add("artifacts_quarantined", artifacts_quarantined);
  return out;
}

Coordinator::Coordinator(const ShardPlan& plan, WorkerLauncher* launcher,
                         const CoordinatorOptions& options)
    : plan_(plan),
      launcher_(launcher),
      options_(options),
      plan_fingerprint_(PlanFingerprint(plan)) {}

Status Coordinator::Prepare() {
  if (prepared_) return Status::OK();
  COANE_RETURN_IF_ERROR(ValidatePlan(plan_));
  COANE_RETURN_IF_ERROR(MakeDirs(options_.work_dir));
  COANE_RETURN_IF_ERROR(MakeDirs(options_.work_dir + "/shards"));

  // The plan file is the contract every worker verifies before training.
  // An existing file must describe this exact plan — a mismatch means the
  // work dir belongs to another run, and silently overwriting it would
  // let two runs interleave artifacts.
  const Status plan_st = VerifyPlanFile(options_.work_dir, plan_);
  if (plan_st.code() == StatusCode::kNotFound) {
    COANE_RETURN_IF_ERROR(RetryOp(
        options_.io_retry, nullptr, "dist.plan_write",
        [&] {
          return SavePlanFile(options_.work_dir, plan_);
        }));
  } else {
    COANE_RETURN_IF_ERROR(plan_st);
  }

  const std::string log_path = RoundLogPath(options_.work_dir);
  if (PathExists(log_path)) {
    auto log = RoundLog::Load(log_path, plan_fingerprint_);
    if (!log.ok()) return log.status();
    round_log_ =
        std::make_unique<RoundLog>(std::move(log).ValueOrDie());
  } else {
    round_log_ = std::make_unique<RoundLog>(plan_fingerprint_);
  }

  // The coordinator manifest attests the merged artifacts workers apply.
  // A missing or corrupt manifest is rebuilt from the round log, whose
  // records carry the expected CRCs: the artifacts themselves are
  // re-described and must match, so a rotted merged file surfaces as
  // kDataLoss here instead of poisoning a worker later.
  const std::string manifest_path =
      CoordinatorManifestPath(options_.work_dir);
  auto manifest = ArtifactManifest::Load(manifest_path);
  if (manifest.ok()) {
    manifest_ = std::move(manifest).ValueOrDie();
  } else {
    manifest_ = ArtifactManifest();
    for (const RoundRecord& r : round_log_->rounds()) {
      struct Expect {
        std::string kind, path;
        uint32_t crc;
      };
      const Expect expects[2] = {
          {MergedModelKind(r.round),
           MergedModelPath(options_.work_dir, r.round),
           r.merged_model_crc},
          {MergedEmbeddingsKind(r.round),
           MergedEmbeddingsPath(options_.work_dir, r.round),
           r.merged_embeddings_crc}};
      for (const Expect& e : expects) {
        auto entry = DescribeArtifact(e.kind, e.path, plan_fingerprint_);
        if (!entry.ok()) {
          return Status::DataLoss(
              "committed merged artifact " + e.path +
              " is unreadable while rebuilding the manifest: " +
              entry.status().ToString());
        }
        if (entry.value().crc32 != e.crc) {
          return Status::DataLoss(
              "committed merged artifact " + e.path +
              " no longer matches the round log CRC");
        }
        COANE_RETURN_IF_ERROR(manifest_.Record(entry.value()));
      }
    }
    if (!round_log_->rounds().empty()) {
      COANE_RETURN_IF_ERROR(RetryOp(
          options_.io_retry, nullptr, "dist.manifest_write",
          [&] { return manifest_.Save(manifest_path); }));
    }
  }
  prepared_ = true;
  return Status::OK();
}

Status Coordinator::VerifyShardOutput(int shard, int round) const {
  const std::string manifest_path =
      ShardManifestPath(options_.work_dir, shard);
  COANE_RETURN_IF_ERROR(VerifyArtifactAgainstManifest(
      manifest_path, RoundModelKind(round),
      ShardRoundModelPath(options_.work_dir, shard, round),
      &plan_fingerprint_));
  return VerifyArtifactAgainstManifest(
      manifest_path, RoundEmbeddingsKind(round),
      ShardRoundEmbeddingsPath(options_.work_dir, shard, round),
      &plan_fingerprint_);
}

void Coordinator::QuarantineShardOutput(int shard, int round) {
  QuarantineArtifact(ShardRoundModelPath(options_.work_dir, shard, round));
  QuarantineArtifact(
      ShardRoundEmbeddingsPath(options_.work_dir, shard, round));
  ++stats_.artifacts_quarantined;
}

Result<RoundRecord> Coordinator::RunRound(const RunContext* ctx) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare() before RunRound()");
  }
  const int round = round_log_->next_round();
  if (round >= plan_.num_rounds()) {
    return Status::FailedPrecondition("all rounds already committed");
  }
  const int n = plan_.num_shards;
  const int max_concurrent = options_.max_concurrent_workers > 0
                                 ? options_.max_concurrent_workers
                                 : n;

  std::vector<ShardState> state(n, ShardState::kPending);
  std::vector<int64_t> handle(n, -1);
  std::vector<int> failures(n, 0);
  std::vector<Clock::time_point> next_start(n, Clock::now());
  std::vector<double> launched_at(n, 0.0);  // wall clock, for the lease
  std::vector<bool> kill_issued(n, false);

  // Crash-resume / relaunch idempotence: a shard whose round outputs
  // already verify is done — publishing is the worker's last act, so the
  // bytes on disk are its complete round result.
  for (int s = 0; s < n; ++s) {
    if (VerifyShardOutput(s, round).ok()) state[s] = ShardState::kDone;
  }

  const auto count_in = [&](ShardState wanted) {
    int c = 0;
    for (const ShardState& st : state) c += (st == wanted) ? 1 : 0;
    return c;
  };

  const auto fail_shard = [&](int s, const std::string& why) {
    ++stats_.worker_failures;
    ++failures[s];
    handle[s] = -1;
    if (failures[s] > options_.max_restarts_per_round) {
      state[s] = ShardState::kDead;
      std::fprintf(stderr,
                   "[coordinator] round %d shard %d dead after %d "
                   "failures (%s)\n",
                   round, s, failures[s], why.c_str());
    } else {
      state[s] = ShardState::kBackoff;
      const double delay =
          BackoffDelaySeconds(options_.restart_backoff, failures[s]);
      next_start[s] =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(delay));
      std::fprintf(stderr,
                   "[coordinator] round %d shard %d failed (%s); "
                   "restart %d/%d in %.2fs\n",
                   round, s, why.c_str(), failures[s],
                   options_.max_restarts_per_round, delay);
    }
  };

  // Kills every running worker and waits for the launcher to reap it —
  // the round must not return while an old incarnation could still be
  // writing into a shard directory the next round will hand out again.
  const auto kill_and_reap_running = [&]() {
    for (int s = 0; s < n; ++s) {
      if (state[s] == ShardState::kRunning) launcher_->Kill(handle[s]);
    }
    for (int s = 0; s < n; ++s) {
      if (state[s] != ShardState::kRunning) continue;
      while (launcher_->Poll(handle[s]).running) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  };

  const Clock::time_point round_start = Clock::now();
  bool committing_degraded = false;

  for (;;) {
    if (ctx != nullptr) {
      const Status stopped = ctx->Check("dist.round");
      if (!stopped.ok()) {
        kill_and_reap_running();
        return stopped;
      }
    }

    // Launch in ascending shard order — determinism of scheduling is not
    // required for result bytes (the merge orders by shard id), but a
    // stable order keeps logs and tests predictable.
    for (int s = 0; s < n; ++s) {
      const bool launchable =
          state[s] == ShardState::kPending ||
          (state[s] == ShardState::kBackoff &&
           Clock::now() >= next_start[s]);
      if (!launchable) continue;
      if (count_in(ShardState::kRunning) >= max_concurrent) break;
      const bool is_restart = state[s] == ShardState::kBackoff;
      auto started = launcher_->Start(s, round);
      if (!started.ok()) {
        fail_shard(s, "launch failed: " + started.status().ToString());
        continue;
      }
      handle[s] = started.value();
      state[s] = ShardState::kRunning;
      kill_issued[s] = false;
      launched_at[s] = WallNowSeconds();
      if (is_restart) ++stats_.worker_restarts;
    }

    // Poll running workers: exits route through the verify gate, silence
    // past the lease gets a kill (and then routes through the exit path).
    for (int s = 0; s < n; ++s) {
      if (state[s] != ShardState::kRunning) continue;
      const WorkerReport report = launcher_->Poll(handle[s]);
      if (!report.running) {
        if (report.exit_code == 0 && report.term_signal == 0) {
          const Status verified = VerifyShardOutput(s, round);
          if (verified.ok()) {
            state[s] = ShardState::kDone;
            handle[s] = -1;
          } else if (verified.code() == StatusCode::kDataLoss ||
                     verified.code() == StatusCode::kFailedPrecondition) {
            // Attested bytes that do not verify: the merge-poisoning
            // case. Quarantine so no later pass can trust them.
            QuarantineShardOutput(s, round);
            fail_shard(s, "corrupt output: " + verified.ToString());
          } else {
            fail_shard(s, "exited without verifiable output: " +
                              verified.ToString());
          }
        } else if (kill_issued[s]) {
          fail_shard(s, "killed after lease expiry");
        } else if (report.term_signal != 0) {
          fail_shard(s, "died on signal " +
                            std::to_string(report.term_signal));
        } else {
          fail_shard(s, "exited with code " +
                            std::to_string(report.exit_code));
        }
        continue;
      }
      if (options_.lease_sec > 0 && !kill_issued[s]) {
        const double beat = FileMtimeSeconds(
            ShardHeartbeatPath(options_.work_dir, s));
        const double last_alive = std::max(beat, launched_at[s]);
        if (WallNowSeconds() - last_alive > options_.lease_sec) {
          launcher_->Kill(handle[s]);
          kill_issued[s] = true;
          ++stats_.lease_expiries;
          std::fprintf(stderr,
                       "[coordinator] round %d shard %d lease expired "
                       "(no heartbeat for %.2fs); killing\n",
                       round, s, WallNowSeconds() - last_alive);
        }
      }
    }

    const int done = count_in(ShardState::kDone);
    const int dead = count_in(ShardState::kDead);
    const int active = n - done - dead;

    if (done == n) break;
    if (active == 0) {
      if (done >= plan_.quorum) {
        committing_degraded = true;
        break;
      }
      return Status::Unavailable(
          "round " + std::to_string(round) + " cannot reach quorum: " +
          std::to_string(done) + " shards committed, " +
          std::to_string(dead) + " dead, quorum is " +
          std::to_string(plan_.quorum));
    }
    if (done + active < plan_.quorum) {
      kill_and_reap_running();
      return Status::Unavailable(
          "round " + std::to_string(round) +
          " cannot reach quorum even if every live shard finishes");
    }
    if (options_.round_deadline_sec > 0 && done >= plan_.quorum &&
        std::chrono::duration<double>(Clock::now() - round_start)
                .count() > options_.round_deadline_sec) {
      // Straggler deadline: quorum is satisfied, the stragglers are cut.
      // Below quorum the deadline never fires — it authorizes degraded
      // commits, not failures.
      std::fprintf(stderr,
                   "[coordinator] round %d deadline passed with %d/%d "
                   "shards; committing degraded without stragglers\n",
                   round, done, n);
      kill_and_reap_running();
      for (int s = 0; s < n; ++s) {
        if (state[s] != ShardState::kDone) state[s] = ShardState::kDead;
      }
      committing_degraded = true;
      break;
    }

    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(0.001, options_.poll_interval_sec)));
  }

  std::vector<int> committed;
  for (int s = 0; s < n; ++s) {
    if (state[s] == ShardState::kDone) committed.push_back(s);
  }
  (void)committing_degraded;
  return CommitRound(round, committed);
}

Result<RoundRecord> Coordinator::CommitRound(
    int round, const std::vector<int>& shards) {
  // Re-read through the CRC'd formats (checkpoint sections, embedding
  // footer): the verify gate ran on raw bytes, this pass re-validates
  // structure at parse time, so a torn write between gate and merge
  // still cannot feed garbage into the average.
  std::vector<TrainingCheckpoint> ckpts;
  std::vector<DenseMatrix> embs;
  ckpts.reserve(shards.size());
  embs.reserve(shards.size());
  for (int s : shards) {
    auto ckpt = ReadCheckpointFile(
        ShardRoundModelPath(options_.work_dir, s, round));
    if (!ckpt.ok()) return ckpt.status();
    ckpts.push_back(std::move(ckpt).ValueOrDie());
    auto emb = LoadEmbeddings(
        ShardRoundEmbeddingsPath(options_.work_dir, s, round));
    if (!emb.ok()) return emb.status();
    embs.push_back(std::move(emb).ValueOrDie());
  }
  std::vector<const TrainingCheckpoint*> ckpt_ptrs;
  std::vector<const DenseMatrix*> emb_ptrs;
  for (size_t i = 0; i < shards.size(); ++i) {
    ckpt_ptrs.push_back(&ckpts[i]);
    emb_ptrs.push_back(&embs[i]);
  }
  auto merged_ckpt = AverageCheckpoints(ckpt_ptrs, plan_fingerprint_);
  if (!merged_ckpt.ok()) return merged_ckpt.status();
  auto merged_emb = AverageEmbeddings(emb_ptrs);
  if (!merged_emb.ok()) return merged_emb.status();

  COANE_RETURN_IF_ERROR(MakeDirs(RoundDir(options_.work_dir, round)));
  const std::string model_path = MergedModelPath(options_.work_dir, round);
  const std::string emb_path =
      MergedEmbeddingsPath(options_.work_dir, round);
  COANE_RETURN_IF_ERROR(RetryOp(
      options_.io_retry, nullptr, "dist.merged_write",
      [&] {
        return WriteCheckpointFile(model_path, merged_ckpt.value());
      }));
  COANE_RETURN_IF_ERROR(RetryOp(
      options_.io_retry, nullptr, "dist.merged_write",
      [&] {
        return SaveEmbeddings(merged_emb.value(), emb_path);
      }));

  auto attested = AttestArtifacts(
      &manifest_, CoordinatorManifestPath(options_.work_dir),
      {{MergedModelKind(round), model_path},
       {MergedEmbeddingsKind(round), emb_path}},
      plan_fingerprint_, &options_.io_retry);
  if (!attested.ok()) return attested.status();

  RoundRecord record;
  record.round = round;
  record.end_epoch = plan_.RoundEndEpoch(round);
  record.committed = shards;
  for (int s = 0; s < plan_.num_shards; ++s) {
    if (!std::binary_search(shards.begin(), shards.end(), s)) {
      record.missing.push_back(s);
    }
  }
  record.degraded = !record.missing.empty();
  record.merged_model_crc = attested.value()[0].crc32;
  record.merged_embeddings_crc = attested.value()[1].crc32;
  COANE_RETURN_IF_ERROR(
      round_log_->Commit(record, RoundLogPath(options_.work_dir)));

  ++stats_.rounds_committed;
  if (record.degraded) ++stats_.degraded_rounds;
  stats_.shards_merged += static_cast<int64_t>(record.committed.size());
  stats_.shards_missing += static_cast<int64_t>(record.missing.size());
  return record;
}

Status Coordinator::Run(const std::string& out_path,
                        const RunContext* ctx) {
  COANE_RETURN_IF_ERROR(Prepare());
  while (round_log_->next_round() < plan_.num_rounds()) {
    auto record = RunRound(ctx);
    if (!record.ok()) return record.status();
    const RoundRecord& r = record.value();
    std::fprintf(stderr,
                 "[coordinator] round %d committed: %zu/%d shards%s\n",
                 r.round, r.committed.size(), plan_.num_shards,
                 r.degraded ? " (degraded)" : "");
  }
  if (out_path.empty()) return Status::OK();

  // Final export: the last round's merged embeddings, re-verified
  // through the manifest gate before a single byte is copied out.
  const int final_round = plan_.num_rounds() - 1;
  const std::string emb_path =
      MergedEmbeddingsPath(options_.work_dir, final_round);
  COANE_RETURN_IF_ERROR(VerifyArtifactAgainstManifest(
      CoordinatorManifestPath(options_.work_dir),
      MergedEmbeddingsKind(final_round), emb_path, &plan_fingerprint_));
  auto final_emb = LoadEmbeddings(emb_path);
  if (!final_emb.ok()) return final_emb.status();
  return RetryOp(options_.io_retry, nullptr, "dist.out_write",
                 [&] {
                   return SaveEmbeddings(final_emb.value(), out_path);
                 });
}

}  // namespace dist
}  // namespace coane
