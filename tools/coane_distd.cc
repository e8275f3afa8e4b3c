// coane_distd — fault-tolerant multi-process sharded training.
//
// A coordinator assigns shards of the epoch budget to worker processes,
// collects their round outputs through a manifest-gated artifact
// exchange, and averages parameters at round barriers. The run survives
// worker crashes (SIGKILL mid-round resumes from the shard's own
// checkpoint), hangs (heartbeat leases), stragglers (quorum commits past
// the round deadline, recorded as degraded), and corrupt shard outputs
// (quarantined, never merged). See DESIGN.md §8.
//
//   coane_distd train --edges=cora.edges --attrs=cora.attrs \
//       --out=cora.emb --work-dir=/tmp/dist --shards=4 --quorum=3 \
//       --round-epochs=2 --epochs=10 --round-deadline-sec=120
//
// The `worker` subcommand is the coordinator's child process entry point
// (the PR 4 supervisor pattern: one fork/exec per shard attempt); it is
// not meant to be invoked by hand but is safe to.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/os_error.h"
#include "common/run_context.h"
#include "common/string_utils.h"
#include "core/coane_model.h"
#include "core/config_flags.h"
#include "dist/coordinator.h"
#include "dist/shard_plan.h"
#include "dist/worker.h"

namespace coane {
namespace {

using dist::Coordinator;
using dist::CoordinatorOptions;
using dist::ShardPlan;
using dist::ShardWorker;
using dist::WorkerLauncher;
using dist::WorkerOptions;
using dist::WorkerReport;

// The shared "--key=value" convention (common/flags.h): bare "--key" is
// "true", malformed numbers are a usage error (exit 2), never an abort.
// FlagSet::raw() is what the coordinator forwards to worker processes so
// both sides build the same plan and config from the same values.
using Flags = flags::FlagSet;

int Usage() {
  std::fprintf(
      stderr,
      "usage: coane_distd <command> [--flags]\n"
      "commands:\n"
      "  train   coordinator: run sharded training to completion\n"
      "    --edges=FILE [--attrs=FILE] --out=FILE --work-dir=DIR\n"
      "    sharding:\n"
      "      --shards=N          worker shards (default 1; --shards=1 is\n"
      "                          byte-identical to coane_cli train)\n"
      "      --quorum=K          min shards per round commit (default N);\n"
      "                          rounds with K..N-1 shards commit degraded\n"
      "      --round-epochs=E    epochs between averaging barriers (1)\n"
      "    robustness:\n"
      "      --round-deadline-sec=S  once quorum is met, cut stragglers\n"
      "                          after S seconds (0 = wait for all)\n"
      "      --lease-sec=S       kill+restart a worker silent for S\n"
      "                          seconds (0 = off)\n"
      "      --worker-restarts=N relaunch budget per shard per round (3)\n"
      "      --max-workers=N     concurrent worker processes (0 = one\n"
      "                          per shard; results identical at any N)\n"
      "      --io-retries=N      attempts per artifact/manifest write (3)\n"
      "      --merge-wait-sec=S  worker wait for the previous round's\n"
      "                          merge to appear (60)\n"
      "    training: --dim --epochs --context --walks --walk-length\n"
      "      --negatives --gamma --lr --seed --presample --grad-clip\n"
      "      --threads (per worker)\n"
      "      --missing-attrs=reject|zero|mean|neighbor  imputation for\n"
      "      masked attribute entries (default zero); every shard gets\n"
      "      the same policy and mask, enforced by the data fingerprint\n"
      "      at merge barriers\n"
      "    loader: --on-bad-line=strict|skip --max-nodes=N\n"
      "      --max-attr-dim=N, as in coane_cli; the coordinator and every\n"
      "      worker load under them\n"
      "    prints one line per committed round and a final STATS line\n"
      "  worker  internal: train one shard for one round (fork/exec'd by\n"
      "          train); adds --shard=S --round=R to the train flags\n");
  return 2;
}

// The training config is coane_cli's (CoaneConfigFromFlags), so
// --shards=1 reproduces `coane_cli train` byte for byte.
Result<ShardPlan> PlanFromFlags(const Flags& flags, const Graph& graph) {
  auto base = CoaneConfigFromFlags(flags);
  if (!base.ok()) return base.status();
  ShardPlan plan;
  plan.num_shards = static_cast<int>(flags.GetInt("shards", 1));
  plan.quorum =
      static_cast<int>(flags.GetInt("quorum", plan.num_shards));
  plan.round_epochs = static_cast<int>(flags.GetInt("round-epochs", 1));
  plan.base = std::move(base).ValueOrDie();
  if (graph.num_attributes() == 0) {
    plan.base.use_attributes = false;
    plan.base.use_attribute_loss = false;
  }
  return plan;
}

// Runs workers as real OS processes: one fork/exec of this binary's
// `worker` subcommand per Start, SIGKILL on Kill, waitpid(WNOHANG) on
// Poll. Reaped exit statuses are cached so the coordinator can keep
// polling an exited handle (waitpid only answers once per child).
class ProcessWorkerLauncher : public WorkerLauncher {
 public:
  ProcessWorkerLauncher(std::string exe, std::vector<std::string> flags)
      : exe_(std::move(exe)), flags_(std::move(flags)) {}

  Result<int64_t> Start(int shard, int round) override {
    std::vector<std::string> args;
    args.push_back(exe_);
    args.push_back("worker");
    for (const std::string& flag : flags_) args.push_back(flag);
    args.push_back("--shard=" + std::to_string(shard));
    args.push_back("--round=" + std::to_string(round));
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) return ErrnoToStatus(errno, "fork");
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      std::fprintf(stderr, "execv %s: %s\n", argv[0],
                   std::strerror(errno));
      ::_exit(127);
    }
    return static_cast<int64_t>(pid);
  }

  WorkerReport Poll(int64_t handle) override {
    auto it = reaped_.find(handle);
    if (it != reaped_.end()) return it->second;
    WorkerReport report;
    int status = 0;
    const pid_t r =
        ::waitpid(static_cast<pid_t>(handle), &status, WNOHANG);
    if (r == 0) {
      report.running = true;
      return report;
    }
    report.exited = true;
    if (r > 0 && WIFEXITED(status)) {
      report.exit_code = WEXITSTATUS(status);
    } else if (r > 0 && WIFSIGNALED(status)) {
      report.term_signal = WTERMSIG(status);
      report.exit_code = 128 + report.term_signal;
    } else {
      report.exit_code = 127;  // unknown child: count it as failed
    }
    reaped_[handle] = report;
    return report;
  }

  void Kill(int64_t handle) override {
    if (reaped_.count(handle) > 0) return;
    ::kill(static_cast<pid_t>(handle), SIGKILL);
  }

 private:
  const std::string exe_;
  const std::vector<std::string> flags_;
  std::map<int64_t, WorkerReport> reaped_;
};

int RunTrain(const char* exe, const Flags& flags) {
  const std::string out = flags.Get("out");
  const std::string work_dir = flags.Get("work-dir");
  if (out.empty() || work_dir.empty()) return Usage();
  // Coordinator-side faults (plan/round-log/merged writes) arm from the
  // global COANE_FAULT; worker faults arm per shard in the worker
  // process from COANE_FAULT_SHARD_<s>, so a chaos test can kill shard 1
  // without touching shard 0 or the coordinator.
  if (Status st = fault::ArmFromEnv(); !st.ok()) return UsageExit(st);
  RunContext ctx = RunContextFromFlags(flags);

  auto graph = LoadFromFlags(flags, &ctx);
  if (!graph.ok()) return ExitWith(graph.status());
  if (graph.value().num_attributes() == 0) {
    std::printf("no attributes given; training structure-only (WF mode)\n");
  }
  auto parsed_plan = PlanFromFlags(flags, graph.value());
  if (!parsed_plan.ok()) return UsageExit(parsed_plan.status());
  const ShardPlan& plan = parsed_plan.value();

  ProcessWorkerLauncher launcher(exe, flags.raw());
  CoordinatorOptions options;
  options.work_dir = work_dir;
  options.round_deadline_sec = flags.GetDouble("round-deadline-sec", 0.0);
  options.lease_sec = flags.GetDouble("lease-sec", 0.0);
  options.max_restarts_per_round =
      static_cast<int>(flags.GetInt("worker-restarts", 3));
  options.max_concurrent_workers =
      static_cast<int>(flags.GetInt("max-workers", 0));
  options.poll_interval_sec = flags.GetDouble("poll-interval-sec", 0.02);
  options.restart_backoff = MakeRetryPolicy(flags);
  options.io_retry = MakeRetryPolicy(flags);

  Coordinator coordinator(plan, &launcher, options);
  const Status st = coordinator.Run(out, &ctx);
  std::printf("STATS %s\n", coordinator.stats().ToString().c_str());
  if (!st.ok()) {
    return ExitWith(
        st, "rerun with the same flags to resume after round " +
                std::to_string(coordinator.round_log() != nullptr
                                   ? coordinator.round_log()->next_round() - 1
                                   : -1));
  }
  std::printf("embeddings written to %s (%d shards, %d rounds)\n",
              out.c_str(), plan.num_shards, plan.num_rounds());
  return 0;
}

int RunWorker(const Flags& flags) {
  const std::string work_dir = flags.Get("work-dir");
  if (work_dir.empty() || !flags.Has("shard") || !flags.Has("round")) {
    return Usage();
  }
  const int shard = static_cast<int>(flags.GetInt("shard", 0));
  // Shard-targeted chaos only: the global COANE_FAULT is deliberately
  // NOT armed here — it would fire in every worker at once.
  const std::string fault_env =
      "COANE_FAULT_SHARD_" + std::to_string(shard);
  if (const char* spec = std::getenv(fault_env.c_str())) {
    if (Status st = fault::ArmFromEnv(spec); !st.ok()) {
      return UsageExit(
          Status::InvalidArgument(fault_env + ": " + st.message()));
    }
  }
  RunContext ctx = RunContextFromFlags(flags);

  auto graph = LoadFromFlags(flags, &ctx);
  if (!graph.ok()) return ExitWith(graph.status());

  WorkerOptions options;
  options.work_dir = work_dir;
  options.shard = shard;
  options.round = static_cast<int>(flags.GetInt("round", 0));
  options.io_retry = MakeRetryPolicy(flags);
  options.merge_wait_sec = flags.GetDouble("merge-wait-sec", 60.0);

  // Bound to a local: ShardWorker keeps a reference to the plan.
  auto parsed_plan = PlanFromFlags(flags, graph.value());
  if (!parsed_plan.ok()) return UsageExit(parsed_plan.status());
  const ShardPlan& plan = parsed_plan.value();
  ShardWorker worker(graph.value(), plan, options);
  return ExitWith(worker.RunRound(&ctx));
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (Status st = ApplyThreadsFlag(flags); !st.ok()) return UsageExit(st);
  if (command == "train") return RunTrain(argv[0], flags);
  if (command == "worker") return RunWorker(flags);
  return Usage();
}

}  // namespace
}  // namespace coane

int main(int argc, char** argv) { return coane::Main(argc, argv); }
