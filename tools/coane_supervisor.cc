// coane_supervisor — crash-recovery supervisor for unattended training.
//
// Fork/execs a training child (normally `coane_cli train` with a
// --checkpoint-dir), watches it, and keeps the job moving without a
// human:
//
//   - a crashed child (signal, non-zero exit) is restarted from the
//     latest checkpoint with bounded, deterministically jittered backoff;
//   - a cooperatively stopped child (watchdog-declared hang, deadline)
//     that exited 0 without producing the output is restarted the same
//     way;
//   - a child that hangs so hard its checkpoint stops advancing for
//     --hang-sec is SIGKILLed and restarted (the backstop behind the
//     child's own --watchdog-sec);
//   - K consecutive failures with no epoch progress quarantine the run:
//     a report is written to <checkpoint-dir>/quarantine.txt and the
//     supervisor exits 3 — a crash loop must page a human, not spin.
//
// The child is passed --resume=auto, so a missing checkpoint starts
// fresh and a corrupt one is quarantined and recomputed instead of
// trusted (the child verifies it against the artifact manifest).
//
// Usage:
//   coane_supervisor --checkpoint-dir=DIR --out=FILE
//       [--max-restarts=20] [--max-crashes-at-step=3] [--hang-sec=0]
//       [--backoff-ms=200] [--backoff-max-ms=5000] [--seed=42]
//       -- <child command and args...>
//
// Example:
//   coane_supervisor --checkpoint-dir=/tmp/run/ck --out=/tmp/run/z.emb
//       -- ./coane_cli train --edges=g.edges --attrs=g.attrs
//          --out=/tmp/run/z.emb --checkpoint-dir=/tmp/run/ck
//          --checkpoint-every=1 --watchdog-sec=30

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/flags.h"
#include "common/os_error.h"
#include "common/retry.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/checkpoint.h"

namespace coane {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: coane_supervisor --checkpoint-dir=DIR --out=FILE [flags] "
      "-- <child command...>\n"
      "flags:\n"
      "  --max-restarts=N        give up after N restarts total "
      "(default 20)\n"
      "  --max-crashes-at-step=K quarantine after K consecutive failures\n"
      "                          with no epoch progress (default 3)\n"
      "  --hang-sec=S            SIGKILL a child whose checkpoint has not\n"
      "                          advanced for S seconds (default 0 = off)\n"
      "  --backoff-ms=B          initial restart backoff (default 200)\n"
      "  --backoff-max-ms=B      backoff cap (default 5000)\n"
      "  --seed=N                backoff jitter seed (default 42)\n"
      "exit codes: 0 success, 1 spawn failure, 2 usage, 3 quarantined\n");
  return 2;
}

// Nanosecond mtime of `path`, or -1 when it cannot be statted. The
// supervisor's notion of "the child is making durable progress".
int64_t FileMtimeNanos(const std::string& path) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
         st.st_mtim.tv_nsec;
}

// epochs_done of the checkpoint, or -1 when it is missing/unreadable —
// an unreadable checkpoint counts as "no progress", which is what drives
// the quarantine counter.
int64_t CheckpointEpoch(const std::string& path) {
  if (!PathExists(path)) return -1;
  auto epoch = ReadCheckpointEpoch(path);
  return epoch.ok() ? epoch.value() : -1;
}

struct ChildOutcome {
  bool exited = false;      // normal exit (vs signal)
  int exit_code = 0;
  int term_signal = 0;
  bool killed_for_hang = false;
};

class Supervisor {
 public:
  Supervisor(std::string checkpoint_dir, std::string out_path,
             std::vector<std::string> child_argv, int max_restarts,
             int max_crashes_at_step, double hang_sec, RetryPolicy backoff)
      : checkpoint_dir_(std::move(checkpoint_dir)),
        checkpoint_path_(checkpoint_dir_ + "/coane.ckpt"),
        out_path_(std::move(out_path)),
        child_argv_(std::move(child_argv)),
        max_restarts_(max_restarts),
        max_crashes_at_step_(max_crashes_at_step),
        hang_sec_(hang_sec),
        backoff_(backoff) {}

  int Run() {
    int consecutive_failures = 0;
    int64_t last_failed_epoch = -2;  // -2: sentinel "no failure yet"
    for (int attempt = 1;; ++attempt) {
      const int64_t epoch_before = CheckpointEpoch(checkpoint_path_);
      ChildOutcome outcome;
      Status spawned = RunChildOnce(attempt, &outcome);
      if (!spawned.ok()) {
        std::fprintf(stderr, "[supervisor] %s\n",
                     spawned.ToString().c_str());
        return 1;
      }

      if (outcome.exited && outcome.exit_code == 0 &&
          PathExists(out_path_)) {
        std::printf("[supervisor] success: %s written (attempt %d)\n",
                    out_path_.c_str(), attempt);
        return 0;
      }

      const int64_t epoch_after = CheckpointEpoch(checkpoint_path_);
      const std::string reason = DescribeFailure(outcome);
      // Progress resets the crash-loop counter: crashing at a *new* step
      // is a new problem, not the same one getting worse.
      if (epoch_after > epoch_before || epoch_after != last_failed_epoch) {
        consecutive_failures = 1;
      } else {
        ++consecutive_failures;
      }
      last_failed_epoch = epoch_after;
      std::printf(
          "[supervisor] child %s at epoch %lld (%d consecutive at this "
          "step)\n",
          reason.c_str(), static_cast<long long>(epoch_after),
          consecutive_failures);

      if (consecutive_failures >= max_crashes_at_step_) {
        return Quarantine(reason, outcome, epoch_after,
                          consecutive_failures);
      }
      if (attempt > max_restarts_) {
        return Quarantine("restart budget exhausted (" + reason + ")",
                          outcome, epoch_after, consecutive_failures);
      }
      const double delay = BackoffDelaySeconds(backoff_, attempt);
      std::printf("[supervisor] restarting from epoch %lld in %.3fs\n",
                  static_cast<long long>(epoch_after), delay);
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  }

 private:
  // Spawns one child run and waits for it, enforcing --hang-sec. Only
  // spawn-level problems (fork/exec failing) are a Status error; the
  // child's own death lands in `outcome`.
  Status RunChildOnce(int attempt, ChildOutcome* outcome) {
    std::vector<std::string> argv = child_argv_;
    // --resume=auto: resume when the checkpoint verifies, start fresh
    // (quarantining the file) when it is missing, corrupt, or stale.
    argv.push_back("--resume=auto");

    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (std::string& arg : argv) cargv.push_back(arg.data());
    cargv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      return Status::IoError(std::string("fork failed: ") +
                             std::strerror(errno));
    }
    if (pid == 0) {
      ::execv(cargv[0], cargv.data());
      std::fprintf(stderr, "[supervisor] execv %s failed: %s\n", cargv[0],
                   std::strerror(errno));
      ::_exit(127);
    }
    std::printf("[supervisor] attempt %d: started pid %d\n", attempt,
                static_cast<int>(pid));

    using Clock = std::chrono::steady_clock;
    const Clock::time_point started = Clock::now();
    int64_t last_progress_mtime = FileMtimeNanos(checkpoint_path_);
    Clock::time_point last_progress_at = started;
    for (;;) {
      int wstatus = 0;
      const pid_t done = ::waitpid(pid, &wstatus, WNOHANG);
      if (done == pid) {
        if (WIFEXITED(wstatus)) {
          outcome->exited = true;
          outcome->exit_code = WEXITSTATUS(wstatus);
        } else if (WIFSIGNALED(wstatus)) {
          outcome->term_signal = WTERMSIG(wstatus);
        }
        if (outcome->exited && outcome->exit_code == 127) {
          return Status::IoError("child command not executable: " +
                                 child_argv_.front());
        }
        return Status::OK();
      }
      if (done < 0) {
        return Status::IoError(std::string("waitpid failed: ") +
                               std::strerror(errno));
      }
      if (hang_sec_ > 0.0) {
        const int64_t mtime = FileMtimeNanos(checkpoint_path_);
        const Clock::time_point now = Clock::now();
        if (mtime != last_progress_mtime) {
          last_progress_mtime = mtime;
          last_progress_at = now;
        } else if (std::chrono::duration<double>(now - last_progress_at)
                       .count() > hang_sec_) {
          std::printf(
              "[supervisor] no checkpoint progress for %.1fs; killing pid "
              "%d\n",
              hang_sec_, static_cast<int>(pid));
          ::kill(pid, SIGKILL);
          outcome->killed_for_hang = true;
          // Fall through to reap it on the next poll.
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  static std::string DescribeFailure(const ChildOutcome& outcome) {
    if (outcome.killed_for_hang) return "hung (killed by supervisor)";
    if (outcome.exited && outcome.exit_code == 0) {
      return "stopped cooperatively before finishing";
    }
    if (outcome.exited) {
      return "exited with code " + std::to_string(outcome.exit_code);
    }
    return "died on signal " + std::to_string(outcome.term_signal) +
           " (" + SignalName(outcome.term_signal) + ")";
  }

  int Quarantine(const std::string& reason, const ChildOutcome& outcome,
                 int64_t epoch, int failures) const {
    const std::string path = checkpoint_dir_ + "/quarantine.txt";
    // The human paged by this report triages from it alone: the signal
    // name says *how* the child died, the checkpoint epoch says where a
    // manual --resume would pick up (-1: no checkpoint survived).
    const std::string signal_line =
        outcome.term_signal != 0
            ? SignalName(outcome.term_signal) + " (" +
                  std::to_string(outcome.term_signal) + ")"
            : "none (child was not signalled)";
    std::string report =
        "coane_supervisor quarantine report\n"
        "reason: " + reason + "\n"
        "stuck at epoch: " + std::to_string(epoch) + "\n"
        "terminating signal: " + signal_line + "\n"
        "last checkpoint epoch: " +
        std::to_string(CheckpointEpoch(checkpoint_path_)) + "\n"
        "consecutive failures: " + std::to_string(failures) + "\n"
        "child command:";
    for (const std::string& arg : child_argv_) report += " " + arg;
    report += "\n";
    const Status st = WriteFileAtomic(path, report);
    std::fprintf(stderr,
                 "[supervisor] quarantined after %d consecutive failures "
                 "at epoch %lld (%s); report: %s\n",
                 failures, static_cast<long long>(epoch), reason.c_str(),
                 st.ok() ? path.c_str() : st.ToString().c_str());
    return 3;
  }

  const std::string checkpoint_dir_;
  const std::string checkpoint_path_;
  const std::string out_path_;
  const std::vector<std::string> child_argv_;
  const int max_restarts_;
  const int max_crashes_at_step_;
  const double hang_sec_;
  const RetryPolicy backoff_;
};

int Main(int argc, char** argv) {
  std::string checkpoint_dir, out_path;
  int max_restarts = 20;
  int max_crashes_at_step = 3;
  double hang_sec = 0.0;
  double backoff_ms = 200.0;
  double backoff_max_ms = 5000.0;
  uint64_t seed = 42;
  std::vector<std::string> child_argv;

  auto flag_value = [](const char* arg, const char* name,
                       std::string* out) {
    const std::string prefix = std::string("--") + name + "=";
    if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
    *out = arg + prefix.size();
    return true;
  };

  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      ++i;
      break;
    }
    std::string value;
    if (flag_value(argv[i], "checkpoint-dir", &value)) {
      checkpoint_dir = value;
    } else if (flag_value(argv[i], "out", &value)) {
      out_path = value;
    } else if (flag_value(argv[i], "max-restarts", &value)) {
      if (!flags::ParseWhole(value, &max_restarts)) {
        flags::BadNumericValue("max-restarts", value);
      }
    } else if (flag_value(argv[i], "max-crashes-at-step", &value)) {
      if (!flags::ParseWhole(value, &max_crashes_at_step)) {
        flags::BadNumericValue("max-crashes-at-step", value);
      }
    } else if (flag_value(argv[i], "hang-sec", &value)) {
      if (!flags::ParseWhole(value, &hang_sec)) {
        flags::BadNumericValue("hang-sec", value);
      }
    } else if (flag_value(argv[i], "backoff-ms", &value)) {
      if (!flags::ParseWhole(value, &backoff_ms)) {
        flags::BadNumericValue("backoff-ms", value);
      }
    } else if (flag_value(argv[i], "backoff-max-ms", &value)) {
      if (!flags::ParseWhole(value, &backoff_max_ms)) {
        flags::BadNumericValue("backoff-max-ms", value);
      }
    } else if (flag_value(argv[i], "seed", &value)) {
      if (!flags::ParseWhole(value, &seed)) {
        flags::BadNumericValue("seed", value);
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage();
    }
  }
  for (; i < argc; ++i) child_argv.push_back(argv[i]);

  if (checkpoint_dir.empty() || out_path.empty() || child_argv.empty() ||
      max_crashes_at_step < 1) {
    return Usage();
  }
  // The checkpoint dir must exist before the first child runs so the
  // hang monitor can stat it.
  if (::mkdir(checkpoint_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s: %s\n", checkpoint_dir.c_str(),
                 std::strerror(errno));
    return 1;
  }

  RetryPolicy backoff;
  backoff.initial_backoff_sec = backoff_ms / 1000.0;
  backoff.max_backoff_sec = backoff_max_ms / 1000.0;
  backoff.jitter_seed = seed;

  Supervisor supervisor(checkpoint_dir, out_path, child_argv, max_restarts,
                        max_crashes_at_step, hang_sec, backoff);
  return supervisor.Run();
}

}  // namespace
}  // namespace coane

int main(int argc, char** argv) { return coane::Main(argc, argv); }
