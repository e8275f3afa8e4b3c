#ifndef COANE_DIST_INPROCESS_LAUNCHER_H_
#define COANE_DIST_INPROCESS_LAUNCHER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>

#include "dist/coordinator.h"
#include "dist/shard_plan.h"
#include "dist/worker.h"
#include "graph/graph.h"

namespace coane {
namespace dist {

/// WorkerLauncher that runs ShardWorker::RunRound on a std::thread per
/// Start — the single-process flavour of sharded training, and the
/// engine of the in-process chaos tier (where the shard-qualified fault
/// points stand in for real SIGKILLs). Exercises exactly the same
/// file/manifest exchange as the process launcher: the coordinator
/// cannot tell them apart, which is the point — the determinism
/// contract says result bytes are identical under either, at any
/// max_concurrent_workers.
///
/// Kill() is cooperative: it raises the job's cancel flag, which the
/// worker observes at its next epoch/wait boundary and exits non-OK
/// (reported as exit_code 1) — the thread-world analogue of a SIGKILL
/// landing at an epoch boundary. Poll() joins finished threads before
/// reporting them exited, so a reported exit means the worker has fully
/// unwound (TSan-clean handoff of its writes).
class InProcessLauncher : public WorkerLauncher {
 public:
  /// `graph` and `plan` must outlive the launcher.
  InProcessLauncher(const Graph& graph, const ShardPlan& plan,
                    std::string work_dir);
  ~InProcessLauncher() override;

  InProcessLauncher(const InProcessLauncher&) = delete;
  InProcessLauncher& operator=(const InProcessLauncher&) = delete;

  Result<int64_t> Start(int shard, int round) override;
  WorkerReport Poll(int64_t handle) override;
  void Kill(int64_t handle) override;

  void set_merge_wait_sec(double sec) { merge_wait_sec_ = sec; }

  /// Total Start() calls — lets tests assert "no worker ran" on resume.
  int64_t starts() const { return starts_; }

 private:
  struct Job {
    std::thread thread;
    std::atomic<bool> cancel{false};
    std::atomic<bool> done{false};
    int exit_code = 0;  // written before done, read after (acq/rel)
    bool joined = false;
  };

  const Graph& graph_;
  const ShardPlan& plan_;
  const std::string work_dir_;
  double merge_wait_sec_ = 60.0;
  int64_t next_handle_ = 1;
  int64_t starts_ = 0;
  std::map<int64_t, std::unique_ptr<Job>> jobs_;
};

}  // namespace dist
}  // namespace coane

#endif  // COANE_DIST_INPROCESS_LAUNCHER_H_
