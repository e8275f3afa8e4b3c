#include "dist/inprocess_launcher.h"

#include <cstdio>
#include <utility>

namespace coane {
namespace dist {

InProcessLauncher::InProcessLauncher(const Graph& graph,
                                     const ShardPlan& plan,
                                     std::string work_dir)
    : graph_(graph), plan_(plan), work_dir_(std::move(work_dir)) {}

InProcessLauncher::~InProcessLauncher() {
  for (auto& [handle, job] : jobs_) {
    job->cancel.store(true, std::memory_order_release);
  }
  for (auto& [handle, job] : jobs_) {
    if (job->thread.joinable()) job->thread.join();
  }
}

Result<int64_t> InProcessLauncher::Start(int shard, int round) {
  const int64_t handle = next_handle_++;
  auto job = std::make_unique<Job>();
  Job* j = job.get();
  WorkerOptions options;
  options.work_dir = work_dir_;
  options.shard = shard;
  options.round = round;
  options.merge_wait_sec = merge_wait_sec_;
  j->thread = std::thread([this, options, j]() {
    RunContext ctx;
    ctx.SetCancelFlag(&j->cancel);
    ShardWorker worker(graph_, plan_, options);
    const Status st = worker.RunRound(&ctx);
    if (!st.ok()) {
      std::fprintf(stderr, "[worker %d/r%d] %s\n", options.shard,
                   options.round, st.ToString().c_str());
    }
    j->exit_code = st.ok() ? 0 : 1;
    j->done.store(true, std::memory_order_release);
  });
  jobs_[handle] = std::move(job);
  ++starts_;
  return handle;
}

WorkerReport InProcessLauncher::Poll(int64_t handle) {
  WorkerReport report;
  auto it = jobs_.find(handle);
  if (it == jobs_.end()) return report;  // unknown: not running
  Job* job = it->second.get();
  if (!job->done.load(std::memory_order_acquire)) {
    report.running = true;
    return report;
  }
  if (!job->joined && job->thread.joinable()) {
    job->thread.join();
    job->joined = true;
  }
  report.exited = true;
  report.exit_code = job->exit_code;
  return report;
}

void InProcessLauncher::Kill(int64_t handle) {
  auto it = jobs_.find(handle);
  if (it == jobs_.end()) return;
  it->second->cancel.store(true, std::memory_order_release);
}

}  // namespace dist
}  // namespace coane
