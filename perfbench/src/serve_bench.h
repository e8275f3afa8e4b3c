#ifndef COANE_PERFBENCH_SERVE_BENCH_H_
#define COANE_PERFBENCH_SERVE_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One fixed-rate open-loop read phase.
struct LoadPhase {
  std::string name;  // "low" / "high"
  double rate = 0.0;     // KNN requests per second
  double seconds = 0.0;  // measured duration (after warm-up)
};

struct ServeArgs {
  int port = 0;
  std::string verify_artifact;  // a byte copy of the daemon's artifact
  std::vector<std::string> publish_artifacts;
  std::vector<LoadPhase> phases;
  double warmup_seconds = 1.0;
  double publish_every = 2.0;  // seconds between PUBLISH sends
  int read_conns = 2;
  int k = 10;
  int verify_every = 50;       // check every n-th reply in-process
  int engine_threads = 2;      // pool size for the in-process engine probe
  uint64_t seed = 42;
  bool trace = false;
};

/// Drives a running coane_serve on 127.0.0.1:port with the open-loop
/// read phases plus periodic PUBLISH, checks the replies, and prints the
/// measurements as one JSON line. Returns the process exit code.
int RunServeLoad(const ServeArgs& args);

}  // namespace perfbench

#endif  // COANE_PERFBENCH_SERVE_BENCH_H_
