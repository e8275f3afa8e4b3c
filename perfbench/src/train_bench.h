#ifndef COANE_PERFBENCH_TRAIN_BENCH_H_
#define COANE_PERFBENCH_TRAIN_BENCH_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct TrainArgs {
  std::string edges, attrs, labels;
  int64_t num_nodes = 0;       // from the generator (see Load in the .cc)
  int64_t num_attributes = 0;
  int64_t dim = 128;
  int epochs = 1;
  int setup_reps = 1;
  bool presample = false;
  uint64_t seed = 42;
  bool trace = false;
  std::string out_dir;    // embeddings and checkpoint land here
  std::string trace_out;  // span file of the traced run ("" = none)
};

/// Runs one training workload and prints its measurements as one JSON
/// line. Returns the process exit code.
int RunTrainBench(const TrainArgs& args);

}  // namespace perfbench

#endif  // COANE_PERFBENCH_TRAIN_BENCH_H_
