// coane_perfbench — the measuring side of the repository benchmark.
// perfbench/run.py builds it and calls one subcommand per process:
//
//   gen-graph  --dataset=NAME --scale=S --seed=N --out=PREFIX
//              writes PREFIX.{edges,attrs,labels}; prints the sizes
//   train      --edges= --attrs= --labels= --nodes=N --attr-dim=D
//              --epochs=E --setup-reps=R --threads=T
//              --seed=N [--presample] --out-dir=DIR [--trace
//              --trace-out=FILE]
//   loadgen    --port=P --verify-artifact=FILE
//              --publish=F1,F2,... --phases=NAME:RATE:SECONDS,...
//              [--warmup=S --publish-every=S --read-conns=N --k=K
//              --verify-every=N --engine-threads=T --seed=N --trace]
//
// Every subcommand prints its results as one JSON object on its last
// stdout line.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/parallel/global_pool.h"
#include "common/string_utils.h"
#include "datasets/dataset_registry.h"
#include "graph/graph_io.h"
#include "serve_bench.h"
#include "trace.h"
#include "train_bench.h"

namespace perfbench {
namespace {

using Flags = coane::flags::FlagSet;

int Usage() {
  std::fprintf(stderr,
               "usage: coane_perfbench gen-graph|train|loadgen "
               "[--flags]  (see perfbench/src/main.cc)\n");
  return 2;
}

int GenGraph(const Flags& flags) {
  auto net = coane::MakeDataset(
      flags.Get("dataset"), flags.GetDouble("scale", 1.0),
      static_cast<uint64_t>(flags.GetInt("seed", 42)));
  if (!net.ok()) {
    std::fprintf(stderr, "error: %s\n", net.status().ToString().c_str());
    return 1;
  }
  const coane::Graph& g = net.value().graph;
  const std::string out = flags.Get("out");
  const coane::Status st = coane::SaveAttributedGraph(
      g, out + ".edges", out + ".attrs", out + ".labels");
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  JsonLine line;
  line.Int("nodes", g.num_nodes());
  line.Int("attributes", g.num_attributes());
  line.Int("edges", g.num_edges());
  line.Int("classes", g.num_classes());
  line.Print();
  return 0;
}

int Train(const Flags& flags) {
  TrainArgs args;
  args.edges = flags.Get("edges");
  args.attrs = flags.Get("attrs");
  args.labels = flags.Get("labels");
  args.num_nodes = flags.GetInt("nodes", 0);
  args.num_attributes = flags.GetInt("attr-dim", 0);
  args.dim = flags.GetInt("dim", 128);
  args.epochs = static_cast<int>(flags.GetInt("epochs", 1));
  args.setup_reps = static_cast<int>(flags.GetInt("setup-reps", 1));
  args.presample = flags.Has("presample");
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  args.trace = flags.Has("trace");
  args.out_dir = flags.Get("out-dir", ".");
  args.trace_out = flags.Get("trace-out");
  if (args.edges.empty() || args.epochs < 1 || args.setup_reps < 1) {
    return Usage();
  }
  coane::SetGlobalParallelism(static_cast<int>(flags.GetInt("threads", 1)));
  return RunTrainBench(args);
}

int LoadGen(const Flags& flags) {
  ServeArgs args;
  args.port = static_cast<int>(flags.GetInt("port", 0));
  args.verify_artifact = flags.Get("verify-artifact");
  for (const std::string& path : coane::Split(flags.Get("publish"), ',')) {
    if (!path.empty()) args.publish_artifacts.push_back(path);
  }
  for (const std::string& spec : coane::Split(flags.Get("phases"), ',')) {
    const std::vector<std::string> parts = coane::Split(spec, ':');
    if (parts.size() != 3) return Usage();
    LoadPhase phase;
    phase.name = parts[0];
    phase.rate = std::strtod(parts[1].c_str(), nullptr);
    phase.seconds = std::strtod(parts[2].c_str(), nullptr);
    if (!(phase.rate > 0.0) || !(phase.seconds > 0.0)) return Usage();
    args.phases.push_back(phase);
  }
  args.warmup_seconds = flags.GetDouble("warmup", 1.0);
  args.publish_every = flags.GetDouble("publish-every", 2.0);
  args.read_conns = static_cast<int>(flags.GetInt("read-conns", 2));
  args.k = static_cast<int>(flags.GetInt("k", 10));
  args.verify_every = static_cast<int>(flags.GetInt("verify-every", 50));
  args.engine_threads = static_cast<int>(flags.GetInt("engine-threads", 2));
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  args.trace = flags.Has("trace");
  if (args.port <= 0 || args.verify_artifact.empty() || args.phases.empty() ||
      args.read_conns < 1 || args.k < 1 || args.verify_every < 1 ||
      !(args.publish_every > 0.0)) {
    return Usage();
  }
  return RunServeLoad(args);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) return perfbench::Usage();
  const std::string command = argv[1];
  const perfbench::Flags flags(argc, argv, 2);
  if (command == "gen-graph") return perfbench::GenGraph(flags);
  if (command == "train") return perfbench::Train(flags);
  if (command == "loadgen") return perfbench::LoadGen(flags);
  return perfbench::Usage();
}
