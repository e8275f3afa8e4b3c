// Round-throughput trajectory of distributed sharded training: one
// in-process coordinator/worker fleet over a mid-size synthetic graph,
// timed round by round. Besides the human table/CSV this bench emits
// bench_out/BENCH_dist.json — the machine-readable trajectory CI
// archives to watch round latency drift.

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "common/json_writer.h"
#include "common/stopwatch.h"
#include "common/string_utils.h"
#include "datasets/dataset_registry.h"
#include "dist/coordinator.h"
#include "dist/inprocess_launcher.h"
#include "dist/shard_plan.h"

namespace coane {
namespace {

void Run(const benchutil::BenchOptions& opt) {
  const std::string dataset = "cora";
  const double scale = opt.full ? 1.0 : 0.2;
  AttributedNetwork net = benchutil::Unwrap(
      MakeDataset(dataset, scale, opt.seed), "MakeDataset");

  dist::ShardPlan plan;
  plan.num_shards = 4;
  plan.quorum = 4;
  plan.round_epochs = 2;
  plan.base.seed = opt.seed;
  plan.base.embedding_dim = opt.full ? 64 : 16;
  plan.base.walk_length = opt.full ? 80 : 20;
  plan.base.context_size = 3;
  plan.base.num_negative = 5;
  plan.base.max_epochs = opt.full ? 12 : 8;

  const std::string work_dir = "bench_out/dist_rounds_work";
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);  // fresh run, no resume
  dist::InProcessLauncher launcher(net.graph, plan, work_dir);
  dist::CoordinatorOptions options;
  options.work_dir = work_dir;
  options.poll_interval_sec = 0.005;
  dist::Coordinator coordinator(plan, &launcher, options);
  if (Status st = coordinator.Prepare(); !st.ok()) {
    COANE_LOG(Error) << "Prepare failed: " << st.ToString();
    std::exit(1);
  }

  TablePrinter table("Distributed round throughput (" + dataset +
                     ", scale " + FormatDouble(scale, 2) + ", " +
                     std::to_string(plan.num_shards) + " shards)");
  table.SetHeader({"round", "end_epoch", "shards", "degraded", "seconds",
                   "epochs/sec"});

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("dist_rounds");
  json.Key("shards").Int(plan.num_shards);
  json.Key("round_epochs").Int(plan.round_epochs);
  json.Key("rounds").BeginArray();
  int prev_end = 0;
  for (int round = 0; round < plan.num_rounds(); ++round) {
    Stopwatch watch;
    auto record = coordinator.RunRound();
    if (!record.ok()) {
      COANE_LOG(Error) << "round " << round
                       << " failed: " << record.status().ToString();
      std::exit(1);
    }
    const double sec = watch.ElapsedSeconds();
    const dist::RoundRecord& r = record.value();
    const int epochs = r.end_epoch - prev_end;
    prev_end = r.end_epoch;
    // Throughput counts shard-epochs: every committed shard trained
    // `epochs` epochs concurrently inside this wall-clock window.
    const double shard_epochs_per_sec =
        sec > 0 ? static_cast<double>(epochs) *
                      static_cast<double>(r.committed.size()) / sec
                : 0.0;
    table.AddRow({std::to_string(r.round), std::to_string(r.end_epoch),
                  std::to_string(r.committed.size()),
                  r.degraded ? "yes" : "no", FormatDouble(sec, 3),
                  FormatDouble(shard_epochs_per_sec, 2)});
    json.BeginObject(JsonWriter::kInline);
    json.Key("round").Int(r.round);
    json.Key("end_epoch").Int(r.end_epoch);
    json.Key("committed").Uint(r.committed.size());
    json.Key("degraded").Bool(r.degraded);
    json.Key("seconds").Double(sec);
    json.Key("shard_epochs_per_sec").Double(shard_epochs_per_sec);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  table.ToStdout();
  benchutil::WriteCsv(table, "BENCH_dist");
  const std::string json_path = "bench_out/BENCH_dist.json";
  if (Status s = WriteJsonFile(json_path, json.Finish()); !s.ok()) {
    COANE_LOG(Error) << "could not write " << json_path << ": "
                     << s.ToString();
    std::exit(1);
  }
  std::printf("[json written to %s]\n", json_path.c_str());
  std::filesystem::remove_all(work_dir, ec);
}

}  // namespace
}  // namespace coane

int main(int argc, char** argv) {
  coane::Run(coane::benchutil::ParseArgs(argc, argv));
  return 0;
}
