// Freshness economics of the dynamic-graph pipeline: on the quality
// substrate, withhold a slice of edges, stream them back through the
// mutation log at several batch sizes, and time each incremental
// publish (mutation batch ready -> artifact committed) against a full
// from-scratch retrain of the same final graph. Emits the human table
// plus bench_out/BENCH_stream.json for the CI artifact.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json_writer.h"
#include "common/string_utils.h"
#include "common/parallel/global_pool.h"
#include "common/stopwatch.h"
#include "core/coane_model.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "quality/quality_harness.h"
#include "quality/substrate.h"
#include "stream/mutation_log.h"
#include "stream/pipeline.h"

namespace coane {
namespace {

constexpr int kWithheld = 32;
constexpr int kBatchSizes[] = {1, 8, 32};

struct BatchRow {
  int batch_max = 0;
  int steps = 0;
  double mean_step_sec = 0.0;
  double max_step_sec = 0.0;
  double speedup_vs_full = 0.0;
};

Graph BuildInitGraph(const Graph& final_graph, std::vector<Edge>* withheld) {
  const std::vector<Edge> edges = final_graph.UndirectedEdges();
  GraphBuilder b(final_graph.num_nodes());
  for (size_t i = 0; i + kWithheld < edges.size(); ++i) {
    b.AddEdge(edges[i].src, edges[i].dst, edges[i].weight);
  }
  withheld->assign(edges.end() - kWithheld, edges.end());
  b.SetAttributes(final_graph.attributes());
  b.SetLabels(final_graph.labels());
  return std::move(b).Build().ValueOrDie();
}

void Run(const benchutil::BenchOptions& opt) {
  SetGlobalParallelism(1);
  const auto scale = opt.full ? quality::SubstrateScale::kFull
                              : quality::SubstrateScale::kFast;
  auto substrate = benchutil::Unwrap(
      quality::MakeQualitySubstrate(scale, opt.seed), "substrate");
  const Graph& final_graph = substrate.split.train_graph;
  std::vector<Edge> withheld;
  const Graph init = BuildInitGraph(final_graph, &withheld);
  const CoaneConfig config = quality::HarnessBaseConfig(opt.full, opt.seed);

  const std::string root = "bench_out/stream_work";
  std::error_code ec;
  std::filesystem::remove_all(root, ec);

  // The comparator every batch size is priced against: a full
  // from-scratch train on the final graph, artifact save included.
  double full_sec = 0.0;
  {
    Stopwatch timer;
    CoaneModel model(final_graph, config);
    if (Status s = model.Preprocess(); !s.ok()) {
      COANE_LOG(Error) << "preprocess: " << s.ToString();
      std::exit(1);
    }
    benchutil::Unwrap(model.Train(), "train");
    std::filesystem::create_directories(root, ec);
    if (!SaveEmbeddings(model.embeddings(), root + "/full.emb").ok()) {
      COANE_LOG(Error) << "could not save full-retrain artifact";
      std::exit(1);
    }
    full_sec = timer.ElapsedSeconds();
  }

  std::vector<BatchRow> rows;
  for (const int batch : kBatchSizes) {
    const std::string base = root + "/batch_" + std::to_string(batch);
    std::filesystem::create_directories(base, ec);

    stream::PipelineOptions options;
    options.init_edges = base + "/g.edges";
    options.init_attrs = base + "/g.attrs";
    options.init_labels = base + "/g.labels";
    options.log_path = base + "/g.mlog";
    options.work_dir = base + "/work";
    options.config = config;
    options.refine_epochs = 2;
    options.batch_max = batch;
    if (!SaveAttributedGraph(init, options.init_edges, options.init_attrs,
                             options.init_labels)
             .ok()) {
      COANE_LOG(Error) << "could not save init graph";
      std::exit(1);
    }
    {
      auto writer = benchutil::Unwrap(
          stream::MutationLogWriter::Open(options.log_path), "log open");
      for (const Edge& e : withheld) {
        stream::Mutation m;
        m.op = stream::MutationOp::kAddEdge;
        m.u = e.src;
        m.v = e.dst;
        m.value = e.weight;
        benchutil::Unwrap(writer.Append(m), "log append");
      }
    }

    auto pipeline = benchutil::Unwrap(
        stream::StreamPipeline::Open(options), "pipeline open");
    // Generation 0 (the initial full build) is not a freshness event;
    // time only the incremental publishes that follow it.
    benchutil::Unwrap(pipeline->Step(), "initial build");
    BatchRow row;
    row.batch_max = batch;
    for (;;) {
      Stopwatch step_timer;
      auto step = benchutil::Unwrap(pipeline->Step(), "step");
      if (!step.published) break;
      const double sec = step_timer.ElapsedSeconds();
      ++row.steps;
      row.mean_step_sec += sec;
      if (sec > row.max_step_sec) row.max_step_sec = sec;
    }
    if (row.steps > 0) row.mean_step_sec /= row.steps;
    row.speedup_vs_full =
        row.mean_step_sec > 0.0 ? full_sec / row.mean_step_sec : 0.0;
    rows.push_back(row);
  }

  TablePrinter table("Streaming freshness vs full retrain (" +
                     std::string(opt.full ? "full" : "fast") +
                     " substrate, refine 2 epochs/publish)");
  table.SetHeader({"batch", "publishes", "mean_publish_ms", "max_publish_ms",
                   "full_retrain_ms", "speedup"});
  for (const BatchRow& row : rows) {
    table.AddRow({std::to_string(row.batch_max), std::to_string(row.steps),
                  FormatDouble(row.mean_step_sec * 1e3, 1),
                  FormatDouble(row.max_step_sec * 1e3, 1),
                  FormatDouble(full_sec * 1e3, 1),
                  FormatDouble(row.speedup_vs_full, 2) + "x"});
  }
  table.ToStdout();
  benchutil::WriteCsv(table, "BENCH_stream");

  JsonWriter json;
  json.BeginObject();
  json.Key("scale").String(opt.full ? "full" : "fast");
  json.Key("seed").Uint(opt.seed);
  json.Key("withheld_edges").Int(kWithheld);
  json.Key("full_retrain_sec").Double(full_sec);
  json.Key("batches").BeginArray();
  for (const BatchRow& row : rows) {
    json.BeginObject(JsonWriter::kInline);
    json.Key("batch_max").Int(row.batch_max);
    json.Key("publishes").Int(row.steps);
    json.Key("mean_publish_sec").Double(row.mean_step_sec);
    json.Key("max_publish_sec").Double(row.max_step_sec);
    json.Key("speedup_vs_full").Double(row.speedup_vs_full);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  const std::string json_path = "bench_out/BENCH_stream.json";
  if (Status s = WriteJsonFile(json_path, json.Finish()); !s.ok()) {
    COANE_LOG(Error) << "could not write " << json_path << ": "
                     << s.ToString();
    std::exit(1);
  }
  std::printf("[json written to %s]\n", json_path.c_str());
  std::filesystem::remove_all(root, ec);
}

}  // namespace
}  // namespace coane

int main(int argc, char** argv) {
  coane::Run(coane::benchutil::ParseArgs(argc, argv));
  return 0;
}
