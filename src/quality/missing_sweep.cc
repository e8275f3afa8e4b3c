#include "quality/missing_sweep.h"

#include <cstdio>
#include <utility>

#include "common/json_writer.h"
#include "common/record_file.h"
#include "common/stopwatch.h"
#include "quality/config_matrix.h"
#include "quality/pipeline_runner.h"
#include "quality/report_json.h"

namespace coane {
namespace quality {
namespace {

// The drop decision's seed is derived from the sweep seed so one --seed
// governs the whole artifact, but through a constant, so the substrate
// generator (seed) and the degradation mask (seed ^ const) never reuse a
// stream.
constexpr uint64_t kDropSeedSalt = 0xA77DD209DEC0DEULL;

std::string RateCaseName(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "rate%02d", static_cast<int>(rate * 100));
  return buf;
}

}  // namespace

MetricTolerance MissingRateTolerance(bool full, double rate) {
  // Calibrated against a seed sweep (seeds 7, 42, 99, 2024) of the
  // neighbor-mean policy on each substrate, like the shard-averaging
  // bounds in config_matrix.cc: the bound is the worst observed
  // |delta| envelope per rate band with ~1.5-2x headroom. Dropping
  // attribute rows removes real signal, so the envelope legitimately
  // widens with the rate; a breach at a given rate means the degraded
  // pipeline lost *more* quality than imputation is known to cost — a
  // regression, not noise (every run is deterministic at a pinned seed).
  //
  // Fast substrate worst |delta| vs. the complete run: at 10% macro_f1
  // 0.079, micro_f1 0.075, link_auc 0.047, nmi 0.036; at 30% macro_f1
  // 0.083, micro_f1 0.083, link_auc 0.067, nmi 0.155; at 50% macro_f1
  // 0.193, micro_f1 0.192, link_auc 0.063, nmi 0.226.
  //
  // Full substrate trains to a much stronger baseline, and neighbor-mean
  // imputation recovers most of the signal there — the observed envelope
  // is *tighter* than the fast tier's despite the larger graph: at 10%
  // macro_f1 0.019, link_auc 0.016, nmi 0.079; at 30% macro_f1 0.051,
  // link_auc 0.068; at 50% macro_f1 0.070, micro_f1 0.068, link_auc
  // 0.063, nmi 0.140.
  if (full) {
    if (rate <= 0.1) {
      return {.macro_f1 = 0.04, .micro_f1 = 0.04, .link_auc = 0.035,
              .nmi = 0.16};
    }
    if (rate <= 0.3) {
      return {.macro_f1 = 0.10, .micro_f1 = 0.10, .link_auc = 0.12,
              .nmi = 0.16};
    }
    return {.macro_f1 = 0.14, .micro_f1 = 0.14, .link_auc = 0.13,
            .nmi = 0.25};
  }
  if (rate <= 0.1) {
    return {.macro_f1 = 0.12, .micro_f1 = 0.12, .link_auc = 0.08,
            .nmi = 0.08};
  }
  if (rate <= 0.3) {
    return {.macro_f1 = 0.14, .micro_f1 = 0.14, .link_auc = 0.11,
            .nmi = 0.25};
  }
  return {.macro_f1 = 0.28, .micro_f1 = 0.28, .link_auc = 0.11, .nmi = 0.34};
}

Result<QualitySubstrate> DegradeSubstrate(const QualitySubstrate& substrate,
                                          double rate, uint64_t seed) {
  QualitySubstrate out = substrate;
  auto full_graph = WithDroppedAttributes(substrate.net.graph, rate, seed);
  if (!full_graph.ok()) return full_graph.status();
  out.net.graph = std::move(full_graph).ValueOrDie();
  // Same node ids + same (rate, seed) => the LP-train graph loses exactly
  // the same rows, so "full" and "lp" pipelines see one coherent mask.
  auto lp_graph =
      WithDroppedAttributes(substrate.split.train_graph, rate, seed);
  if (!lp_graph.ok()) return lp_graph.status();
  out.split.train_graph = std::move(lp_graph).ValueOrDie();
  return out;
}

Result<MissingSweepReport> RunMissingRateSweep(
    const MissingSweepOptions& options) {
  Stopwatch total_clock;

  if (options.rates.empty() || options.rates.front() != 0.0) {
    return Status::InvalidArgument(
        "missing-rate sweep needs rate 0 first (the reference row)");
  }
  // Validate the determinism pin before training anything: a typo'd
  // rate should fail in microseconds, not after the whole curve ran.
  if (options.determinism_rate >= 0.0) {
    bool swept = false;
    for (const double rate : options.rates) {
      if (rate == options.determinism_rate) swept = true;
    }
    if (!swept) {
      return Status::InvalidArgument(
          "determinism_rate must be one of the swept rates");
    }
  }

  auto substrate = MakeQualitySubstrate(
      options.full ? SubstrateScale::kFull : SubstrateScale::kFast,
      options.seed);
  if (!substrate.ok()) return substrate.status();
  const QualitySubstrate& sub = substrate.value();

  CoaneConfig base = HarnessBaseConfig(options.full, options.seed);
  base.missing_attrs = options.policy;

  MetricSuiteOptions eval_options;
  eval_options.train_ratio = options.train_ratio;
  eval_options.seed = options.seed;

  MissingSweepReport report;
  report.full = options.full;
  report.seed = options.seed;
  report.drop_seed = options.seed ^ kDropSeedSalt;
  report.policy = options.policy;
  report.nodes = sub.net.graph.num_nodes();
  report.edges = sub.net.graph.num_edges();
  report.attributes = sub.net.graph.num_attributes();
  report.all_pass = true;

  // --- The degradation curve: one direct single-thread run per rate,
  // gated against the rate-0 row by the calibrated per-rate tolerance.
  // report.rates grows inside the loop, so the reference row is re-read
  // through front() each iteration instead of holding a pointer across
  // push_back reallocations.
  for (const double rate : options.rates) {
    auto degraded = DegradeSubstrate(sub, rate, report.drop_seed);
    if (!degraded.ok()) return degraded.status();

    MissingRateReport row;
    row.rate = rate;
    row.dropped_nodes = degraded.value().net.graph.num_unobserved_nodes();
    row.mask_fingerprint = AttrMaskFingerprint(degraded.value().net.graph);
    {
      Stopwatch impute_clock;
      auto imputed = ImputeMissingAttributes(degraded.value().net.graph,
                                             options.policy, &row.impute);
      row.impute_seconds = impute_clock.ElapsedSeconds();
      if (!imputed.ok()) return imputed.status();
    }

    QualityCase qcase;
    qcase.name = RateCaseName(rate);
    qcase.mode = RunMode::kDirect;
    qcase.threads = 1;
    qcase.is_baseline = rate == 0.0;
    auto result =
        RunQualityCase(qcase, degraded.value(), base,
                       options.work_dir + "/" + qcase.name, eval_options);
    if (!result.ok()) return result.status();
    row.result = std::move(result).ValueOrDie();
    row.tolerance = MissingRateTolerance(options.full, rate);

    if (!report.rates.empty()) {
      const MissingRateReport& reference = report.rates.front();
      row.verdict = CheckGate(GateClass::kTolerance,
                              reference.result.metrics, row.result.metrics,
                              row.tolerance, reference.result.artifact_crcs,
                              row.result.artifact_crcs);
      if (!row.verdict.pass) report.all_pass = false;
    }
    report.rates.push_back(std::move(row));
  }

  // --- The bit-identity block: at one fixed mask + policy, execution
  // strategy must not change a byte. The sweep row at determinism_rate is
  // the baseline; the bit-identical rows of the complete-data matrix
  // (threads8 / kill+resume / shards1) are CRC-gated against it.
  if (options.determinism_rate >= 0.0) {
    const MissingRateReport* det_base = nullptr;
    for (const MissingRateReport& row : report.rates) {
      if (row.rate == options.determinism_rate) det_base = &row;
    }
    if (det_base == nullptr) {
      return Status::InvalidArgument(
          "determinism_rate must be one of the swept rates");
    }
    auto degraded =
        DegradeSubstrate(sub, options.determinism_rate, report.drop_seed);
    if (!degraded.ok()) return degraded.status();

    for (const QualityCase& qcase : DefaultQualityMatrix(options.full)) {
      if (qcase.is_baseline || qcase.gate != GateClass::kBitIdentical) {
        continue;
      }
      auto result = RunQualityCase(
          qcase, degraded.value(), base,
          options.work_dir + "/det_" + qcase.name, eval_options);
      if (!result.ok()) return result.status();

      QualityCaseReport row;
      row.spec = qcase;
      row.result = std::move(result).ValueOrDie();
      row.verdict = CheckGate(qcase.gate, det_base->result.metrics,
                              row.result.metrics, qcase.tolerance,
                              det_base->result.artifact_crcs,
                              row.result.artifact_crcs);
      if (!row.verdict.pass) report.all_pass = false;
      report.determinism.push_back(std::move(row));
    }
  }

  report.total_seconds = total_clock.ElapsedSeconds();
  return report;
}

std::string RenderMissingSweepJson(const MissingSweepReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("incomplete");
  json.Key("full").Bool(report.full);
  json.Key("seed").Uint(report.seed);
  json.Key("drop_seed").Uint(report.drop_seed);
  json.Key("policy").String(MissingAttrPolicyName(report.policy));
  json.Key("substrate").BeginObject(JsonWriter::kInline);
  json.Key("nodes").Int(report.nodes);
  json.Key("edges").Int(report.edges);
  json.Key("attributes").Int(report.attributes);
  json.EndObject();
  json.Key("rates").BeginArray();
  for (const MissingRateReport& row : report.rates) {
    json.BeginObject();
    json.Key("rate").Double(row.rate);
    json.Key("dropped_nodes").Int(row.dropped_nodes);
    json.Key("mask_fingerprint").String(Hex64(row.mask_fingerprint));
    json.Key("impute").BeginObject(JsonWriter::kInline);
    json.Key("unobserved_nodes").Int(row.impute.unobserved_nodes);
    json.Key("missing_cells").Int(row.impute.missing_cells);
    json.Key("filled_entries").Int(row.impute.filled_entries);
    json.Key("seconds").Double(row.impute_seconds);
    json.Key("rows_per_sec")
        .Double(row.impute_seconds > 0.0
                    ? static_cast<double>(report.nodes) / row.impute_seconds
                    : 0.0);
    json.EndObject();
    WriteMetricObjects(json, row.result.metrics, row.verdict.deltas,
                       &row.tolerance);
    WriteRowTail(json, row.result.seconds, row.verdict);
    json.EndObject();
  }
  json.EndArray();
  json.Key("determinism").BeginArray();
  for (const QualityCaseReport& row : report.determinism) {
    json.BeginObject();
    json.Key("name").String(row.spec.name);
    json.Key("gate").String(GateClassName(row.spec.gate));
    WriteMetricObjects(json, row.result.metrics, {}, nullptr);
    WriteArtifactCrcs(json, row.result.artifact_crcs);
    WriteRowTail(json, row.result.seconds, row.verdict);
    json.EndObject();
  }
  json.EndArray();
  json.Key("all_pass").Bool(report.all_pass);
  json.Key("total_seconds").Double(report.total_seconds);
  json.EndObject();
  return json.Finish();
}

Status WriteMissingSweepJson(const MissingSweepReport& report,
                             const std::string& path) {
  return WriteJsonFile(path, RenderMissingSweepJson(report));
}

}  // namespace quality
}  // namespace coane
