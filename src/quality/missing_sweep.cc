#include "quality/missing_sweep.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/atomic_file.h"
#include "common/record_file.h"
#include "common/stopwatch.h"
#include "dist/shard_plan.h"
#include "quality/pipeline_runner.h"

namespace coane {
namespace quality {
namespace {

// The drop decision's seed is derived from the sweep seed so one --seed
// governs the whole artifact, but through a constant, so the substrate
// generator (seed) and the degradation mask (seed ^ const) never reuse a
// stream.
constexpr uint64_t kDropSeedSalt = 0xA77DD209DEC0DEULL;

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string RateCaseName(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "rate%02d", static_cast<int>(rate * 100));
  return buf;
}

void AppendMetricObject(std::string* out, const MetricSuite& suite) {
  const auto entries = suite.Entries();
  *out += "{";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i) *out += ", ";
    *out += JsonString(entries[i].first) + ": " +
            JsonDouble(entries[i].second);
  }
  *out += "}";
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
  MetricTolerance t;
  if (full) {
    if (rate <= 0.1) {
      t.macro_f1 = 0.04;
      t.micro_f1 = 0.04;
      t.link_auc = 0.035;
      t.nmi = 0.16;
    } else if (rate <= 0.3) {
      t.macro_f1 = 0.10;
      t.micro_f1 = 0.10;
      t.link_auc = 0.12;
      t.nmi = 0.16;
    } else {
      t.macro_f1 = 0.14;
      t.micro_f1 = 0.14;
      t.link_auc = 0.13;
      t.nmi = 0.25;
    }
  } else {
    if (rate <= 0.1) {
      t.macro_f1 = 0.12;
      t.micro_f1 = 0.12;
      t.link_auc = 0.08;
      t.nmi = 0.08;
    } else if (rate <= 0.3) {
      t.macro_f1 = 0.14;
      t.micro_f1 = 0.14;
      t.link_auc = 0.11;
      t.nmi = 0.25;
    } else {
      t.macro_f1 = 0.28;
      t.micro_f1 = 0.28;
      t.link_auc = 0.11;
      t.nmi = 0.34;
    }
  }
  return t;
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
      const auto base_entries = reference.result.metrics.Entries();
      const auto cand_entries = row.result.metrics.Entries();
      for (size_t i = 0; i < base_entries.size(); ++i) {
        row.deltas.push_back(
            std::fabs(cand_entries[i].second - base_entries[i].second));
      }
      if (!row.verdict.pass) report.all_pass = false;
    }
    report.rates.push_back(std::move(row));
  }

  // --- The bit-identity block: at one fixed mask + policy, execution
  // strategy must not change a byte. The sweep row at determinism_rate is
  // the baseline; threads8 / kill+resume / shards1 are CRC-gated
  // against it exactly like the complete-data matrix.
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

    std::vector<QualityCase> block;
    {
      QualityCase c;
      c.name = "threads8";
      c.mode = RunMode::kDirect;
      c.threads = 8;
      c.gate = GateClass::kBitIdentical;
      block.push_back(c);
    }
    {
      QualityCase c;
      c.name = "resume";
      c.mode = RunMode::kResume;
      c.threads = 8;
      c.gate = GateClass::kBitIdentical;
      block.push_back(c);
    }
    {
      QualityCase c;
      c.name = "shards1";
      c.mode = RunMode::kSharded;
      c.shards = 1;
      c.gate = GateClass::kBitIdentical;
      block.push_back(c);
    }
    for (const QualityCase& qcase : block) {
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
      const auto base_entries = det_base->result.metrics.Entries();
      const auto cand_entries = row.result.metrics.Entries();
      for (size_t i = 0; i < base_entries.size(); ++i) {
        row.deltas.push_back(
            std::fabs(cand_entries[i].second - base_entries[i].second));
      }
      if (!row.verdict.pass) report.all_pass = false;
      report.determinism.push_back(std::move(row));
    }
  }

  report.total_seconds = total_clock.ElapsedSeconds();
  return report;
}

std::string RenderMissingSweepJson(const MissingSweepReport& report) {
  std::string out;
  out += "{\n";
  out += "  \"bench\": \"incomplete\",\n";
  out += "  \"full\": " + std::string(report.full ? "true" : "false") + ",\n";
  out += "  \"seed\": " + std::to_string(report.seed) + ",\n";
  out += "  \"drop_seed\": " + std::to_string(report.drop_seed) + ",\n";
  out += "  \"policy\": " +
         JsonString(MissingAttrPolicyName(report.policy)) + ",\n";
  out += "  \"substrate\": {\"nodes\": " + std::to_string(report.nodes) +
         ", \"edges\": " + std::to_string(report.edges) +
         ", \"attributes\": " + std::to_string(report.attributes) + "},\n";
  out += "  \"rates\": [\n";
  for (size_t r = 0; r < report.rates.size(); ++r) {
    const MissingRateReport& row = report.rates[r];
    out += "    {\n";
    out += "      \"rate\": " + JsonDouble(row.rate) + ",\n";
    out += "      \"dropped_nodes\": " + std::to_string(row.dropped_nodes) +
           ",\n";
    out += "      \"mask_fingerprint\": \"" + Hex64(row.mask_fingerprint) +
           "\",\n";
    out += "      \"impute\": {\"unobserved_nodes\": " +
           std::to_string(row.impute.unobserved_nodes) +
           ", \"missing_cells\": " + std::to_string(row.impute.missing_cells) +
           ", \"filled_entries\": " +
           std::to_string(row.impute.filled_entries) +
           ", \"seconds\": " + JsonDouble(row.impute_seconds) +
           ", \"rows_per_sec\": " +
           JsonDouble(row.impute_seconds > 0.0
                          ? static_cast<double>(report.nodes) /
                                row.impute_seconds
                          : 0.0) +
           "},\n";
    out += "      \"metrics\": ";
    AppendMetricObject(&out, row.result.metrics);
    out += ",\n";
    const auto entries = row.result.metrics.Entries();
    if (!row.deltas.empty()) {
      out += "      \"delta\": {";
      for (size_t i = 0; i < entries.size(); ++i) {
        if (i) out += ", ";
        out += JsonString(entries[i].first) + ": " +
               JsonDouble(i < row.deltas.size() ? row.deltas[i] : 0.0);
      }
      out += "},\n";
      out += "      \"tolerance\": {";
      for (size_t i = 0; i < entries.size(); ++i) {
        if (i) out += ", ";
        out += JsonString(entries[i].first) + ": " +
               JsonDouble(row.tolerance.For(entries[i].first));
      }
      out += "},\n";
    }
    out += "      \"seconds\": " + JsonDouble(row.result.seconds) + ",\n";
    out += "      \"pass\": " +
           std::string(row.verdict.pass ? "true" : "false");
    if (!row.verdict.failures.empty()) {
      out += ",\n      \"failures\": [";
      for (size_t i = 0; i < row.verdict.failures.size(); ++i) {
        if (i) out += ", ";
        out += JsonString(row.verdict.failures[i]);
      }
      out += "]";
    }
    out += "\n    }";
    out += (r + 1 < report.rates.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"determinism\": [\n";
  for (size_t c = 0; c < report.determinism.size(); ++c) {
    const QualityCaseReport& row = report.determinism[c];
    out += "    {\n";
    out += "      \"name\": " + JsonString(row.spec.name) + ",\n";
    out += "      \"gate\": " + JsonString(GateClassName(row.spec.gate)) +
           ",\n";
    out += "      \"metrics\": ";
    AppendMetricObject(&out, row.result.metrics);
    out += ",\n";
    out += "      \"artifact_crc32\": [";
    for (size_t i = 0; i < row.result.artifact_crcs.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + Hex32(row.result.artifact_crcs[i]) + "\"";
    }
    out += "],\n";
    out += "      \"seconds\": " + JsonDouble(row.result.seconds) + ",\n";
    out += "      \"pass\": " +
           std::string(row.verdict.pass ? "true" : "false");
    if (!row.verdict.failures.empty()) {
      out += ",\n      \"failures\": [";
      for (size_t i = 0; i < row.verdict.failures.size(); ++i) {
        if (i) out += ", ";
        out += JsonString(row.verdict.failures[i]);
      }
      out += "]";
    }
    out += "\n    }";
    out += (c + 1 < report.determinism.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"all_pass\": " +
         std::string(report.all_pass ? "true" : "false") + ",\n";
  out += "  \"total_seconds\": " + JsonDouble(report.total_seconds) + "\n";
  out += "}\n";
  return out;
}

Status WriteMissingSweepJson(const MissingSweepReport& report,
                             const std::string& path) {
  const size_t slash = path.rfind('/');
  if (slash != std::string::npos && slash > 0) {
    COANE_RETURN_IF_ERROR(dist::MakeDirs(path.substr(0, slash)));
  }
  return WriteFileAtomic(path, RenderMissingSweepJson(report));
}

}  // namespace quality
}  // namespace coane
