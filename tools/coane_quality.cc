// coane_quality — the paper-fidelity regression harness (DESIGN.md §9).
//
// Runs the full train -> embed -> evaluate pipeline on a deterministic
// planted-partition substrate for a matrix of execution modes — plain
// single-thread, --threads=8, checkpoint kill+resume, and coane_distd-
// style sharded training (including a quorum-degraded round) — computes
// the Table 2/4 metric suite for each (micro/macro-F1, link AUC,
// clustering NMI), and gates every configuration against the baseline:
// bit-identical where the determinism contract applies, explicit
// per-metric tolerances where shard averaging legitimately perturbs the
// result. The run emits a trajectory artifact
// (bench_out/QUALITY_coane.json) and exits non-zero when any gate fails.
//
//   coane_quality                          # fast per-PR gate matrix
//   coane_quality --full                   # bench-grade substrate
//   coane_quality --cli-bin=... --supervisor-bin=...
//                                          # + real-process kill+resume leg
//
// The optional binary flags add the end-to-end supervisor leg: the
// substrate is exported to graph files, trained once uninterrupted
// through the real coane_cli and once under coane_supervisor with a
// fault-injected crash every other epoch, and the two artifacts must be
// byte-identical (and byte-identical to the in-process baseline).

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/flags.h"
#include "common/status.h"
#include "core/config_flags.h"
#include "dist/shard_plan.h"
#include "eval/metric_suite.h"
#include "graph/graph_io.h"
#include "quality/quality_harness.h"
#include "quality/substrate.h"

namespace coane {
namespace {

using quality::GateClass;
using quality::GateClassName;
using quality::HarnessBaseConfig;
using quality::QualityCaseReport;
using quality::QualityHarnessOptions;
using quality::QualityReport;
using quality::RunMode;

int RunShell(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

Result<uint32_t> FileCrc(const std::string& path) {
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return Crc32(bytes.value());
}

// Scores a pair of exported embedding artifacts with the same protocol
// the in-process harness uses.
Result<MetricSuite> ScoreArtifacts(const std::string& full_path,
                                   const std::string& lp_path,
                                   const quality::QualitySubstrate& sub,
                                   const MetricSuiteOptions& eval_options) {
  auto full_emb = LoadEmbeddings(full_path);
  if (!full_emb.ok()) return full_emb.status();
  auto lp_emb = LoadEmbeddings(lp_path);
  if (!lp_emb.ok()) return lp_emb.status();
  return ComputeMetricSuite(full_emb.value(), lp_emb.value(),
                            sub.net.graph.labels(), sub.num_classes,
                            sub.split, eval_options);
}

// The real-process leg: exports the substrate, trains it through the
// actual coane_cli (uninterrupted) and through coane_supervisor with a
// crash injected at every other epoch boundary, and appends both as
// bit-gated rows. `inproc_baseline` supplies the in-process artifact
// CRCs: the CLI run must reproduce those bytes too, which closes the
// loop between the in-process matrix and what users actually run.
Status RunSupervisorLeg(const QualityHarnessOptions& options,
                        const std::string& cli_bin,
                        const std::string& supervisor_bin,
                        QualityReport* report) {
  auto substrate = quality::MakeQualitySubstrate(
      options.full ? quality::SubstrateScale::kFull
                   : quality::SubstrateScale::kFast,
      options.seed);
  if (!substrate.ok()) return substrate.status();
  const quality::QualitySubstrate& sub = substrate.value();

  const std::string dir = options.work_dir + "/e2e";
  COANE_RETURN_IF_ERROR(dist::MakeDirs(dir));
  COANE_RETURN_IF_ERROR(SaveAttributedGraph(sub.net.graph,
                                            dir + "/full.edges",
                                            dir + "/full.attrs",
                                            dir + "/full.labels"));
  COANE_RETURN_IF_ERROR(SaveAttributedGraph(sub.split.train_graph,
                                            dir + "/lp.edges",
                                            dir + "/lp.attrs", ""));

  const CoaneConfig base = HarnessBaseConfig(options.full, options.seed);
  // HarnessBaseConfig deviates from defaults only in flag-bound fields,
  // so its flag rendering reproduces the in-process config bit for bit.
  std::string flags;
  for (const std::string& flag : ConfigToFlags(base)) flags += " " + flag;
  flags += " --threads=2";
  // Crash at every 2nd epoch boundary: each supervisor incarnation makes
  // one epoch of progress, so a max_epochs-epoch run survives several
  // real SIGKILL/resume cycles.
  const std::string fault = "COANE_FAULT=cli.crash@2 ";

  MetricSuiteOptions eval_options;
  eval_options.train_ratio = options.train_ratio;
  eval_options.seed = options.seed;

  struct Leg {
    std::string name;
    std::vector<uint32_t> crcs;
    MetricSuite metrics;
  };
  std::vector<Leg> legs(2);
  legs[0].name = "e2e-cli";
  legs[1].name = "e2e-supervisor-resume";

  for (const char* tag : {"full", "lp"}) {
    const std::string edges = dir + "/" + tag + ".edges";
    const std::string attrs = dir + "/" + tag + ".attrs";
    const std::string base_out = dir + "/" + tag + "_cli.emb";
    const std::string sup_out = dir + "/" + tag + "_sup.emb";
    const std::string sup_ck = dir + "/" + tag + "_sup_ck";

    const std::string train = " train --edges=" + edges +
                              " --attrs=" + attrs + flags;
    if (RunShell(cli_bin + train + " --out=" + base_out +
                 " > /dev/null 2>&1") != 0) {
      return Status::Internal("coane_cli train failed for " +
                              std::string(tag));
    }
    if (RunShell(fault + supervisor_bin + " --checkpoint-dir=" + sup_ck +
                 " --out=" + sup_out + " --backoff-ms=10 -- " + cli_bin +
                 train + " --out=" + sup_out + " --checkpoint-dir=" +
                 sup_ck + " --checkpoint-every=1 > /dev/null 2>&1") != 0) {
      return Status::Internal("coane_supervisor run failed for " +
                              std::string(tag));
    }
    auto base_crc = FileCrc(base_out);
    if (!base_crc.ok()) return base_crc.status();
    auto sup_crc = FileCrc(sup_out);
    if (!sup_crc.ok()) return sup_crc.status();
    legs[0].crcs.push_back(base_crc.value());
    legs[1].crcs.push_back(sup_crc.value());
  }

  auto cli_suite = ScoreArtifacts(dir + "/full_cli.emb", dir + "/lp_cli.emb",
                                  sub, eval_options);
  if (!cli_suite.ok()) return cli_suite.status();
  legs[0].metrics = cli_suite.value();
  auto sup_suite = ScoreArtifacts(dir + "/full_sup.emb", dir + "/lp_sup.emb",
                                  sub, eval_options);
  if (!sup_suite.ok()) return sup_suite.status();
  legs[1].metrics = sup_suite.value();

  // Gate the CLI run against the in-process baseline, and the
  // supervisor-resumed run against the CLI run.
  const QualityCaseReport& inproc = report->cases.front();
  for (size_t i = 0; i < legs.size(); ++i) {
    const MetricSuite& ref_metrics =
        i == 0 ? inproc.result.metrics : legs[0].metrics;
    const std::vector<uint32_t>& ref_crcs =
        i == 0 ? inproc.result.artifact_crcs : legs[0].crcs;

    QualityCaseReport row;
    row.spec.name = legs[i].name;
    row.spec.mode = i == 0 ? RunMode::kDirect : RunMode::kResume;
    row.spec.threads = 2;
    row.spec.gate = GateClass::kBitIdentical;
    row.result.metrics = legs[i].metrics;
    row.result.artifact_crcs = legs[i].crcs;
    row.verdict = quality::CheckGate(GateClass::kBitIdentical, ref_metrics,
                                     legs[i].metrics, {}, ref_crcs,
                                     legs[i].crcs);
    if (!row.verdict.pass) report->all_pass = false;
    report->cases.push_back(row);
  }
  return Status::OK();
}

void PrintReport(const QualityReport& report) {
  std::printf("coane_quality: %s substrate, %lld nodes / %lld edges / %d "
              "classes, seed %llu\n",
              report.full ? "full" : "fast",
              static_cast<long long>(report.nodes),
              static_cast<long long>(report.edges), report.num_classes,
              static_cast<unsigned long long>(report.seed));
  std::printf("%-22s %-14s %9s %9s %9s %9s %9s  %s\n", "case", "gate",
              "macro_f1", "micro_f1", "link_auc", "nmi", "sec", "verdict");
  for (const QualityCaseReport& row : report.cases) {
    const std::string gate =
        row.spec.is_baseline ? "baseline" : GateClassName(row.spec.gate);
    std::printf("%-22s %-14s %9.4f %9.4f %9.4f %9.4f %9.2f  %s\n",
                row.spec.name.c_str(), gate.c_str(),
                row.result.metrics.macro_f1, row.result.metrics.micro_f1,
                row.result.metrics.link_auc, row.result.metrics.nmi,
                row.result.seconds,
                row.spec.is_baseline ? "-"
                                     : (row.verdict.pass ? "pass" : "FAIL"));
    for (const std::string& f : row.verdict.failures) {
      std::printf("    ! %s\n", f.c_str());
    }
  }
  std::printf("all_pass: %s\n", report.all_pass ? "true" : "false");
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: coane_quality [--flags]\n"
      "  --full              bench-grade substrate and matrix (default:\n"
      "                      the fast per-PR gate)\n"
      "  --seed=N            substrate/protocol master seed (42)\n"
      "  --out=FILE          trajectory artifact\n"
      "                      (bench_out/QUALITY_coane.json)\n"
      "  --work-dir=DIR      scratch dir (bench_out/quality_work)\n"
      "  --train-ratio=R     classification train fraction (0.5)\n"
      "  --cli-bin=PATH      with --supervisor-bin: add the real-process\n"
      "  --supervisor-bin=PATH   kill+resume leg (bit-gated)\n"
      "exit status: 0 all gates pass, 1 a gate failed, 2 usage/infra\n");
  return 2;
}

// Strict numeric flag parsing (common/flags.h): the whole value must
// parse, or it's a usage error (exit 2) — same contract as coane_cli.
// strtoull-style silent zero for "--seed=oops" is exactly the bug this
// avoids.
using flags::ParseWhole;

int Main(int argc, char** argv) {
  QualityHarnessOptions options;
  std::string out = "bench_out/QUALITY_coane.json";
  options.work_dir = "bench_out/quality_work";
  std::string cli_bin, supervisor_bin;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg]() {
      const size_t eq = arg.find('=');
      return eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    };
    auto bad_value = [&arg, &value]() {
      std::fprintf(stderr, "usage error: invalid numeric value '%s' in %s\n",
                   value().c_str(), arg.c_str());
    };
    if (arg == "--full") {
      options.full = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!ParseWhole(value(), &options.seed)) return bad_value(), 2;
    } else if (arg.rfind("--out=", 0) == 0) {
      out = value();
    } else if (arg.rfind("--work-dir=", 0) == 0) {
      options.work_dir = value();
    } else if (arg.rfind("--train-ratio=", 0) == 0) {
      if (!ParseWhole(value(), &options.train_ratio)) return bad_value(), 2;
    } else if (arg.rfind("--cli-bin=", 0) == 0) {
      cli_bin = value();
    } else if (arg.rfind("--supervisor-bin=", 0) == 0) {
      supervisor_bin = value();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (cli_bin.empty() != supervisor_bin.empty()) {
    std::fprintf(stderr,
                 "--cli-bin and --supervisor-bin must be given together\n");
    return Usage();
  }

  // The scratch dir encodes the previous run's config in its dist plan
  // files; a leftover tree from a different seed or matrix would fail
  // the foreign-work-dir guard instead of training. Start from nothing.
  const Status cleared = RemoveTree(options.work_dir);
  if (!cleared.ok()) {
    std::fprintf(stderr, "coane_quality: %s\n", cleared.ToString().c_str());
    return 2;
  }

  auto report = quality::RunQualityHarness(options);
  if (!report.ok()) {
    std::fprintf(stderr, "coane_quality: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  QualityReport r = std::move(report).ValueOrDie();

  if (!cli_bin.empty()) {
    const Status leg =
        RunSupervisorLeg(options, cli_bin, supervisor_bin, &r);
    if (!leg.ok()) {
      std::fprintf(stderr, "coane_quality e2e leg: %s\n",
                   leg.ToString().c_str());
      return 2;
    }
  }

  PrintReport(r);
  const Status write = quality::WriteQualityReportJson(r, out);
  if (!write.ok()) {
    std::fprintf(stderr, "coane_quality: %s\n", write.ToString().c_str());
    return 2;
  }
  std::printf("report: %s\n", out.c_str());
  return r.all_pass ? 0 : 1;
}

}  // namespace
}  // namespace coane

int main(int argc, char** argv) { return coane::Main(argc, argv); }
