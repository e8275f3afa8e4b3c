#include "quality/tolerance_gate.h"

#include <cmath>
#include <cstdio>

namespace coane {
namespace quality {
namespace {

std::string FormatMetric(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

double MetricTolerance::For(const std::string& name) const {
  if (name == "macro_f1") return macro_f1;
  if (name == "micro_f1") return micro_f1;
  if (name == "link_auc") return link_auc;
  if (name == "nmi") return nmi;
  return 0.0;
}

GateVerdict CheckGate(GateClass gate, const MetricSuite& baseline,
                      const MetricSuite& candidate,
                      const MetricTolerance& tolerance,
                      const std::vector<uint32_t>& baseline_crcs,
                      const std::vector<uint32_t>& candidate_crcs) {
  GateVerdict verdict;
  const auto base_entries = baseline.Entries();
  const auto cand_entries = candidate.Entries();
  for (size_t i = 0; i < base_entries.size(); ++i) {
    verdict.deltas.push_back(
        std::fabs(cand_entries[i].second - base_entries[i].second));
  }

  if (gate == GateClass::kBitIdentical) {
    // Artifact bytes first: metric equality follows from byte equality,
    // so a CRC mismatch with equal metrics still means the determinism
    // contract broke somewhere the metric surface cannot see.
    if (baseline_crcs.size() != candidate_crcs.size()) {
      verdict.pass = false;
      verdict.failures.push_back("artifact count mismatch: baseline has " +
                                 std::to_string(baseline_crcs.size()) +
                                 ", candidate has " +
                                 std::to_string(candidate_crcs.size()));
    } else {
      for (size_t i = 0; i < baseline_crcs.size(); ++i) {
        if (baseline_crcs[i] != candidate_crcs[i]) {
          char buf[96];
          std::snprintf(buf, sizeof(buf),
                        "artifact %zu crc32 %08x != baseline %08x", i,
                        candidate_crcs[i], baseline_crcs[i]);
          verdict.pass = false;
          verdict.failures.push_back(buf);
        }
      }
    }
    for (size_t i = 0; i < base_entries.size(); ++i) {
      if (cand_entries[i].second != base_entries[i].second) {
        verdict.pass = false;
        verdict.failures.push_back(
            cand_entries[i].first + " " +
            FormatMetric(cand_entries[i].second) + " != baseline " +
            FormatMetric(base_entries[i].second) + " (bit-identical gate)");
      }
    }
    return verdict;
  }

  for (size_t i = 0; i < base_entries.size(); ++i) {
    const std::string& name = base_entries[i].first;
    const double delta = verdict.deltas[i];
    const double bound = tolerance.For(name);
    if (!(delta <= bound)) {  // catches NaN deltas too
      verdict.pass = false;
      verdict.failures.push_back(
          name + " |" + FormatMetric(cand_entries[i].second) + " - " +
          FormatMetric(base_entries[i].second) + "| = " +
          FormatMetric(delta) + " exceeds tolerance " +
          FormatMetric(bound));
    }
  }
  return verdict;
}

std::string GateClassName(GateClass gate) {
  return gate == GateClass::kBitIdentical ? "bit-identical" : "tolerance";
}

}  // namespace quality
}  // namespace coane
