#ifndef COANE_CORE_CONFIG_FLAGS_H_
#define COANE_CORE_CONFIG_FLAGS_H_

#include <string>
#include <vector>

#include "common/flags.h"
#include "common/retry.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/coane_config.h"
#include "graph/graph.h"

namespace coane {

/// The training flags shared by `coane_cli train`, `coane_distd` and
/// `coane_streamd`, bound in one place so the same flags give the same
/// CoaneConfig (hence fingerprint and bytes) in every tool:
///
///   --dim=128 --epochs=10 --context=5 --walks=1 --walk-length=80
///   --negatives=20 --gamma=1e5 --lr=0.001 --seed=42 --grad-clip=0
///   --presample (pre-sampled negatives) --missing-attrs=zero
///
/// Every other field keeps its CoaneConfig default. use_attributes is the
/// caller's decision (it depends on the data the tool loads). Returns
/// kInvalidArgument for an unknown --missing-attrs policy, which callers
/// report as a usage error; a malformed numeric value exits 2 inside
/// FlagSet.
Result<CoaneConfig> CoaneConfigFromFlags(const flags::FlagSet& flags);

/// The inverse of CoaneConfigFromFlags: every flag it binds, rendered
/// from `config` ("--presample" only for kPreSampled). Floats render with
/// %.9g, which parses back to the same float, so
/// CoaneConfigFromFlags(ConfigToFlags(c)) reproduces every flag-bound
/// field. Fields no flag binds are not rendered.
std::vector<std::string> ConfigToFlags(const CoaneConfig& config);

/// The retry policy of a tool's retried I/O (graph loads, checkpoint,
/// embedding and manifest writes): --io-retries attempts (default 3, at
/// least 1), jitter seeded from --seed so backoff schedules repeat.
RetryPolicy MakeRetryPolicy(const flags::FlagSet& flags);

/// Loads the graph named by --edges (required), --attrs and --labels
/// under the loader flags --on-bad-line=strict|skip, --max-nodes and
/// --max-attr-dim, retrying transient failures per MakeRetryPolicy. With
/// skip, quarantined lines are summarised on stderr. A bad --on-bad-line
/// value or a missing --edges is kInvalidArgument.
Result<Graph> LoadFromFlags(const flags::FlagSet& flags,
                            const RunContext* ctx);

}  // namespace coane

#endif  // COANE_CORE_CONFIG_FLAGS_H_
