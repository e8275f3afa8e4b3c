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

// The exit contract every tool shares (DESIGN.md §6): 0 success or a
// cooperative stop, 1 error, 2 usage error.

/// The run context of a tool process: SIGINT/SIGTERM cancel it (through
/// the process-wide token) and --deadline-sec=S, when positive, stops it
/// cooperatively after S seconds of wall clock.
RunContext RunContextFromFlags(const flags::FlagSet& flags);

/// Sizes the global pool from --threads (default: hardware concurrency).
/// A value below 1 is kInvalidArgument and leaves the pool unchanged.
Status ApplyThreadsFlag(const flags::FlagSet& flags);

/// True for a cooperative stop: kCancelled (SIGINT/SIGTERM) or
/// kDeadlineExceeded (--deadline-sec, a watchdog-declared hang).
bool IsCooperativeStop(const Status& status);

/// The exit code for a tool's final status. OK is 0. A cooperative stop
/// prints "stopped: <status>", plus " — <stop_hint>" when a hint is
/// given, on stdout and is 0. Any other status prints "error: <status>"
/// on stderr and is 1.
int ExitWith(const Status& status, const std::string& stop_hint = "");

/// Prints "usage error: <status>" on stderr and returns 2.
int UsageExit(const Status& status);

}  // namespace coane

#endif  // COANE_CORE_CONFIG_FLAGS_H_
