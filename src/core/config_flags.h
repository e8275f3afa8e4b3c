#ifndef COANE_CORE_CONFIG_FLAGS_H_
#define COANE_CORE_CONFIG_FLAGS_H_

#include "common/flags.h"
#include "common/status.h"
#include "core/coane_config.h"

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

}  // namespace coane

#endif  // COANE_CORE_CONFIG_FLAGS_H_
