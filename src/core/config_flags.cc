#include "core/config_flags.h"

namespace coane {

Result<CoaneConfig> CoaneConfigFromFlags(const flags::FlagSet& flags) {
  CoaneConfig config;
  config.embedding_dim = flags.GetInt("dim", 128);
  config.max_epochs = static_cast<int>(flags.GetInt("epochs", 10));
  config.context_size = static_cast<int>(flags.GetInt("context", 5));
  config.num_walks = static_cast<int>(flags.GetInt("walks", 1));
  config.walk_length = static_cast<int>(flags.GetInt("walk-length", 80));
  config.num_negative = static_cast<int>(flags.GetInt("negatives", 20));
  config.attribute_gamma =
      static_cast<float>(flags.GetDouble("gamma", 1e5));
  config.learning_rate = static_cast<float>(flags.GetDouble("lr", 0.001));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.grad_clip_norm =
      static_cast<float>(flags.GetDouble("grad-clip", 0.0));
  if (flags.Has("presample")) {
    config.negative_mode = NegativeSamplingMode::kPreSampled;
  }
  auto policy = ParseMissingAttrPolicy(flags.Get("missing-attrs", "zero"));
  if (!policy.ok()) return policy.status();
  config.missing_attrs = policy.value();
  return config;
}

}  // namespace coane
