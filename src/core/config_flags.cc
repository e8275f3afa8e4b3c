#include "core/config_flags.h"

#include <algorithm>
#include <cstdio>

#include "common/parallel/global_pool.h"
#include "graph/graph_io.h"

namespace coane {
namespace {

std::string FloatFlag(const char* name, float value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "--%s=%.9g", name,
                static_cast<double>(value));
  return buf;
}

}  // namespace

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

std::vector<std::string> ConfigToFlags(const CoaneConfig& config) {
  std::vector<std::string> out = {
      "--dim=" + std::to_string(config.embedding_dim),
      "--epochs=" + std::to_string(config.max_epochs),
      "--context=" + std::to_string(config.context_size),
      "--walks=" + std::to_string(config.num_walks),
      "--walk-length=" + std::to_string(config.walk_length),
      "--negatives=" + std::to_string(config.num_negative),
      FloatFlag("gamma", config.attribute_gamma),
      FloatFlag("lr", config.learning_rate),
      "--seed=" + std::to_string(config.seed),
      FloatFlag("grad-clip", config.grad_clip_norm),
      std::string("--missing-attrs=") +
          MissingAttrPolicyName(config.missing_attrs),
  };
  if (config.negative_mode == NegativeSamplingMode::kPreSampled) {
    out.push_back("--presample");
  }
  return out;
}

RetryPolicy MakeRetryPolicy(const flags::FlagSet& flags) {
  RetryPolicy policy;
  policy.max_attempts =
      static_cast<int>(std::max<int64_t>(1, flags.GetInt("io-retries", 3)));
  policy.initial_backoff_sec = 0.01;
  policy.max_backoff_sec = 0.5;
  policy.jitter_seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  return policy;
}

Result<Graph> LoadFromFlags(const flags::FlagSet& flags,
                            const RunContext* ctx) {
  const std::string edges = flags.Get("edges");
  if (edges.empty()) {
    return Status::InvalidArgument("--edges is required");
  }
  LoadOptions options;
  const std::string policy = flags.Get("on-bad-line", "strict");
  if (policy == "skip") {
    options.bad_line_policy = BadLinePolicy::kSkip;
  } else if (policy != "strict") {
    return Status::InvalidArgument(
        "--on-bad-line must be 'strict' or 'skip', got '" + policy + "'");
  }
  options.max_nodes = flags.GetInt("max-nodes", 0);
  options.max_attr_dim = flags.GetInt("max-attr-dim", 0);
  options.run_context = ctx;
  // A transient open/read failure (including the injected "graph_io.load"
  // fault) is retried; a missing path, a directory and parse errors are
  // permanent and surface at once.
  return RetryResultOp<Graph>(
      MakeRetryPolicy(flags), ctx, "graph_io.load", [&]() -> Result<Graph> {
        LoadSummary summary;
        auto graph = LoadAttributedGraph(edges, flags.Get("attrs"),
                                         flags.Get("labels"), options,
                                         &summary);
        if (graph.ok() && summary.quarantined_lines > 0) {
          std::fprintf(stderr, "warning: %s\n", summary.ToString().c_str());
          for (const std::string& diag : summary.sample_diagnostics) {
            std::fprintf(stderr, "  %s\n", diag.c_str());
          }
        }
        return graph;
      });
}

RunContext RunContextFromFlags(const flags::FlagSet& flags) {
  InstallSignalCancellation();
  RunContext ctx = RunContext::WithGlobalCancel();
  const double deadline_sec = flags.GetDouble("deadline-sec", 0.0);
  if (deadline_sec > 0.0) ctx.SetDeadlineAfter(deadline_sec);
  return ctx;
}

Status ApplyThreadsFlag(const flags::FlagSet& flags) {
  const int64_t threads =
      flags.GetInt("threads", ThreadPool::DefaultThreadCount());
  if (threads < 1) {
    return Status::InvalidArgument("--threads must be >= 1");
  }
  SetGlobalParallelism(static_cast<int>(threads));
  return Status::OK();
}

bool IsCooperativeStop(const Status& status) {
  return status.code() == StatusCode::kCancelled ||
         status.code() == StatusCode::kDeadlineExceeded;
}

int ExitWith(const Status& status, const std::string& stop_hint) {
  if (status.ok()) return 0;
  if (IsCooperativeStop(status)) {
    std::printf("stopped: %s%s%s\n", status.ToString().c_str(),
                stop_hint.empty() ? "" : " — ", stop_hint.c_str());
    return 0;
  }
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int UsageExit(const Status& status) {
  std::fprintf(stderr, "usage error: %s\n", status.ToString().c_str());
  return 2;
}

}  // namespace coane
