// coane_streamd — the dynamic-graph publisher: tails a mutation log,
// folds batches into the attributed graph, incrementally maintains the
// walk corpus and imputed features, warm-starts training from the last
// checkpoint, and publishes manifest-attested embedding artifacts whose
// provenance sidecars let coane_serve hot-swap them through its
// freshness gate. See DESIGN.md §10.
//
//   coane_streamd init   --log=g.mlog
//   coane_streamd append --log=g.mlog --op="edge+ 12 40 1.0"
//   coane_streamd append --log=g.mlog --file=batch.txt
//   coane_streamd apply  --log=g.mlog --work-dir=/tmp/stream \
//       --edges=cora.edges --attrs=cora.attrs \
//       --batch-max=64 --refine-epochs=5 --follow --serve-port=7070
//   coane_streamd status --log=g.mlog --work-dir=/tmp/stream --edges=...
//   coane_streamd recover --log=g.mlog

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/os_error.h"
#include "common/record_file.h"
#include "common/run_context.h"
#include "common/string_utils.h"
#include "core/config_flags.h"
#include "stream/mutation_log.h"
#include "stream/pipeline.h"

namespace coane {
namespace {

using Flags = flags::FlagSet;
using stream::Mutation;
using stream::MutationLogWriter;
using stream::PipelineOptions;
using stream::StepResult;
using stream::StreamPipeline;

int Usage() {
  std::fprintf(
      stderr,
      "usage: coane_streamd <command> [--flags]\n"
      "commands:\n"
      "  init     create an empty mutation log\n"
      "    --log=FILE\n"
      "  append   append mutation records (fsync per record)\n"
      "    --log=FILE --op=\"<body>\" | --file=FILE\n"
      "    bodies: \"edge+ u v w\", \"edge- u v\", \"node+ id label\",\n"
      "            \"attr node col val\" (val=nan masks the cell);\n"
      "    --file: one body per line, '#' lines skipped\n"
      "  apply    run the train->publish pipeline over the log\n"
      "    --log=FILE --work-dir=DIR --edges=FILE\n"
      "    [--attrs=FILE --labels=FILE]\n"
      "    batching:\n"
      "      --batch-max=N       mutations folded per step (64)\n"
      "      --batch-age-sec=S   in --follow mode, flush a partial batch\n"
      "                          once its oldest record is S old (0 =\n"
      "                          flush any pending immediately)\n"
      "      --max-batches=N     stop after N publishes (0 = until the\n"
      "                          log is exhausted, or forever with\n"
      "                          --follow)\n"
      "      --follow            keep tailing the log for new records\n"
      "      --poll-ms=MS        idle poll interval in --follow (200)\n"
      "    publishing:\n"
      "      --serve-port=P      after each publish, hot-swap a running\n"
      "                          coane_serve via \"PUBLISH <path>\"\n"
      "      --serve-host=H      its address (127.0.0.1)\n"
      "      --refine-epochs=E   warm-start budget per batch (5)\n"
      "    training: --dim --epochs (initial build) --context --walks\n"
      "      --walk-length --negatives --gamma --lr --seed --presample\n"
      "      --grad-clip --threads --missing-attrs\n"
      "  status   print the committed pipeline state and pending count\n"
      "    --log=FILE --work-dir=DIR --edges=FILE [training flags]\n"
      "  recover  truncate a torn log tail (quarantined to .quarantine)\n"
      "    --log=FILE\n");
  return 2;
}

Result<PipelineOptions> OptionsFromFlags(const Flags& flags) {
  PipelineOptions options;
  options.log_path = flags.Get("log");
  options.work_dir = flags.Get("work-dir");
  options.init_edges = flags.Get("edges");
  options.init_attrs = flags.Get("attrs");
  options.init_labels = flags.Get("labels");
  if (options.log_path.empty() || options.work_dir.empty() ||
      options.init_edges.empty()) {
    return Status::InvalidArgument(
        "--log, --work-dir and --edges are required");
  }
  // coane_cli's training config, so the initial build is byte-identical
  // to `coane_cli train` under the same flags.
  auto config = CoaneConfigFromFlags(flags);
  if (!config.ok()) return config.status();
  options.config = std::move(config).ValueOrDie();
  if (options.init_attrs.empty()) {
    options.config.use_attributes = false;
    options.config.use_attribute_loss = false;
  }
  options.refine_epochs =
      static_cast<int>(flags.GetInt("refine-epochs", 5));
  options.batch_max = flags.GetInt("batch-max", 64);
  return options;
}

// One round-trip "PUBLISH <path>" against a running coane_serve. The
// server builds the snapshot off its serving threads and Install runs
// its sequence + log-position gates; an "ERR ..." reply (e.g. a stale
// artifact rejected by the freshness gate) comes back as
// kFailedPrecondition so the caller can tell refusal from transport
// failure.
Status PublishToServe(const std::string& host, int port,
                      const std::string& embeddings_path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoToStatus(errno, "socket");
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad --serve-host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status st = ErrnoToStatus(
        errno, "connect " + host + ":" + std::to_string(port));
    ::close(fd);
    return st;
  }
  const std::string request = "PUBLISH " + embeddings_path + "\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      const Status st = ErrnoToStatus(errno, "write PUBLISH");
      ::close(fd);
      return st;
    }
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buf[512];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      const Status st = ErrnoToStatus(errno, "read PUBLISH reply");
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t eol = reply.find('\n');
  if (eol != std::string::npos) reply.resize(eol);
  if (reply.rfind("OK", 0) == 0) return Status::OK();
  return Status::FailedPrecondition("serve refused publish: " +
                                    (reply.empty() ? "connection closed"
                                                   : reply));
}

int RunInit(const Flags& flags) {
  const std::string log_path = flags.Get("log");
  if (log_path.empty()) return Usage();
  auto writer = MutationLogWriter::Open(log_path);
  if (!writer.ok()) return ExitWith(writer.status());
  std::printf("log %s ready at seq %llu\n", log_path.c_str(),
              static_cast<unsigned long long>(writer.value().last_seq()));
  return 0;
}

int RunAppend(const Flags& flags) {
  const std::string log_path = flags.Get("log");
  if (log_path.empty()) return Usage();

  std::vector<Mutation> batch;
  if (flags.Has("op")) {
    auto m = stream::ParseMutationBody(flags.Get("op"));
    if (!m.ok()) return ExitWith(m.status());
    batch.push_back(m.value());
  }
  if (flags.Has("file")) {
    auto blob = ReadFileToString(flags.Get("file"));
    if (!blob.ok()) return ExitWith(blob.status());
    for (const std::string& line : Split(blob.value(), '\n')) {
      if (line.empty() || line[0] == '#') continue;
      auto m = stream::ParseMutationBody(line);
      if (!m.ok()) return ExitWith(m.status());
      batch.push_back(m.value());
    }
  }
  if (batch.empty()) {
    return UsageExit(Status::InvalidArgument("append needs --op or --file"));
  }

  auto writer = MutationLogWriter::Open(log_path);
  if (!writer.ok()) return ExitWith(writer.status());
  uint64_t last = 0;
  for (const Mutation& m : batch) {
    auto seq = writer.value().Append(m);
    if (!seq.ok()) return ExitWith(seq.status());
    last = seq.value();
  }
  std::printf("appended %zu record%s, log at seq %llu\n", batch.size(),
              batch.size() == 1 ? "" : "s",
              static_cast<unsigned long long>(last));
  return 0;
}

int RunRecover(const Flags& flags) {
  const std::string log_path = flags.Get("log");
  if (log_path.empty()) return Usage();
  // Diagnose before recovering: RecoverMutationLog returns the
  // post-recovery contents, whose tail is clean by construction.
  auto before = stream::ReadMutationLog(log_path);
  if (!before.ok()) return ExitWith(before.status());
  auto recovered = stream::RecoverMutationLog(log_path);
  if (!recovered.ok()) return ExitWith(recovered.status());
  if (before.value().tail_bytes > 0) {
    std::printf("quarantined %lld torn byte%s (%s); log at seq %llu\n",
                static_cast<long long>(before.value().tail_bytes),
                before.value().tail_bytes == 1 ? "" : "s",
                before.value().tail_error.c_str(),
                static_cast<unsigned long long>(
                    recovered.value().last_seq));
  } else {
    std::printf("log clean at seq %llu\n",
                static_cast<unsigned long long>(
                    recovered.value().last_seq));
  }
  return 0;
}

// Pending records beyond `after_seq` plus the append stamp of the oldest
// one — what the count/age batching policy keys off.
struct PendingView {
  int64_t count = 0;
  int64_t oldest_unix_ms = 0;
};

Result<PendingView> ScanPending(const std::string& log_path,
                                uint64_t after_seq) {
  auto log = stream::ReadMutationLog(log_path);
  if (!log.ok()) return log.status();
  PendingView view;
  for (const Mutation& m : log.value().mutations) {
    if (m.seq <= after_seq) continue;
    if (view.count == 0) view.oldest_unix_ms = m.unix_ms;
    ++view.count;
  }
  return view;
}

int RunStatus(const Flags& flags) {
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) return UsageExit(options.status());
  auto pipeline = StreamPipeline::Open(options.value());
  if (!pipeline.ok()) return ExitWith(pipeline.status());
  const StreamPipeline& p = *pipeline.value();
  auto pending = p.Pending();
  if (!pending.ok()) return ExitWith(pending.status());
  std::printf("initialized %s\n", p.initialized() ? "yes" : "no");
  std::printf("log_seq %llu\n",
              static_cast<unsigned long long>(p.log_seq()));
  std::printf("chain_fingerprint %s\n",
              Hex64(p.chain_fingerprint()).c_str());
  std::printf("pending %lld\n",
              static_cast<long long>(pending.value()));
  std::printf("embeddings %s\n", p.embeddings_path().c_str());
  std::printf("checkpoint %s\n", p.checkpoint_path().c_str());
  return 0;
}

int RunApply(const Flags& flags) {
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) return UsageExit(options.status());
  RunContext ctx = RunContextFromFlags(flags);

  const bool follow = flags.Has("follow");
  const int64_t max_batches = flags.GetInt("max-batches", 0);
  const double poll_sec = flags.GetDouble("poll-ms", 200.0) / 1000.0;
  const double batch_age_sec = flags.GetDouble("batch-age-sec", 0.0);
  const std::string serve_host = flags.Get("serve-host", "127.0.0.1");
  const int serve_port = static_cast<int>(flags.GetInt("serve-port", 0));

  auto opened = StreamPipeline::Open(options.value());
  if (!opened.ok()) return ExitWith(opened.status());
  StreamPipeline& pipeline = *opened.value();

  // A stop exits 0 naming where a rerun resumes.
  const auto exit_with = [&pipeline](const Status& st) {
    return ExitWith(st, "rerun with the same flags to resume from log "
                        "position " +
                            std::to_string(pipeline.log_seq()));
  };
  int64_t publishes = 0;
  while (true) {
    if (Status st = ctx.Check("streamd.loop"); !st.ok()) {
      return exit_with(st);
    }

    // Batching policy: the initial build runs unconditionally; after it,
    // a step is triggered by count (>= batch_max pending) or age (oldest
    // pending record older than batch_age_sec). Without --follow, any
    // pending work flushes immediately and exhaustion ends the run.
    if (pipeline.initialized()) {
      auto pending = ScanPending(options.value().log_path,
                                 pipeline.log_seq());
      if (!pending.ok()) return ExitWith(pending.status());
      const int64_t count = pending.value().count;
      if (count == 0) {
        if (!follow) break;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(poll_sec));
        continue;
      }
      if (follow && count < options.value().batch_max &&
          batch_age_sec > 0.0) {
        const double age_sec =
            static_cast<double>(stream::NowUnixMs() -
                                pending.value().oldest_unix_ms) /
            1000.0;
        if (age_sec < batch_age_sec) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(poll_sec));
          continue;
        }
      }
    }

    auto step = pipeline.Step(&ctx);
    if (!step.ok()) return exit_with(step.status());
    const StepResult& result = step.value();
    if (!result.published) continue;

    std::printf("published gen %llu: applied=%lld rewalked=%lld/%lld "
                "reimputed=%lld/%lld -> %s\n",
                static_cast<unsigned long long>(result.log_seq),
                static_cast<long long>(result.applied),
                static_cast<long long>(result.walk_stats.rewalked),
                static_cast<long long>(result.walk_stats.total_walks),
                static_cast<long long>(
                    result.reimpute_stats.recomputed_rows),
                static_cast<long long>(result.reimpute_stats.total_rows),
                result.embeddings_path.c_str());

    if (serve_port > 0) {
      const Status pushed =
          PublishToServe(serve_host, serve_port, result.embeddings_path);
      if (!pushed.ok()) {
        // The artifact is durable and committed; a refused or failed
        // hot-swap is reported but does not stop the pipeline — the next
        // publish (or a restarted server) picks it up.
        std::fprintf(stderr, "serve publish failed: %s\n",
                     pushed.ToString().c_str());
      } else {
        std::printf("served gen %llu on %s:%d\n",
                    static_cast<unsigned long long>(result.log_seq),
                    serve_host.c_str(), serve_port);
      }
    }

    ++publishes;
    if (max_batches > 0 && publishes >= max_batches) break;
  }

  std::printf("pipeline at log position %llu after %lld publish%s\n",
              static_cast<unsigned long long>(pipeline.log_seq()),
              static_cast<long long>(publishes),
              publishes == 1 ? "" : "es");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  // Chaos hook: tests inject torn appends / failed artifact saves into
  // the real binary through COANE_FAULT; unset, this arms nothing.
  if (Status st = fault::ArmFromEnv(); !st.ok()) return UsageExit(st);
  if (Status st = ApplyThreadsFlag(flags); !st.ok()) return UsageExit(st);
  if (command == "init") return RunInit(flags);
  if (command == "append") return RunAppend(flags);
  if (command == "apply") return RunApply(flags);
  if (command == "status") return RunStatus(flags);
  if (command == "recover") return RunRecover(flags);
  return Usage();
}

}  // namespace
}  // namespace coane

int main(int argc, char** argv) { return coane::Main(argc, argv); }
