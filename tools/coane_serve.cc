// coane_serve — embedding serving daemon over trained CoANE outputs.
//
// Loads a published embedding artifact (the CRC-footered text file the
// trainer writes) into memory, optionally proves it against the
// trainer's artifact manifest first, builds a k-NN index, and
// answers a line-oriented request protocol (see src/serve/server.h for
// the grammar) on stdin or on a TCP port. PUBLISH hot-swaps a new
// snapshot without dropping in-flight queries.
//
// The TCP path runs on the overload-resilient front end (serve/frontend.h):
// a fixed worker pool behind admission control, so a connection burst is
// queued up to --queue-cap and shed with "ERR Unavailable: retry" beyond
// that — never an unbounded thread spawn. SIGTERM/SIGINT triggers a
// graceful drain: stop accepting, finish (or deadline-out) in-flight
// requests, print final STATS, exit 0.
//
// Examples:
//   coane_serve --embeddings=/tmp/cora.emb
//   coane_serve --embeddings=/tmp/cora.emb --manifest=/tmp/ck/manifest.tsv
//       --index=ivf --nlist=32 --nprobe=6 --threads=8
//   coane_serve --embeddings=/tmp/cora.emb --port=7411 --max-conns=16
//
//   $ echo "KNN 5 0" | coane_serve --embeddings=/tmp/cora.emb
//   OK 5 17:0.91327 4:0.902614 ...

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstdio>
#include <map>
#include <string>

#include "common/flags.h"
#include "core/config_flags.h"
#include "common/run_context.h"
#include "common/string_utils.h"
#include "serve/frontend.h"
#include "serve/server.h"

namespace coane {
namespace {

// The shared "--key=value" convention (common/flags.h): bare "--key"
// means "true", malformed numeric values are a usage error (exit 2).
using Flags = flags::FlagSet;

int Usage() {
  std::fprintf(
      stderr,
      "usage: coane_serve --embeddings=FILE [--flags]\n"
      "  --embeddings=FILE   text embeddings (trainer output), served\n"
      "                      from memory; nothing is written beside it\n"
      "  --manifest=FILE     verify the artifact against this manifest\n"
      "                      before every snapshot build\n"
      "  --index=exact|ivf   k-NN index (default exact)\n"
      "  --metric=cosine|dot similarity metric (default cosine)\n"
      "  --nlist=N           IVF cells (default 16)\n"
      "  --nprobe=N          IVF cells probed per query (default 4)\n"
      "  --seed=N            IVF k-means seed (default 42)\n"
      "  --missing-attrs=reject|zero|mean|neighbor\n"
      "                      provenance: the imputation policy the\n"
      "                      trainer ran with; echoed by INFO (zero)\n"
      "  --threads=N         global pool size (default: hardware)\n"
      "  --query-deadline-ms=N  per-request deadline (default: none)\n"
      "  --port=N            serve TCP on 127.0.0.1:N instead of stdin\n"
      "                      (0 binds an ephemeral port and prints it)\n"
      "  --backlog=N         listen(2) backlog (default 64)\n"
      "  --max-conns=N       concurrent connections / worker pool size\n"
      "                      (default 8)\n"
      "  --queue-cap=N       accepted connections that may wait for a\n"
      "                      worker; beyond this accept answers\n"
      "                      'ERR Unavailable: retry' (default 16)\n"
      "  --max-inflight=N    requests concurrently in the query engine;\n"
      "                      excess requests are shed per line\n"
      "                      (default: max-conns)\n"
      "  --idle-timeout-sec=N  close a connection silent for N seconds\n"
      "                      (default 60; 0 disables)\n"
      "  --max-line-bytes=N  request-line byte cap (default 65536)\n"
      "  --drain-deadline-sec=N  graceful-drain budget for in-flight\n"
      "                      requests on SIGTERM/SIGINT (default 5)\n"
      "protocol: KNN k id | KNNV k v1..vd | SCORE u v | GET id | INFO |\n"
      "          STATS | PUBLISH path | QUIT   (one request per line)\n"
      "overload: a shed connection or request answers\n"
      "          'ERR Unavailable: retry' — clients must back off and\n"
      "          retry, not treat it as a protocol error\n");
  return 2;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.Has("help") || !flags.Has("embeddings")) return Usage();

  if (Status st = ApplyThreadsFlag(flags); !st.ok()) return UsageExit(st);
  InstallSignalCancellation();
  // A client that disconnects mid-reply must surface as a failed write,
  // not a SIGPIPE that kills the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  serve::ServerOptions options;
  options.snapshot.index_kind = flags.Get("index", "exact");
  auto metric = serve::ParseMetric(flags.Get("metric", "cosine"));
  if (!metric.ok()) return UsageExit(metric.status());
  options.snapshot.metric = metric.value();
  options.snapshot.manifest_path = flags.Get("manifest");
  options.snapshot.ivf.nlist =
      static_cast<int>(flags.GetInt("nlist", options.snapshot.ivf.nlist));
  options.snapshot.ivf.nprobe =
      static_cast<int>(flags.GetInt("nprobe", options.snapshot.ivf.nprobe));
  options.snapshot.ivf.seed =
      static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.query_deadline_sec =
      static_cast<double>(flags.GetInt("query-deadline-ms", 0)) * 1e-3;
  auto missing = ParseMissingAttrPolicy(flags.Get("missing-attrs", "zero"));
  if (!missing.ok()) return UsageExit(missing.status());
  options.missing_attrs = missing.value();

  const bool tcp = flags.Has("port");
  // TCP mode decouples request cancellation from the SIGINT/SIGTERM
  // token: the signal starts a graceful drain (stop accepting, let
  // in-flight requests finish), and only the drain deadline expiring
  // hard-cancels whatever is still running. stdin mode keeps the direct
  // wiring — one stream, nothing to drain.
  std::atomic<bool> drain_deadline_fired(false);
  options.cancel_flag =
      tcp ? &drain_deadline_fired : GlobalCancelToken();

  // Parse every frontend flag before the (possibly expensive) snapshot
  // build, so a usage error exits before any work.
  serve::FrontendOptions frontend_options;
  frontend_options.port = static_cast<int>(flags.GetInt("port", 0));
  frontend_options.backlog =
      static_cast<int>(flags.GetInt("backlog", 64));
  frontend_options.max_conns = flags.GetInt("max-conns", 8);
  frontend_options.queue_cap = flags.GetInt("queue-cap", 16);
  frontend_options.max_inflight = flags.GetInt("max-inflight", 0);
  frontend_options.limits.idle_timeout_sec =
      static_cast<double>(flags.GetInt("idle-timeout-sec", 60));
  frontend_options.limits.max_line_bytes =
      flags.GetInt("max-line-bytes", 1 << 16);
  frontend_options.drain_deadline_sec =
      static_cast<double>(flags.GetInt("drain-deadline-sec", 5));
  frontend_options.shutdown_flag = GlobalCancelToken();
  frontend_options.force_cancel = &drain_deadline_fired;

  serve::Server server(options);
  serve::OverloadCounters stdin_counters;

  const Status started = server.Start(flags.Get("embeddings"));
  if (!started.ok()) return ExitWith(started);
  {
    auto snapshot = server.engine().CurrentSnapshot();
    std::fprintf(stderr, "serving %lld x %lld embeddings (index=%s)\n",
                 static_cast<long long>(snapshot->store->count()),
                 static_cast<long long>(snapshot->store->dim()),
                 snapshot->index->name().c_str());
  }

  // The front end lives at Main scope — not inside the if(tcp) block —
  // because the server keeps a pointer to its counters for the shutdown
  // StatsReport below; in stdin mode it is constructed but never
  // started, which is a no-op.
  serve::TcpFrontend frontend(&server, frontend_options);

  int exit_code = 0;
  if (tcp) {
    server.set_overload_counters(&frontend.counters());
    const Status up = frontend.Start();
    if (!up.ok()) return ExitWith(up);
    std::printf("serving on 127.0.0.1:%d\n", frontend.port());
    std::fflush(stdout);
    exit_code = ExitWith(frontend.Wait());
  } else {
    server.set_overload_counters(&stdin_counters);
    serve::StreamLimits limits;
    limits.max_line_bytes = flags.GetInt("max-line-bytes", 1 << 16);
    serve::ServeLineStream(&server, STDIN_FILENO, STDOUT_FILENO, limits,
                           /*inflight=*/nullptr, &stdin_counters,
                           /*draining=*/GlobalCancelToken());
  }

  // Shutdown report: latency histograms, snapshot counters, and the
  // overload ledger.
  std::fprintf(stderr, "%s\n", server.StatsReport().c_str());
  return exit_code;
}

}  // namespace
}  // namespace coane

int main(int argc, char** argv) { return coane::Main(argc, argv); }
