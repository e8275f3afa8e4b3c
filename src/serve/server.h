#ifndef COANE_SERVE_SERVER_H_
#define COANE_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/latency_histogram.h"
#include "common/run_context.h"
#include "common/status.h"
#include "graph/attr_impute.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"

namespace coane {
namespace serve {

/// Overload / abuse counters maintained by the network front end
/// (`serve/frontend.*`) and surfaced through the "STATS" reply, so load
/// shedding is never a silent drop: every connection or request the
/// server refused is accounted for somewhere in this struct. All fields
/// are monotonic; relaxed ordering is fine — each counter is an
/// independent tally, never a synchronization point.
struct OverloadCounters {
  /// Connections admitted past the accept gate (served or queued).
  std::atomic<int64_t> conns_accepted{0};
  /// Connections answered "ERR Unavailable: retry" at accept time
  /// because the worker pool and pending queue were both full.
  std::atomic<int64_t> conns_rejected{0};
  /// Requests answered "ERR Unavailable: retry" by the in-flight gate
  /// (connection stayed open; the client may retry).
  std::atomic<int64_t> requests_shed{0};
  /// Connections closed for exceeding the idle timeout (slow-loris).
  std::atomic<int64_t> idle_timeouts{0};
  /// Connections closed for exceeding the request-line byte cap.
  std::atomic<int64_t> oversized{0};
  /// Connections closed by graceful drain — each one either finished
  /// its in-flight request or was flushed with "ERR Unavailable:
  /// draining" before the close.
  std::atomic<int64_t> conns_drained{0};
};

/// Server-wide knobs on top of the per-snapshot SnapshotOptions.
struct ServerOptions {
  SnapshotOptions snapshot;
  /// Per-request deadline; <= 0 disables. A request that overruns it
  /// answers "ERR DeadlineExceeded: ...".
  double query_deadline_sec = 0.0;
  /// External cancel token (the tool wires the SIGINT token here);
  /// nullptr disables. Must outlive the server.
  const std::atomic<bool>* cancel_flag = nullptr;
  /// Provenance of the served artifact: the imputation policy the
  /// upstream trainer ran with (coane_serve --missing-attrs, default
  /// zero). Purely descriptive at serve time — embeddings are already
  /// materialized — but surfaced in the "INFO" reply so clients of a
  /// degraded-input model can tell which policy produced what they are
  /// querying.
  MissingAttrPolicy missing_attrs = MissingAttrPolicy::kZero;
};

/// The transport-independent core of `coane_serve`: parses one
/// line-oriented request, runs it against the live snapshot, and renders
/// one reply. The stdin loop, the TCP connection threads, and the tests
/// all drive this same entry point.
///
/// Request grammar (SP-separated tokens, one request per line):
///
///   "KNN" k id            k nearest stored rows to row `id` (self
///                         excluded)
///   "KNNV" k v1 .. vd     k nearest rows to a free vector
///   "SCORE" u v           pairwise link score of rows u and v
///   "GET" id              the stored embedding of row `id`
///   "INFO"                snapshot metadata (count, dim, index, seq;
///                         plus log_pos/unobserved when the artifact
///                         carries stream provenance)
///   "STATS"               latency histogram table + swap count +
///                         freshness line (snapshot_seq, log_pos,
///                         snapshot_age_sec)
///   "PUBLISH" path        build a snapshot from the text embeddings at
///                         `path` (manifest-verified when the server was
///                         configured with one) and hot-swap it in;
///                         nothing is written beside `path`
///   "QUIT"                mark the session done (ShouldQuit() flips)
///
/// Replies: "OK ..." on one line ("OK" + table lines for STATS), or
/// "ERR <Code>: <message>". k-NN replies are "OK n id:score ...".
/// Queries addressing a node that was *unobserved* at train time (per
/// the provenance sidecar) answer "ERR NotFound: unobserved node ..."
/// with the imputation policy and log position — a pure-imputation
/// vector is never served as if it were learned.
///
/// Thread-safety: HandleLine may be called concurrently from any number
/// of threads, including a PUBLISH racing queries — the snapshot swap is
/// atomic and in-flight requests finish on the generation they acquired.
class Server {
 public:
  explicit Server(ServerOptions options);

  /// Builds and installs the initial snapshot from `embeddings_path`.
  Status Start(const std::string& embeddings_path);

  /// Handles one request line (without trailing newline) and returns the
  /// reply (possibly multi-line, no trailing newline).
  std::string HandleLine(const std::string& line);

  /// Builds a snapshot from `embeddings_path` off the serving structures
  /// (queries keep flowing during the build) and atomically swaps it in.
  /// On any failure — unreadable/corrupt artifact, failed manifest
  /// verification, injected serve.swap fault — the previous
  /// snapshot keeps serving untouched.
  Status Publish(const std::string& embeddings_path);

  /// True once a QUIT request was handled.
  bool ShouldQuit() const {
    return quit_.load(std::memory_order_acquire);
  }

  /// The "STATS" payload: per-operation latency table plus snapshot and
  /// overload counters. Also what the tool prints on shutdown.
  std::string StatsReport() const;

  /// Wires the front end's overload counters into STATS. `counters` must
  /// outlive the server; nullptr (the default) reports all-zero overload
  /// counters (stdin mode, tests without a front end). Call before
  /// serving starts — the pointer is not synchronized.
  void set_overload_counters(const OverloadCounters* counters) {
    overload_ = counters;
  }

  SnapshotRegistry* registry() { return &registry_; }
  const QueryEngine& engine() const { return engine_; }

 private:
  RunContext MakeRequestContext() const;

  ServerOptions options_;
  SnapshotRegistry registry_;
  QueryEngine engine_;
  LatencyHistogram knn_latency_{"knn"};
  LatencyHistogram score_latency_{"score"};
  LatencyHistogram get_latency_{"get"};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> errors_{0};
  std::atomic<bool> quit_{false};
  const OverloadCounters* overload_ = nullptr;
};

}  // namespace serve
}  // namespace coane

#endif  // COANE_SERVE_SERVER_H_
