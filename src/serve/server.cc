#include "serve/server.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/string_utils.h"
#include "common/table_printer.h"
#include "stream/mutation_log.h"

namespace coane {
namespace serve {

namespace {

Result<int64_t> ParseInt(const std::string& token, const char* what) {
  int64_t value = 0;
  if (!flags::ParseWhole(token, &value)) {
    return Status::InvalidArgument(std::string(what) + " '" + token +
                                   "' is not an integer");
  }
  return value;
}

Result<float> ParseFloat(const std::string& token, const char* what) {
  // strtof accepts leading whitespace and partial parses; reject both.
  char* end = nullptr;
  const float value = std::strtof(token.c_str(), &end);
  if (end != token.c_str() + token.size() || token.empty()) {
    return Status::InvalidArgument(std::string(what) + " '" + token +
                                   "' is not a number");
  }
  // strtof also accepts "nan"/"inf" (and overflows to infinity); a
  // non-finite component would poison every score and break the neighbor
  // ordering, so reject it at the wire.
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(std::string(what) + " '" + token +
                                   "' is not finite");
  }
  return value;
}

std::string FormatScore(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string ErrReply(const Status& status) {
  return "ERR " + status.ToString();
}

// A query *for* an unobserved node answers NotFound with provenance: its
// stored vector is pure imputation, and handing it out as if it were a
// learned embedding would silently serve synthetic data. (Unobserved
// nodes may still appear as *neighbors* of observed queries — the index
// is not filtered — only direct lookups are refused.)
Status UnobservedError(const Snapshot& snapshot, int64_t id) {
  return Status::NotFound(
      "unobserved node " + std::to_string(id) +
      ": attributes were never observed, stored vector is pure "
      "imputation (policy=" + snapshot.trained_policy +
      ", log_seq=" + std::to_string(snapshot.log_seq) + ")");
}

// Acquires the live generation once and refuses any of `ids` that was
// unobserved in it. The caller answers on the same generation, so a
// PUBLISH landing mid-request can neither refuse an id that is observed
// in the generation being served nor hand out an imputed vector.
Result<std::shared_ptr<const Snapshot>> AcquireObserved(
    const QueryEngine& engine, std::initializer_list<int64_t> ids) {
  auto snapshot = engine.AcquireSnapshot();
  if (!snapshot.ok()) return snapshot.status();
  for (const int64_t id : ids) {
    if (snapshot.value()->IsUnobserved(id)) {
      return UnobservedError(*snapshot.value(), id);
    }
  }
  return snapshot;
}

std::string NeighborsReply(const std::vector<Neighbor>& neighbors) {
  std::string reply = "OK " + std::to_string(neighbors.size());
  for (const Neighbor& n : neighbors) {
    reply += " " + std::to_string(n.id) + ":" + FormatScore(n.score);
  }
  return reply;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), engine_(&registry_) {}

Status Server::Start(const std::string& embeddings_path) {
  return Publish(embeddings_path);
}

Status Server::Publish(const std::string& embeddings_path) {
  // The build runs entirely off the serving structures: queries keep
  // resolving against the current generation until the one atomic
  // Install below.
  auto snapshot = BuildSnapshot(embeddings_path, options_.snapshot,
                                registry_.NextSequence());
  if (!snapshot.ok()) return snapshot.status();
  return registry_.Install(std::move(snapshot).ValueOrDie());
}

RunContext Server::MakeRequestContext() const {
  RunContext ctx;
  if (options_.query_deadline_sec > 0.0) {
    ctx.SetDeadlineAfter(options_.query_deadline_sec);
  }
  ctx.SetCancelFlag(options_.cancel_flag);
  return ctx;
}

std::string Server::HandleLine(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<std::string> tokens = SplitWhitespace(line);
  auto fail = [this](const Status& status) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrReply(status);
  };
  if (tokens.empty()) {
    return fail(Status::InvalidArgument("empty request"));
  }
  const std::string& cmd = tokens[0];
  const RunContext ctx = MakeRequestContext();

  if (cmd == "KNN" || cmd == "KNNV") {
    if (tokens.size() < 3) {
      return fail(Status::InvalidArgument(
          cmd + " needs: " + cmd + " <k> " +
          (cmd == "KNN" ? "<id>" : "<v1> ... <vd>")));
    }
    auto k = ParseInt(tokens[1], "k");
    if (!k.ok()) return fail(k.status());
    Stopwatch timer;
    // Overwritten on both branches below; a Result must hold an error
    // until it holds a value.
    Result<std::vector<Neighbor>> neighbors =
        Status::Internal("unreachable");
    if (cmd == "KNN") {
      if (tokens.size() != 3) {
        return fail(Status::InvalidArgument("KNN needs: KNN <k> <id>"));
      }
      auto id = ParseInt(tokens[2], "id");
      if (!id.ok()) return fail(id.status());
      auto snapshot = AcquireObserved(engine_, {id.value()});
      if (!snapshot.ok()) return fail(snapshot.status());
      neighbors = QueryEngine::KnnByIdOnSnapshot(
          *snapshot.value(), id.value(), k.value(), /*exclude_self=*/true,
          /*stats=*/nullptr, &ctx);
    } else {
      std::vector<float> query;
      query.reserve(tokens.size() - 2);
      for (size_t i = 2; i < tokens.size(); ++i) {
        auto component = ParseFloat(tokens[i], "vector component");
        if (!component.ok()) return fail(component.status());
        query.push_back(component.value());
      }
      neighbors = engine_.KnnByVector(query, k.value(), /*stats=*/nullptr,
                                      &ctx);
    }
    knn_latency_.Record(timer.ElapsedSeconds());
    if (!neighbors.ok()) return fail(neighbors.status());
    return NeighborsReply(neighbors.value());
  }

  if (cmd == "SCORE") {
    if (tokens.size() != 3) {
      return fail(Status::InvalidArgument("SCORE needs: SCORE <u> <v>"));
    }
    auto u = ParseInt(tokens[1], "u");
    if (!u.ok()) return fail(u.status());
    auto v = ParseInt(tokens[2], "v");
    if (!v.ok()) return fail(v.status());
    auto snapshot = AcquireObserved(engine_, {u.value(), v.value()});
    if (!snapshot.ok()) return fail(snapshot.status());
    Stopwatch timer;
    auto scores = QueryEngine::ScoreLinksOnSnapshot(
        *snapshot.value(), {{u.value(), v.value()}}, &ctx);
    score_latency_.Record(timer.ElapsedSeconds());
    if (!scores.ok()) return fail(scores.status());
    return "OK " + FormatScore(scores.value()[0]);
  }

  if (cmd == "GET") {
    if (tokens.size() != 2) {
      return fail(Status::InvalidArgument("GET needs: GET <id>"));
    }
    auto id = ParseInt(tokens[1], "id");
    if (!id.ok()) return fail(id.status());
    auto snapshot = AcquireObserved(engine_, {id.value()});
    if (!snapshot.ok()) return fail(snapshot.status());
    Stopwatch timer;
    auto row = QueryEngine::FetchOnSnapshot(*snapshot.value(), id.value());
    get_latency_.Record(timer.ElapsedSeconds());
    if (!row.ok()) return fail(row.status());
    std::string reply = "OK";
    char buf[32];
    for (const float v : row.value()) {
      std::snprintf(buf, sizeof(buf), " %.9g", static_cast<double>(v));
      reply += buf;
    }
    return reply;
  }

  if (cmd == "INFO") {
    auto acquired = engine_.AcquireSnapshot();
    if (!acquired.ok()) return fail(acquired.status());
    const std::shared_ptr<const Snapshot>& snapshot = acquired.value();
    std::string reply =
        "OK count=" + std::to_string(snapshot->store->count()) +
        " dim=" + std::to_string(snapshot->store->dim()) +
        " metric=" + MetricName(snapshot->index->metric()) +
        " index=" + snapshot->index->name() +
        " seq=" + std::to_string(snapshot->sequence);
    if (snapshot->has_provenance) {
      reply += " log_pos=" + std::to_string(snapshot->log_seq) +
               " unobserved=" + std::to_string(snapshot->unobserved.size());
    }
    // The provenance sidecar knows the policy the artifact was actually
    // trained under; without one, fall back to the operator-declared
    // --missing-attrs flag.
    reply += " missing_attrs=" +
             (snapshot->has_provenance
                  ? snapshot->trained_policy
                  : std::string(
                        MissingAttrPolicyName(options_.missing_attrs))) +
             " source=" + snapshot->source_path;
    return reply;
  }

  if (cmd == "STATS") {
    return "OK\n" + StatsReport();
  }

  if (cmd == "PUBLISH") {
    if (tokens.size() != 2) {
      return fail(
          Status::InvalidArgument("PUBLISH needs: PUBLISH <path>"));
    }
    const Status status = Publish(tokens[1]);
    if (!status.ok()) return fail(status);
    auto snapshot = engine_.CurrentSnapshot();
    return "OK snapshot " +
           std::to_string(snapshot != nullptr ? snapshot->sequence : 0);
  }

  if (cmd == "QUIT") {
    quit_.store(true, std::memory_order_release);
    return "OK bye";
  }

  return fail(Status::InvalidArgument("unknown command '" + cmd + "'"));
}

std::string Server::StatsReport() const {
  TablePrinter table("Serving latency");
  table.SetHeader(LatencyHistogram::TableHeader());
  knn_latency_.AppendRow(&table);
  score_latency_.AppendRow(&table);
  get_latency_.AppendRow(&table);
  std::string report = table.ToString();
  report += "requests " +
            std::to_string(requests_.load(std::memory_order_relaxed)) +
            "  errors " +
            std::to_string(errors_.load(std::memory_order_relaxed)) +
            "  snapshot_swaps " + std::to_string(registry_.swaps());
  // Overload ledger: always printed (zeros without a front end) so STATS
  // consumers can parse one stable shape, and a chaos test can assert
  // that nothing the server refused went uncounted.
  static const OverloadCounters kNoFrontend;
  const OverloadCounters& ov = overload_ != nullptr ? *overload_
                                                    : kNoFrontend;
  auto count = [](const std::atomic<int64_t>& c) {
    return std::to_string(c.load(std::memory_order_relaxed));
  };
  report += "\nconns_accepted " + count(ov.conns_accepted) +
            "  conns_rejected " + count(ov.conns_rejected) +
            "  requests_shed " + count(ov.requests_shed) +
            "  idle_timeouts " + count(ov.idle_timeouts) +
            "  oversized " + count(ov.oversized) +
            "  conns_drained " + count(ov.conns_drained);
  // Freshness: where the served generation sits on the mutation log and
  // how long ago it was published. Zeros before the first
  // provenance-bearing snapshot, so the report keeps one stable shape.
  auto snapshot = registry_.Current();
  const bool fresh = snapshot != nullptr && snapshot->has_provenance;
  double age_sec = 0.0;
  if (fresh) {
    age_sec = static_cast<double>(stream::NowUnixMs() -
                                  snapshot->published_unix_ms) /
              1000.0;
    if (age_sec < 0.0) age_sec = 0.0;
  }
  char age_buf[32];
  std::snprintf(age_buf, sizeof(age_buf), "%.3f", age_sec);
  report += "\nsnapshot_seq " +
            std::to_string(snapshot != nullptr ? snapshot->sequence : 0) +
            "  log_pos " + std::to_string(fresh ? snapshot->log_seq : 0) +
            "  snapshot_age_sec " + age_buf;
  return report;
}

}  // namespace serve
}  // namespace coane
