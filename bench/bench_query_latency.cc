// Serving read-path latency: exact brute-force vs IVF k-NN at batch
// sizes 1 / 16 / 256, over a clustered embedding store of the shape CoANE
// produces. Each row reports per-query latency quantiles from the same
// log-bucketed histogram the STATS endpoint uses, plus a correctness
// column — recall@10 against the exact index — and the fraction of the
// store the index scanned, so the latency numbers can never quietly come
// from a broken index.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/latency_histogram.h"
#include "common/parallel/global_pool.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_utils.h"
#include "graph/graph_io.h"
#include "serve/brute_force_index.h"
#include "serve/embedding_store.h"
#include "serve/frontend.h"
#include "serve/ivf_index.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace coane {
namespace {

using serve::BruteForceIndex;
using serve::EmbeddingStore;
using serve::IvfConfig;
using serve::IvfIndex;
using serve::KnnIndex;
using serve::Metric;
using serve::Neighbor;
using serve::SearchStats;

// Gaussian blobs: the cluster structure attributed-network embeddings
// exhibit and IVF exploits.
DenseMatrix ClusteredEmbeddings(int64_t n, int64_t dim, int clusters,
                                uint64_t seed) {
  DenseMatrix m(n, dim);
  Rng rng(seed);
  DenseMatrix centers(clusters, dim);
  centers.GaussianInit(&rng, 0.0f, 3.0f);
  for (int64_t i = 0; i < n; ++i) {
    const int c = static_cast<int>(i % clusters);
    for (int64_t j = 0; j < dim; ++j) {
      m.At(i, j) =
          centers.At(c, j) + static_cast<float>(rng.Normal(0.0, 0.5));
    }
  }
  return m;
}

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    COANE_LOG(Error) << what << " failed: " << status.ToString();
    std::exit(1);
  }
}

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
              sizeof(addr)) < 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// One request over one fresh connection; returns the first reply line
/// ("" on connect/IO failure).
std::string RoundTrip(int port, const std::string& request) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  std::string reply;
  if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(request.size())) {
    char c = 0;
    while (reply.find('\n') == std::string::npos &&
           recv(fd, &c, 1, 0) == 1) {
      reply.push_back(c);
    }
  }
  close(fd);
  return reply;
}

// Overload behavior of the TCP front end (DESIGN.md §7): client fleets of
// growing size hammer a deliberately small pool (max_conns=4,
// queue_cap=8) through real loopback sockets. The table shows the
// admission ledger — served vs shed — and that the p99 of *served*
// requests stays flat as offered load grows past capacity: excess load is
// refused in O(1), it does not queue behind the pool and poison latency.
void RunOverload(const benchutil::BenchOptions& opt,
                 const DenseMatrix& embeddings) {
  std::signal(SIGPIPE, SIG_IGN);
  const std::string artifact_path =
      (std::filesystem::temp_directory_path() /
       ("coane_bench_latency_" + std::to_string(::getpid()) + ".emb"))
          .string();
  CheckOk(SaveEmbeddings(embeddings, artifact_path), "SaveEmbeddings");
  serve::ServerOptions server_options;
  serve::Server server(server_options);
  // The snapshot is held in memory, so the artifact can go at once.
  const Status started = server.Start(artifact_path);
  std::filesystem::remove(artifact_path);
  CheckOk(started, "Server::Start");

  serve::FrontendOptions frontend_options;
  frontend_options.port = 0;
  frontend_options.max_conns = 4;
  frontend_options.queue_cap = 8;
  serve::TcpFrontend frontend(&server, frontend_options);
  server.set_overload_counters(&frontend.counters());
  CheckOk(frontend.Start(), "TcpFrontend::Start");
  const int port = frontend.port();

  TablePrinter table(
      "Serve overload shedding (max_conns=4, queue_cap=8)");
  table.SetHeader({"clients", "offered", "served", "shed", "failed",
                   "shed_frac", "p50_ms", "p99_ms"});

  const int64_t requests_per_client = opt.full ? 200 : 50;
  for (const int clients : {4, 16, 64}) {
    std::atomic<int64_t> served(0), shed(0), failed(0);
    std::vector<std::vector<double>> latencies(
        static_cast<size_t>(clients));
    std::vector<std::thread> fleet;
    fleet.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      fleet.emplace_back([&, c]() {
        uint64_t next_id = opt.seed + static_cast<uint64_t>(c);
        for (int64_t r = 0; r < requests_per_client; ++r) {
          next_id =
              next_id * 6364136223846793005ull + 1442695040888963407ull;
          const std::string request =
              "KNN 10 " + std::to_string(next_id % 8000) + "\n";
          Stopwatch watch;
          const std::string reply = RoundTrip(port, request);
          const double elapsed = watch.ElapsedSeconds();
          if (StartsWith(reply, "OK ")) {
            served.fetch_add(1);
            latencies[static_cast<size_t>(c)].push_back(elapsed);
          } else if (StartsWith(reply, "ERR Unavailable")) {
            shed.fetch_add(1);
          } else {
            failed.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : fleet) t.join();

    LatencyHistogram served_latency("served");
    for (const std::vector<double>& per_client : latencies) {
      for (const double s : per_client) served_latency.Record(s);
    }
    const int64_t offered = clients * requests_per_client;
    table.AddRow(
        {std::to_string(clients), std::to_string(offered),
         std::to_string(served.load()), std::to_string(shed.load()),
         std::to_string(failed.load()),
         FormatDouble(static_cast<double>(shed.load()) /
                          static_cast<double>(offered),
                      3),
         FormatDouble(served_latency.QuantileSeconds(0.5) * 1e3, 4),
         FormatDouble(served_latency.QuantileSeconds(0.99) * 1e3, 4)});
  }

  frontend.RequestDrain();
  CheckOk(frontend.Wait(), "TcpFrontend::Wait");
  table.ToStdout();
  benchutil::WriteCsv(table, "serve_overload");
}

void Run(const benchutil::BenchOptions& opt) {
  const int64_t n = opt.full ? 50000 : 8000;
  const int64_t dim = opt.full ? 64 : 32;
  const int64_t total_queries = opt.full ? 4096 : 1024;
  const int64_t k = 10;

  const DenseMatrix embeddings =
      ClusteredEmbeddings(n, dim, /*clusters=*/32, opt.seed);
  auto store = std::make_shared<const EmbeddingStore>(embeddings);

  auto exact = std::make_shared<const BruteForceIndex>(
      store, Metric::kCosine);
  IvfConfig ivf_config;
  ivf_config.nlist = opt.full ? 128 : 64;
  ivf_config.nprobe = opt.full ? 12 : 8;
  ivf_config.seed = opt.seed;
  std::shared_ptr<const IvfIndex> ivf = benchutil::Unwrap(
      IvfIndex::Build(store, Metric::kCosine, ivf_config),
      "IvfIndex::Build");

  // Ground truth for the recall column: exact top-k of a fixed query
  // sample (exact's own recall is 1.0 by construction). The exact index
  // scans a block copy of the store, so each answer is first checked
  // against a per-row MetricScore scan of the row-major store: same ids,
  // same score bits, or the bench exits 1.
  const int64_t kRecallSample = 256;
  std::vector<std::set<int64_t>> truth;
  truth.reserve(static_cast<size_t>(kRecallSample));
  for (int64_t q = 0; q < kRecallSample; ++q) {
    const int64_t id = (q * 131) % n;
    const float* query = store->Vector(id);
    std::vector<Neighbor> neighbors;
    CheckOk(exact->Search(query, k, &neighbors), "exact Search");
    const float q_norm = std::sqrt(serve::DotScore(query, query, dim));
    std::vector<Neighbor> oracle;
    oracle.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      oracle.push_back({i, serve::MetricScore(exact->metric(), query, q_norm,
                                              store->Vector(i),
                                              store->Norm(i), dim)});
    }
    serve::SelectTopK(&oracle, k);
    bool same = oracle.size() == neighbors.size();
    for (size_t r = 0; same && r < oracle.size(); ++r) {
      same = oracle[r].id == neighbors[r].id &&
             std::memcmp(&oracle[r].score, &neighbors[r].score,
                         sizeof(float)) == 0;
    }
    if (!same) {
      COANE_LOG(Error) << "exact index disagrees with the per-row "
                       << "MetricScore scan for query row " << id;
      std::exit(1);
    }
    std::set<int64_t> ids;
    for (const Neighbor& nb : neighbors) ids.insert(nb.id);
    truth.push_back(std::move(ids));
  }

  TablePrinter table("Serve query latency (" + std::to_string(n) + " x " +
                     std::to_string(dim) + ", k=" + std::to_string(k) +
                     ")");
  table.SetHeader({"index", "batch", "queries", "p50_ms", "p95_ms",
                   "p99_ms", "recall_at10", "scan_frac"});

  struct IndexRow {
    const char* name;
    std::shared_ptr<const KnnIndex> index;
  };
  const std::vector<IndexRow> indexes = {{"exact", exact}, {"ivf", ivf}};
  const std::vector<int64_t> batch_sizes = {1, 16, 256};

  for (const IndexRow& entry : indexes) {
    // Recall and scan fraction are per-index, not per-batch-size.
    int64_t hits = 0, scanned = 0;
    for (int64_t q = 0; q < kRecallSample; ++q) {
      const int64_t id = (q * 131) % n;
      std::vector<Neighbor> neighbors;
      SearchStats stats;
      CheckOk(entry.index->Search(store->Vector(id), k, &neighbors,
                                  &stats),
              "Search");
      for (const Neighbor& nb : neighbors) {
        hits += static_cast<int64_t>(
            truth[static_cast<size_t>(q)].count(nb.id));
      }
      scanned += stats.vectors_scanned;
    }
    const double recall =
        static_cast<double>(hits) / (kRecallSample * k);
    const double scan_frac =
        static_cast<double>(scanned) / (kRecallSample * n);

    for (const int64_t batch : batch_sizes) {
      // Query through the same engine the server uses, so batching takes
      // the production path (snapshot pin + ParallelFor across queries).
      serve::SnapshotRegistry registry;
      auto snapshot = std::make_shared<serve::Snapshot>();
      snapshot->store = store;
      snapshot->index = entry.index;
      snapshot->sequence = registry.NextSequence();
      CheckOk(registry.Install(snapshot), "Install");
      const serve::QueryEngine engine(&registry);

      LatencyHistogram per_query("per_query");
      int64_t done = 0;
      uint64_t next_id = opt.seed;
      while (done < total_queries) {
        std::vector<int64_t> ids;
        ids.reserve(static_cast<size_t>(batch));
        for (int64_t b = 0; b < batch; ++b) {
          next_id = next_id * 6364136223846793005ull + 1442695040888963407ull;
          ids.push_back(static_cast<int64_t>(next_id % uint64_t(n)));
        }
        Stopwatch watch;
        benchutil::Unwrap(engine.KnnBatch(ids, k), "KnnBatch");
        per_query.Record(watch.ElapsedSeconds() /
                         static_cast<double>(batch));
        done += batch;
      }
      table.AddRow({entry.name, std::to_string(batch),
                    std::to_string(done),
                    FormatDouble(per_query.QuantileSeconds(0.5) * 1e3, 4),
                    FormatDouble(per_query.QuantileSeconds(0.95) * 1e3, 4),
                    FormatDouble(per_query.QuantileSeconds(0.99) * 1e3, 4),
                    FormatDouble(recall, 3), FormatDouble(scan_frac, 3)});
    }
  }

  table.ToStdout();
  benchutil::WriteCsv(table, "serve_latency");
  RunOverload(opt, embeddings);
}

}  // namespace
}  // namespace coane

int main(int argc, char** argv) {
  coane::Run(coane::benchutil::ParseArgs(argc, argv));
  return 0;
}
