// The serving half of every workload: an open-loop KNN generator at fixed
// rates over persistent pipelined loopback connections, with PUBLISH
// hot-swaps at a fixed cadence on a separate control connection.
#include "serve_bench.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common/parallel/global_pool.h"
#include "common/rng.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Pending {
  double due = 0.0;    // scheduled send time, seconds since start
  int64_t query = 0;   // index into the query sequence
  int phase = 0;
  bool measured = false;  // false during the phase's warm-up
};

struct Conn {
  int fd = -1;
  std::string in, out;
  std::deque<Pending> pending;
};

// What the control connection is waiting for.
enum class ControlWait { kNone, kPublish, kInfo, kStatsQuit };

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

// Sends what fits; false on a dead socket.
bool Flush(Conn* c) {
  while (!c->out.empty()) {
    const ssize_t n = ::send(c->fd, c->out.data(), c->out.size(),
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    c->out.erase(0, static_cast<size_t>(n));
  }
  return true;
}

// Reads what is available; false on EOF or error. Re-arms TCP_QUICKACK
// after every read: the daemon does not set TCP_NODELAY, so with the
// kernel's delayed ACKs a pipelined reply would wait for the ACK that
// rides on the client's next request, and latency would measure the
// request spacing instead of the server.
bool Fill(Conn* c) {
  char buf[65536];
  const int one = 1;
  for (;;) {
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    ::setsockopt(c->fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    if (n > 0) {
      c->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool PopLine(Conn* c, std::string* line) {
  const size_t nl = c->in.find('\n');
  if (nl == std::string::npos) return false;
  line->assign(c->in, 0, nl);
  c->in.erase(0, nl + 1);
  return true;
}

// Parses "OK n id:score ..." into ids; false unless exactly k ids.
bool ParseKnnReply(const std::string& line, int k, std::vector<int64_t>* ids) {
  ids->clear();
  if (line.rfind("OK ", 0) != 0) return false;
  const char* p = line.c_str() + 3;
  char* end = nullptr;
  const long n = std::strtol(p, &end, 10);
  if (end == p || n != k) return false;
  p = end;
  while (*p == ' ') {
    ++p;
    const long long id = std::strtoll(p, &end, 10);
    if (end == p || *end != ':') return false;
    ids->push_back(id);
    p = end + 1;
    std::strtod(p, &end);
    if (end == p) return false;
    p = end;
  }
  return *p == '\0' && static_cast<int>(ids->size()) == k;
}

int64_t StatsCounter(const std::string& stats, const std::string& name) {
  const size_t at = stats.find(name + " ");
  if (at == std::string::npos) return -1;
  return std::strtoll(stats.c_str() + at + name.size() + 1, nullptr, 10);
}

double Now(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

// Blocks until a socket is ready or `t` passes. The generator sleeps
// rather than spins: on a shared host a spinning core takes CPU from the
// daemon's threads, and the sleep's wake-up delay shows in
// load.lateness_ms.
void SleepUntil(Clock::time_point origin, double t, std::vector<pollfd>* fds) {
  const double wait = std::max(0.0, t - Now(origin));
  timespec ts;
  ts.tv_sec = static_cast<time_t>(wait);
  ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
  ::ppoll(fds->data(), fds->size(), &ts, nullptr);
}

// Median over 1 s windows (by scheduled send time, from `from`) of each
// window's `q` percentile: a few seconds of host CPU steal move the tail of
// the windows they hit, not the run's figure.
double WindowedPercentile(const std::vector<double>& due,
                          const std::vector<double>& latency, double from,
                          double q) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < due.size(); ++i) {
    const size_t w = static_cast<size_t>(std::max(0.0, due[i] - from));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency[i]);
  }
  std::vector<double> tails;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) tails.push_back(Percentile(w, q));
  }
  return Median(tails);
}

}  // namespace

int RunServeLoad(const ServeArgs& args) {
  namespace serve = coane::serve;
  // --- Inputs and expected answers, before any timing.
  coane::SetGlobalParallelism(args.engine_threads);
  serve::SnapshotRegistry registry;
  {
    auto snap = serve::BuildSnapshot(args.verify_artifact,
                                     serve::SnapshotOptions(), 1);
    if (!snap.ok() || !registry.Install(snap.value()).ok()) {
      std::fprintf(stderr, "error: cannot build the verification snapshot\n");
      return 1;
    }
  }
  const serve::QueryEngine engine(&registry);
  const int64_t rows = registry.Current()->store->count();

  std::vector<int64_t> phase_first;  // first query index of each phase
  std::vector<int64_t> phase_count;
  int64_t total = 0;
  for (const LoadPhase& p : args.phases) {
    phase_first.push_back(total);
    const int64_t n = static_cast<int64_t>(
        std::ceil((args.warmup_seconds + p.seconds) * p.rate));
    phase_count.push_back(n);
    total += n;
  }
  coane::Rng rng(args.seed);
  std::vector<int64_t> ids(static_cast<size_t>(total));
  for (int64_t& id : ids) id = rng.UniformInt(rows);
  std::vector<int64_t> verify_ids;
  for (int64_t q = 0; q < total; q += args.verify_every) {
    verify_ids.push_back(ids[static_cast<size_t>(q)]);
  }
  auto expected = engine.KnnBatch(verify_ids, args.k, /*exclude_self=*/true);
  if (!expected.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 expected.status().ToString().c_str());
    return 1;
  }

  // --- Connections.
  std::vector<Conn> conns(static_cast<size_t>(args.read_conns) + 1);
  for (Conn& c : conns) {
    c.fd = ConnectLoopback(args.port);
    if (c.fd < 0) {
      std::fprintf(stderr, "error: cannot connect to port %d\n", args.port);
      return 1;
    }
  }
  Conn& control = conns.back();
  std::vector<pollfd> fds(conns.size());

  int64_t attempted = 0, failed = 0, verified = 0, mismatched = 0;
  std::vector<std::vector<double>> latency_ms(args.phases.size());
  std::vector<std::vector<double>> due_s(args.phases.size());
  std::vector<double> measure_from_s(args.phases.size(), 0.0);
  std::vector<double> lateness_ms;
  std::vector<double> publish_s;
  size_t next_artifact = 0;
  int64_t last_seq = 1;  // the daemon starts on generation 1
  ControlWait waiting = ControlWait::kNone;
  double control_sent = 0.0;
  int64_t publish_seq = 0;
  std::string stats_text;
  bool conn_lost = false;

  const Clock::time_point origin = Clock::now();
  auto handle_control_line = [&](const std::string& line, double now) {
    switch (waiting) {
      case ControlWait::kPublish: {
        const bool ok = line.rfind("OK snapshot ", 0) == 0;
        if (ok) {
          publish_s.push_back(now - control_sent);
          publish_seq = std::strtoll(line.c_str() + 12, nullptr, 10);
          control.out += "INFO\n";
          waiting = ControlWait::kInfo;
        } else {
          std::fprintf(stderr, "publish failed: %s\n", line.c_str());
          ++failed;
          waiting = ControlWait::kNone;
        }
        return;
      }
      case ControlWait::kInfo: {
        const size_t at = line.find(" seq=");
        const int64_t seq =
            at == std::string::npos
                ? -1
                : std::strtoll(line.c_str() + at + 5, nullptr, 10);
        if (line.rfind("OK ", 0) != 0 || seq != publish_seq ||
            seq <= last_seq) {
          std::fprintf(stderr, "INFO after publish: %s\n", line.c_str());
          ++failed;
        }
        last_seq = seq;
        waiting = ControlWait::kNone;
        return;
      }
      case ControlWait::kStatsQuit:
        if (line == "OK bye") {
          waiting = ControlWait::kNone;
        } else {
          stats_text += line + "\n";
        }
        return;
      case ControlWait::kNone:
        ++failed;  // unsolicited reply
        return;
    }
  };
  std::vector<int64_t> got;
  auto handle_read_line = [&](Conn* c, const std::string& line, double now) {
    if (c->pending.empty()) {
      ++failed;
      return;
    }
    const Pending p = c->pending.front();
    c->pending.pop_front();
    bool ok = ParseKnnReply(line, args.k, &got);
    if (ok && p.query % args.verify_every == 0) {
      const auto& want =
          expected.value()[static_cast<size_t>(p.query / args.verify_every)];
      bool same = want.size() == got.size();
      for (size_t i = 0; same && i < got.size(); ++i) {
        same = want[i].id == got[i];
      }
      ++verified;
      if (!same) {
        ++mismatched;
        ok = false;
      }
    }
    if (!ok) {
      ++failed;
      return;
    }
    if (p.measured) {
      latency_ms[static_cast<size_t>(p.phase)].push_back((now - p.due) * 1e3);
      due_s[static_cast<size_t>(p.phase)].push_back(p.due);
    }
  };
  // One poll round: flush, wait until `until` or a reply, read replies.
  auto pump = [&](double until) {
    for (size_t i = 0; i < conns.size(); ++i) {
      if (!Flush(&conns[i])) conn_lost = true;
      fds[i].fd = conns[i].fd;
      fds[i].events =
          static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    SleepUntil(origin, until, &fds);
    const double now = Now(origin);
    std::string line;
    for (size_t i = 0; i < conns.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      Conn* c = &conns[i];
      if (!Fill(c) && c->in.empty()) conn_lost = true;
      while (PopLine(c, &line)) {
        if (c == &control) {
          handle_control_line(line, now);
        } else {
          handle_read_line(c, line, now);
        }
      }
    }
  };
  auto idle = [&]() {
    for (const Conn& c : conns) {
      if (!c.pending.empty()) return false;
    }
    return waiting == ControlWait::kNone;
  };

  for (size_t ph = 0; ph < args.phases.size() && !conn_lost; ++ph) {
    const LoadPhase& phase = args.phases[ph];
    const double start = Now(origin) + 0.01;
    const double measure_from = start + args.warmup_seconds;
    const double end = measure_from + phase.seconds;
    measure_from_s[ph] = measure_from;
    int64_t sent = 0;
    double next_publish = measure_from + 0.5 * args.publish_every;
    for (;;) {
      const double now = Now(origin);
      while (sent < phase_count[ph]) {
        const double due = start + static_cast<double>(sent) / phase.rate;
        if (due > now) break;
        const int64_t q = phase_first[ph] + sent;
        Conn& c = conns[static_cast<size_t>(sent % args.read_conns)];
        c.out += "KNN " + std::to_string(args.k) + " " +
                 std::to_string(ids[static_cast<size_t>(q)]) + "\n";
        c.pending.push_back({due, q, static_cast<int>(ph), due >= measure_from});
        if (due >= measure_from) lateness_ms.push_back((now - due) * 1e3);
        ++attempted;
        ++sent;
      }
      if (waiting == ControlWait::kNone && next_publish < end &&
          now >= next_publish &&
          next_artifact < args.publish_artifacts.size()) {
        control.out += "PUBLISH " + args.publish_artifacts[next_artifact++] +
                       "\n";
        control_sent = now;
        waiting = ControlWait::kPublish;
        ++attempted;
        next_publish += args.publish_every;
      }
      if (sent == phase_count[ph] && idle()) break;
      if (now > end + 10.0 || conn_lost) break;  // stalled daemon
      double until = now + 0.05;
      if (sent < phase_count[ph]) {
        until = std::min(
            until, start + static_cast<double>(sent) / phase.rate);
      }
      pump(until);
    }
  }
  // Requests never answered count as failed.
  for (const Conn& c : conns) failed += static_cast<int64_t>(c.pending.size());
  if (waiting != ControlWait::kNone) ++failed;

  // Overload ledger, then shut the daemon down.
  if (!conn_lost) {
    control.out += "STATS\nQUIT\n";
    waiting = ControlWait::kStatsQuit;
    const double deadline = Now(origin) + 10.0;
    while (waiting != ControlWait::kNone && !conn_lost &&
           Now(origin) < deadline) {
      pump(Now(origin) + 0.05);
    }
  }
  for (Conn& c : conns) ::close(c.fd);

  JsonLine out;
  out.Int("attempted", attempted);
  out.Int("failed", failed);
  out.Int("verified", verified);
  out.Int("mismatched", mismatched);
  out.Bool("conn_lost", conn_lost);
  for (size_t ph = 0; ph < args.phases.size(); ++ph) {
    const std::string& name = args.phases[ph].name;
    out.Num("knn_p50_ms." + name, Percentile(latency_ms[ph], 0.50));
    out.Num("load.knn_p95_ms." + name,
            WindowedPercentile(due_s[ph], latency_ms[ph], measure_from_s[ph],
                               0.95));
    out.Num("load.knn_p99_ms." + name, Percentile(latency_ms[ph], 0.99));
    out.Int("knn_count." + name, static_cast<int64_t>(latency_ms[ph].size()));
  }
  out.Nums("publish_s", publish_s);
  out.Num("load.lateness_ms", Percentile(lateness_ms, 0.99));
  out.Int("serve.requests_shed", StatsCounter(stats_text, "requests_shed"));
  out.Int("serve.conns_rejected", StatsCounter(stats_text, "conns_rejected"));

  if (args.trace) {
    // In-process layer timings, after the daemon has shut down so nothing
    // contends with them: snapshot build (store compile + CRC + index) and
    // the engine's own KnnById latency.
    std::vector<double> build_s;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      auto snap = serve::BuildSnapshot(args.verify_artifact,
                                       serve::SnapshotOptions(), 2);
      build_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
      if (!snap.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     snap.status().ToString().c_str());
        return 1;
      }
    }
    std::vector<double> engine_us;
    serve::SearchStats stats;
    const int64_t probes = std::min<int64_t>(total, 4000);
    for (int64_t q = 0; q < probes; ++q) {
      const auto t0 = Clock::now();
      auto r = engine.KnnById(ids[static_cast<size_t>(q)], args.k, true,
                              &stats);
      engine_us.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count() * 1e6);
      if (!r.ok()) return 1;
    }
    const double engine_p50 = Percentile(engine_us, 0.50);
    out.Num("serve.snapshot_build_s", Median(build_s));
    out.Num("serve.engine_knn_us.p50", engine_p50);
    out.Num("serve.engine_knn_us.p99", Percentile(engine_us, 0.99));
    out.Num("serve.vectors_scanned",
            static_cast<double>(stats.vectors_scanned) /
                static_cast<double>(probes));
    if (!args.phases.empty()) {
      out.Num("serve.wire_us",
              Percentile(latency_ms[0], 0.50) * 1e3 - engine_p50);
    }
  }
  out.Print();
  return 0;
}

}  // namespace perfbench
