// C10K front-end benchmark: can the endpoint hold ten thousand idle
// connections while a thousand active clients run pipelined queries,
// without the idle fleet taxing the active clients' tail latency?
//
// Two phases, each on a fresh server:
//   A. idle load: ramp `--idle` parked QIPC sessions (held by forked
//      child processes so the parent's fd budget covers only the server
//      side), then drive `--active` pipelined clients and record
//      per-query latency percentiles with the idle load still parked.
//   B. no idle load: the same active workload alone (the baseline).
//
// The JSON artifact (BENCH_endpoint.json) feeds the scripts/bench.sh
// gate: event_p99_us must stay within a slack of event_noidle_p99_us,
// every idle connection must be sustained on full runs, and the server
// RSS per idle connection must stay within budget.
//
// Custom main (not google-benchmark): the subject is a server process
// plus a connection fleet, not a tight loop. Flags mirror the suite:
//   --json=FILE  write the JSON artifact
//   --smoke      tiny fleet for CI (256 idle / 32 active)
//   --idle=N --active=N --rounds=N --burst=N  override the shape

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/endpoint.h"
#include "net/tcp.h"

namespace hyperq {
namespace {

struct Config {
  int idle = 10000;
  int active = 1000;
  int rounds = 8;
  int burst = 8;
  bool smoke = false;
  std::string json_path;
};

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  return (*v)[idx];
}

/// VmRSS of this process in bytes (0 when unreadable).
int64_t ReadRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atoll(line.c_str() + 6) * 1024;
    }
  }
  return 0;
}

/// Connect + QIPC handshake; returns an open session or nullopt.
std::optional<TcpConnection> OpenSession(uint16_t port,
                                         const std::vector<uint8_t>& hs) {
  Result<TcpConnection> c = TcpConnection::Connect("127.0.0.1", port);
  if (!c.ok()) return std::nullopt;
  if (!c->WriteAll(hs).ok()) return std::nullopt;
  uint8_t ack = 0;
  if (!c->ReadExactInto(&ack, 1).ok()) return std::nullopt;
  return std::move(*c);
}

// -- idle fleet (forked holders) --------------------------------------------

/// The parent's RLIMIT_NOFILE must cover only the server-side fds, so the
/// client halves of the idle fleet live in forked child processes. Each
/// child opens its chunk, reports the established count over a pipe, then
/// parks until the parent closes the control pipe.
struct IdleFleet {
  std::vector<pid_t> pids;
  int ctl_write = -1;  // closing releases every child
  int sustained = 0;
};

IdleFleet SpawnIdleFleet(uint16_t port, int target,
                         const std::vector<uint8_t>& hs) {
  IdleFleet fleet;
  if (target <= 0) return fleet;
  const int kChunk = 2500;
  int chunks = (target + kChunk - 1) / kChunk;

  int status_pipe[2];
  int ctl_pipe[2];
  if (pipe(status_pipe) != 0 || pipe(ctl_pipe) != 0) {
    std::fprintf(stderr, "pipe failed\n");
    return fleet;
  }
  for (int c = 0; c < chunks; ++c) {
    int quota = std::min(kChunk, target - c * kChunk);
    pid_t pid = fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork failed\n");
      break;
    }
    if (pid == 0) {
      // Child: holder process. Only syscalls + the thin TcpConnection
      // wrapper from here on; exit with _exit so no parent-side state
      // (server threads, atexit hooks) runs twice.
      close(status_pipe[0]);
      close(ctl_pipe[1]);
      std::vector<TcpConnection> held;
      held.reserve(static_cast<size_t>(quota));
      uint32_t ok = 0;
      for (int i = 0; i < quota; ++i) {
        std::optional<TcpConnection> s = OpenSession(port, hs);
        if (s.has_value()) {
          held.push_back(std::move(*s));
          ++ok;
        }
        // Brief pacing keeps the burst inside the 512-deep accept backlog.
        if ((i & 127) == 127) usleep(1000);
      }
      (void)!write(status_pipe[1], &ok, sizeof ok);
      close(status_pipe[1]);
      uint8_t b;
      (void)!read(ctl_pipe[0], &b, 1);  // park until parent closes
      _exit(0);
    }
    fleet.pids.push_back(pid);
  }
  close(status_pipe[1]);
  close(ctl_pipe[0]);
  fleet.ctl_write = ctl_pipe[1];
  for (size_t i = 0; i < fleet.pids.size(); ++i) {
    uint32_t ok = 0;
    if (read(status_pipe[0], &ok, sizeof ok) == sizeof ok) {
      fleet.sustained += static_cast<int>(ok);
    }
  }
  close(status_pipe[0]);
  return fleet;
}

void ReleaseIdleFleet(IdleFleet* fleet) {
  if (fleet->ctl_write >= 0) {
    close(fleet->ctl_write);
    fleet->ctl_write = -1;
  }
  for (pid_t pid : fleet->pids) waitpid(pid, nullptr, 0);
  fleet->pids.clear();
}

// -- active pipelined workload ----------------------------------------------

struct LatencyStats {
  double p50_us = 0;
  double p99_us = 0;
  double qps = 0;
  double accept_p99_us = 0;
  int conns = 0;
};

/// Opens `active` sessions, then drives `rounds` of `burst`-deep
/// pipelined sync queries on every connection from a small pool of
/// driver threads. The recorded sample is wall time of one burst divided
/// by its depth: per-query latency as a pipelining client experiences it.
LatencyStats RunActiveWorkload(uint16_t port, const Config& cfg,
                               const std::vector<uint8_t>& hs) {
  LatencyStats stats;
  Result<std::vector<uint8_t>> query =
      qipc::EncodeMessage(QValue::Chars("2+3"), qipc::MsgType::kSync);
  if (!query.ok()) return stats;
  std::vector<uint8_t> burst_bytes;
  for (int i = 0; i < cfg.burst; ++i) {
    burst_bytes.insert(burst_bytes.end(), query->begin(), query->end());
  }

  std::vector<TcpConnection> conns;
  std::vector<double> accept_us;
  conns.reserve(static_cast<size_t>(cfg.active));
  for (int i = 0; i < cfg.active; ++i) {
    int64_t t0 = NowUs();
    std::optional<TcpConnection> s = OpenSession(port, hs);
    if (!s.has_value()) continue;
    accept_us.push_back(static_cast<double>(NowUs() - t0));
    conns.push_back(std::move(*s));
    if ((i & 127) == 127) usleep(1000);
  }
  stats.conns = static_cast<int>(conns.size());
  if (conns.empty()) return stats;

  int drivers = std::min<int>(8, std::max<int>(1, stats.conns / 32));
  std::vector<std::vector<double>> samples(
      static_cast<size_t>(drivers));
  std::atomic<int64_t> total_queries{0};
  int64_t bench_t0 = NowUs();
  std::vector<std::thread> threads;
  for (int d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d]() {
      std::vector<uint8_t> reply(4096);
      // Round -1 is warmup, excluded from the samples: each connection's
      // first query pays lazy session creation and a cold translation
      // cache, which is setup cost, not serving latency.
      for (int r = -1; r < cfg.rounds; ++r) {
        for (size_t ci = static_cast<size_t>(d); ci < conns.size();
             ci += static_cast<size_t>(drivers)) {
          TcpConnection& conn = conns[ci];
          int64_t t0 = NowUs();
          if (!conn.WriteAll(burst_bytes).ok()) continue;
          bool ok = true;
          for (int q = 0; q < cfg.burst && ok; ++q) {
            uint8_t header[8];
            if (!conn.ReadExactInto(header, 8).ok()) {
              ok = false;
              break;
            }
            Result<uint32_t> len = qipc::PeekMessageLength(header);
            if (!len.ok() || *len < 8 || *len > (64u << 20)) {
              ok = false;
              break;
            }
            if (reply.size() < *len) reply.resize(*len);
            if (!conn.ReadExactInto(reply.data(), *len - 8).ok()) {
              ok = false;
            }
          }
          if (ok && r >= 0) {
            samples[static_cast<size_t>(d)].push_back(
                static_cast<double>(NowUs() - t0) / cfg.burst);
            total_queries.fetch_add(cfg.burst);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double elapsed_s =
      static_cast<double>(NowUs() - bench_t0) / 1e6;

  std::vector<double> all;
  for (std::vector<double>& s : samples) {
    all.insert(all.end(), s.begin(), s.end());
  }
  stats.p50_us = Percentile(&all, 0.50);
  stats.p99_us = Percentile(&all, 0.99);
  stats.accept_p99_us = Percentile(&accept_us, 0.99);
  stats.qps = elapsed_s > 0
                  ? static_cast<double>(total_queries.load()) / elapsed_s
                  : 0;
  for (TcpConnection& c : conns) c.Close();
  return stats;
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto intval = [&a](const char* prefix) {
      return std::atoi(a.c_str() + std::strlen(prefix));
    };
    if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a.rfind("--json=", 0) == 0) {
      cfg.json_path = a.substr(7);
    } else if (a == "--json") {
      cfg.json_path = "-";
    } else if (a.rfind("--idle=", 0) == 0) {
      cfg.idle = intval("--idle=");
    } else if (a.rfind("--active=", 0) == 0) {
      cfg.active = intval("--active=");
    } else if (a.rfind("--rounds=", 0) == 0) {
      cfg.rounds = intval("--rounds=");
    } else if (a.rfind("--burst=", 0) == 0) {
      cfg.burst = intval("--burst=");
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return 2;
    }
  }
  if (cfg.smoke) {
    cfg.idle = std::min(cfg.idle, 256);
    cfg.active = std::min(cfg.active, 32);
    cfg.rounds = std::min(cfg.rounds, 2);
  }
  // Self-scale to the fd budget: the parent holds the server side of the
  // whole fleet plus both sides of the active connections.
  struct rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0) {
    int64_t budget = static_cast<int64_t>(rl.rlim_cur) - 512;
    int64_t idle_max = budget - 2L * cfg.active;
    if (idle_max < cfg.idle) {
      std::fprintf(stderr,
                   "note: fd limit %ld caps idle fleet at %ld (asked %d)\n",
                   static_cast<long>(rl.rlim_cur),
                   static_cast<long>(idle_max), cfg.idle);
      cfg.idle = static_cast<int>(std::max<int64_t>(0, idle_max));
    }
  }

  std::vector<uint8_t> hs = qipc::EncodeHandshake("bench", "pw");

  // Phase A: active workload with the idle fleet parked.
  std::printf("==> idle load: ramping %d idle connections\n", cfg.idle);
  LatencyStats event_stats;
  IdleFleet fleet;
  int64_t rss_per_idle = 0;
  {
    sqldb::Database db;
    HyperQServer server(&db, HyperQServer::Options());
    if (!server.Start(0).ok()) {
      std::fprintf(stderr, "server failed to start\n");
      return 1;
    }
    int64_t rss_before = ReadRssBytes();
    fleet = SpawnIdleFleet(server.port(), cfg.idle, hs);
    int64_t rss_after = ReadRssBytes();
    rss_per_idle = fleet.sustained > 0
                       ? (rss_after - rss_before) / fleet.sustained
                       : 0;
    std::printf("    sustained %d idle (%.1f KiB server RSS each)\n",
                fleet.sustained, static_cast<double>(rss_per_idle) / 1024);
    std::printf("==> idle load: %d active clients, %d rounds x %d-deep "
                "pipelines\n",
                cfg.active, cfg.rounds, cfg.burst);
    event_stats = RunActiveWorkload(server.port(), cfg, hs);
    ReleaseIdleFleet(&fleet);
    server.Stop();
  }
  std::printf("    p50 %.0f us, p99 %.0f us, %.0f q/s\n", event_stats.p50_us,
              event_stats.p99_us, event_stats.qps);

  // Phase B: the same active workload with no idle load.
  std::printf("==> no idle load: %d active clients\n", cfg.active);
  LatencyStats noidle_stats;
  {
    sqldb::Database db;
    HyperQServer server(&db, HyperQServer::Options());
    if (!server.Start(0).ok()) {
      std::fprintf(stderr, "server failed to start\n");
      return 1;
    }
    noidle_stats = RunActiveWorkload(server.port(), cfg, hs);
    server.Stop();
  }
  std::printf("    p50 %.0f us, p99 %.0f us, %.0f q/s\n",
              noidle_stats.p50_us, noidle_stats.p99_us, noidle_stats.qps);

  if (!cfg.json_path.empty()) {
    std::string out;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\n"
        "  \"num_cpus\": %u,\n"
        "  \"idle_target\": %d,\n"
        "  \"idle_sustained_event\": %d,\n"
        "  \"rss_per_idle_conn_bytes\": %lld,\n"
        "  \"active_conns_event\": %d,\n"
        "  \"active_conns_noidle\": %d,\n"
        "  \"burst\": %d,\n"
        "  \"rounds\": %d,\n",
        std::thread::hardware_concurrency(), cfg.idle, fleet.sustained,
        static_cast<long long>(rss_per_idle), event_stats.conns,
        noidle_stats.conns, cfg.burst, cfg.rounds);
    out += buf;
    std::snprintf(
        buf, sizeof buf,
        "  \"event_p50_us\": %.1f,\n"
        "  \"event_p99_us\": %.1f,\n"
        "  \"event_qps\": %.0f,\n"
        "  \"event_accept_p99_us\": %.1f,\n"
        "  \"event_noidle_p50_us\": %.1f,\n"
        "  \"event_noidle_p99_us\": %.1f,\n"
        "  \"event_noidle_qps\": %.0f,\n"
        "  \"smoke\": %s\n"
        "}\n",
        event_stats.p50_us, event_stats.p99_us, event_stats.qps,
        event_stats.accept_p99_us, noidle_stats.p50_us, noidle_stats.p99_us,
        noidle_stats.qps, cfg.smoke ? "true" : "false");
    out += buf;
    if (cfg.json_path == "-") {
      std::fputs(out.c_str(), stdout);
    } else {
      std::ofstream f(cfg.json_path);
      f << out;
    }
  }
  return 0;
}

}  // namespace
}  // namespace hyperq

int main(int argc, char** argv) { return hyperq::Main(argc, argv); }
