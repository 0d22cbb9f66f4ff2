// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E14: network service under closed-loop load. A zdb server runs
// in-process on loopback while client threads — one writer applying
// deterministic batches, the rest readers issuing window/point/kNN
// queries — each drive one synchronous connection as fast as replies
// come back. Two questions:
//
//   * served correctness: every reader reply is cross-checked against a
//     brute-force oracle at the write epochs the server reported around
//     execution (the wire twin of E13's in-process oracle). The run
//     fails loudly on any mismatch.
//   * service quality: per-opcode p50/p99 latency and aggregate qps at
//     client counts up to well past the worker pool size, plus a
//     saturation phase (one slow worker, tiny admission queue) showing
//     BUSY backpressure shedding load instead of queueing unboundedly.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "client/client.h"
#include "server/server.h"

namespace zdb {
namespace {

using net::Client;
using net::Server;
using net::ServerOptions;

constexpr uint64_t kSeed = 0xE14;
constexpr size_t kInitialObjects = 2000;
constexpr size_t kBatches = 24;
constexpr size_t kInsertsPerBatch = 32;
constexpr size_t kErasesPerBatch = 24;
constexpr size_t kWindows = 12;
constexpr size_t kPoints = 8;
constexpr size_t kKnnPoints = 4;
constexpr size_t kKnnK = 8;
constexpr double kSelectivity = 0.01;

using OracleState = std::map<ObjectId, Rect>;

struct Workload {
  std::vector<Rect> initial;
  std::vector<WriteBatch> batches;
  std::vector<OracleState> states;
  std::vector<Rect> windows;
  std::vector<Point> points;
  std::vector<Point> knn_points;
};

Workload MakeWorkload() {
  Workload w;
  DataGenOptions dg;
  dg.distribution = Distribution::kClusters;
  dg.seed = kSeed;
  w.initial = GenerateData(kInitialObjects, dg);

  OracleState state;
  for (size_t i = 0; i < w.initial.size(); ++i) {
    state[static_cast<ObjectId>(i)] = w.initial[i];
  }
  w.states.push_back(state);

  DataGenOptions dg2;
  dg2.distribution = Distribution::kUniformLarge;
  dg2.seed = kSeed ^ 0x9e3779b97f4a7c15ULL;
  const auto extra = GenerateData(kBatches * kInsertsPerBatch, dg2);

  Random rng(kSeed + 1);
  ObjectId next_oid = static_cast<ObjectId>(w.initial.size());
  for (size_t b = 0; b < kBatches; ++b) {
    WriteBatch batch;
    std::vector<ObjectId> live;
    for (const auto& [oid, rect] : state) live.push_back(oid);
    for (size_t e = 0; e < kErasesPerBatch && !live.empty(); ++e) {
      const size_t pick = rng.Uniform(live.size());
      batch.Erase(live[pick]);
      state.erase(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    for (size_t i = 0; i < kInsertsPerBatch; ++i) {
      const Rect& r = extra[b * kInsertsPerBatch + i];
      batch.Insert(r);
      state[next_oid] = r;
      ++next_oid;
    }
    w.batches.push_back(std::move(batch));
    w.states.push_back(state);
  }

  QueryGenOptions qopt;
  qopt.seed = kSeed + 2;
  w.windows = GenerateWindows(kWindows, kSelectivity, qopt);
  const auto big =
      GenerateWindows(2, 0.08, QueryGenOptions{.seed = kSeed + 3});
  w.windows.insert(w.windows.end(), big.begin(), big.end());
  w.points = GeneratePoints(kPoints, kSeed + 4);
  w.knn_points = GeneratePoints(kKnnPoints, kSeed + 5);
  return w;
}

std::vector<ObjectId> ExpectedWindow(const OracleState& st, const Rect& w) {
  std::vector<ObjectId> out;
  for (const auto& [oid, rect] : st) {
    if (rect.Intersects(w)) out.push_back(oid);
  }
  return out;
}

std::vector<ObjectId> ExpectedPoint(const OracleState& st, const Point& p) {
  std::vector<ObjectId> out;
  for (const auto& [oid, rect] : st) {
    if (rect.Contains(p)) out.push_back(oid);
  }
  return out;
}

bool MatchesWindow(const Workload& w, size_t q,
                   const std::vector<ObjectId>& got, uint64_t e0,
                   uint64_t e1) {
  for (uint64_t k = e0; k <= e1 && k < w.states.size(); ++k) {
    if (got == ExpectedWindow(w.states[k], w.windows[q])) return true;
  }
  return false;
}

bool MatchesPoint(const Workload& w, size_t q,
                  const std::vector<ObjectId>& got, uint64_t e0,
                  uint64_t e1) {
  for (uint64_t k = e0; k <= e1 && k < w.states.size(); ++k) {
    if (got == ExpectedPoint(w.states[k], w.points[q])) return true;
  }
  return false;
}

/// kNN correctness: every returned id live with its exact distance,
/// ascending, nothing closer skipped — at one epoch in [e0, e1].
bool MatchesKnn(const Workload& w, size_t q,
                const std::vector<std::pair<ObjectId, double>>& got,
                uint64_t e0, uint64_t e1) {
  constexpr double kEps = 1e-9;
  const Point& p = w.knn_points[q];
  for (uint64_t s = e0; s <= e1 && s < w.states.size(); ++s) {
    const OracleState& st = w.states[s];
    if (got.size() != std::min(kKnnK, st.size())) continue;
    bool ok = true;
    double prev = -1.0;
    for (const auto& [oid, dist] : got) {
      auto it = st.find(oid);
      if (it == st.end() ||
          std::abs(it->second.DistanceTo(p) - dist) > kEps ||
          dist + kEps < prev) {
        ok = false;
        break;
      }
      prev = dist;
    }
    if (ok && !got.empty()) {
      const double worst = got.back().second;
      std::vector<ObjectId> returned;
      for (const auto& [oid, dist] : got) returned.push_back(oid);
      std::sort(returned.begin(), returned.end());
      for (const auto& [oid, rect] : st) {
        if (!std::binary_search(returned.begin(), returned.end(), oid) &&
            rect.DistanceTo(p) + kEps < worst) {
          ok = false;
          break;
        }
      }
    }
    if (ok) return true;
  }
  return false;
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<uint64_t>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * (v.size() - 1) + 0.5);
  return static_cast<double>(v[idx]);
}

/// An in-memory DB holding `data`, inserted in order (oid i is data[i]).
std::unique_ptr<DB> BuildDB(const std::vector<Rect>& data,
                            size_t pool_pages) {
  DBOptions opt;
  opt.page_size = kBenchPageSize;
  opt.cache_pages = pool_pages;
  opt.index.data = DecomposeOptions::SizeBound(8);
  auto db = DB::Open("", opt).value();
  for (const Rect& r : data) (void)db->Insert(r).value();
  if (!db->Checkpoint().ok()) {
    std::fprintf(stderr, "checkpoint failed\n");
    std::exit(1);
  }
  return db;
}

struct ReaderResult {
  std::vector<uint64_t> window_us, point_us, knn_us;
  uint64_t queries = 0;
  uint64_t mismatches = 0;
};

/// One closed-loop phase at `readers` reader connections (+1 writer).
/// Returns total reader qps; fills the latency table row.
void RunPhase(const Workload& w, size_t readers, Table* table,
              uint64_t* total_mismatches) {
  auto db = BuildDB(w.initial, 8192);
  const uint64_t base = db->write_epoch();

  ServerOptions sopt;
  sopt.workers = 6;
  sopt.queue_capacity = 256;
  sopt.idle_timeout_ms = 0;
  Server server(db.get(), sopt);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::exit(1);
  }

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    auto c = Client::Connect("tcp://127.0.0.1:" + std::to_string(server.port()));
    if (!c.ok()) return;
    Client client = std::move(c).value();
    for (const WriteBatch& batch : w.batches) {
      auto reply = client.Apply(batch);
      if (!reply.ok()) {
        std::fprintf(stderr, "apply failed: %s\n",
                     reply.status().ToString().c_str());
        std::exit(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    writer_done.store(true);
  });

  std::vector<ReaderResult> results(readers);
  std::vector<std::thread> threads;
  const uint64_t t0 = NowMicros();
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto c = Client::Connect("tcp://127.0.0.1:" + std::to_string(server.port()));
      if (!c.ok()) return;
      Client client = std::move(c).value();
      ReaderResult& res = results[r];
      size_t round = 0;
      while (!writer_done.load() || round == 0) {
        for (size_t q = 0; q < w.windows.size(); ++q) {
          const uint64_t s = NowMicros();
          auto reply = client.Window(w.windows[q]);
          if (!reply.ok()) { ++res.mismatches; continue; }
          res.window_us.push_back(NowMicros() - s);
          ++res.queries;
          if (!MatchesWindow(w, q, reply->ids,
                             reply->epoch_before - base,
                             reply->epoch_after - base)) {
            ++res.mismatches;
          }
        }
        for (size_t q = 0; q < w.points.size(); ++q) {
          const uint64_t s = NowMicros();
          auto reply = client.Point(w.points[q]);
          if (!reply.ok()) { ++res.mismatches; continue; }
          res.point_us.push_back(NowMicros() - s);
          ++res.queries;
          if (!MatchesPoint(w, q, reply->ids,
                            reply->epoch_before - base,
                            reply->epoch_after - base)) {
            ++res.mismatches;
          }
        }
        for (size_t q = 0; q < w.knn_points.size(); ++q) {
          const uint64_t s = NowMicros();
          auto reply = client.Nearest(w.knn_points[q], kKnnK);
          if (!reply.ok()) { ++res.mismatches; continue; }
          res.knn_us.push_back(NowMicros() - s);
          ++res.queries;
          if (!MatchesKnn(w, q, reply->hits, reply->epoch_before - base,
                          reply->epoch_after - base)) {
            ++res.mismatches;
          }
        }
        ++round;
      }
    });
  }

  writer.join();
  for (auto& t : threads) t.join();
  const double secs = (NowMicros() - t0) / 1e6;
  server.Stop();

  std::vector<uint64_t> window_us, point_us, knn_us;
  uint64_t queries = 0, mismatches = 0;
  for (ReaderResult& r : results) {
    window_us.insert(window_us.end(), r.window_us.begin(), r.window_us.end());
    point_us.insert(point_us.end(), r.point_us.begin(), r.point_us.end());
    knn_us.insert(knn_us.end(), r.knn_us.begin(), r.knn_us.end());
    queries += r.queries;
    mismatches += r.mismatches;
  }
  *total_mismatches += mismatches;

  table->AddRow({std::to_string(readers) + "+1",
                 Fmt(queries / secs, 0),
                 Fmt(Percentile(window_us, 0.50), 0),
                 Fmt(Percentile(window_us, 0.99), 0),
                 Fmt(Percentile(point_us, 0.50), 0),
                 Fmt(Percentile(point_us, 0.99), 0),
                 Fmt(Percentile(knn_us, 0.50), 0),
                 Fmt(Percentile(knn_us, 0.99), 0),
                 std::to_string(mismatches)});
}

/// Saturation phase: one slow worker, two-slot queue, `clients` pushing
/// full-square windows. The admission queue must shed with BUSY, every
/// shed request must still get its typed reply, and retried requests
/// must eventually succeed.
void RunSaturation(size_t clients) {
  DataGenOptions dg;
  dg.seed = kSeed + 9;
  auto db = BuildDB(GenerateData(400, dg), 16);
  db->set_simulated_read_latency_us(200);

  ServerOptions sopt;
  sopt.workers = 1;
  sopt.queue_capacity = 2;
  sopt.idle_timeout_ms = 0;
  Server server(db.get(), sopt);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::exit(1);
  }

  constexpr int kPerClient = 30;
  std::atomic<uint64_t> ok{0}, busy{0};
  std::vector<std::thread> threads;
  const uint64_t t0 = NowMicros();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      auto conn = Client::Connect("tcp://127.0.0.1:" + std::to_string(server.port()));
      if (!conn.ok()) return;
      Client client = std::move(conn).value();
      int done = 0;
      while (done < kPerClient) {
        auto reply = client.Window(Rect{0.0, 0.0, 1.0, 1.0});
        if (reply.ok()) {
          ++ok;
          ++done;
        } else if (reply.status().IsBusy()) {
          ++busy;  // shed at the door; back off briefly, then retry
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        } else {
          std::fprintf(stderr, "unexpected: %s\n",
                       reply.status().ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double secs = (NowMicros() - t0) / 1e6;
  server.Stop();

  std::printf(
      "saturation: %zu clients vs 1 worker / 2-slot queue — %llu served "
      "(%.0f q/s), %llu BUSY rejections (%.1f%% of attempts), "
      "busy_rejected counter %llu\n\n",
      clients, static_cast<unsigned long long>(ok.load()), ok.load() / secs,
      static_cast<unsigned long long>(busy.load()),
      100.0 * busy.load() / (ok.load() + busy.load()),
      static_cast<unsigned long long>(
          server.counters().busy_rejected.load()));
  if (busy.load() == 0) {
    std::fprintf(stderr,
                 "FAIL: no BUSY replies observed under saturation\n");
    std::exit(1);
  }
}

size_t ProcessThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t threads = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %zu", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

/// Connection-horde phase: `total` concurrent idle connections (each
/// pinged once so it is fully established through the wire protocol)
/// held open by `procs` forked client processes, while the parent
/// verifies that the net-thread pool stays flat — same thread count as
/// with zero connections — and that a probe client's latency is still
/// healthy. The old thread-per-connection front end burned one thread
/// per client and could not get near this number.
///
/// Clients fork BEFORE the server starts any thread: mixing fork(2)
/// into a multithreaded process risks inheriting locked allocator /
/// runtime state, so the children are created while this process is
/// still single-threaded.
void RunConnectionHorde(size_t total, size_t procs) {
  // Each connection needs one fd in the parent (server side) and one in
  // its child (client side); lift the soft nofile limit to the hard cap.
  struct rlimit rl;
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &rl);
  }

  const size_t per_child = total / procs;
  struct Child {
    pid_t pid = -1;
    int to_child = -1;    // parent writes: port, then the teardown byte
    int from_child = -1;  // child writes: connections established
  };
  std::vector<Child> children(procs);

  for (size_t c = 0; c < procs; ++c) {
    int down[2], up[2];
    if (pipe(down) != 0 || pipe(up) != 0) {
      std::perror("pipe");
      std::exit(1);
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      // --- child: hold per_child pinged connections until told to go.
      close(down[1]);
      close(up[0]);
      uint16_t port = 0;
      if (read(down[0], &port, sizeof(port)) != sizeof(port)) _exit(2);
      std::vector<Client> conns;
      conns.reserve(per_child);
      uint32_t established = 0;
      for (size_t i = 0; i < per_child; ++i) {
        auto conn = Client::Connect("tcp://127.0.0.1:" + std::to_string(port));
        if (!conn.ok()) break;
        Client client = std::move(conn).value();
        if (!client.Ping().ok()) break;
        conns.push_back(std::move(client));
        ++established;
      }
      if (write(up[1], &established, sizeof(established)) !=
          sizeof(established)) {
        _exit(2);
      }
      char go = 0;
      (void)read(down[0], &go, 1);  // parent's teardown signal (or EOF)
      // conns close on exit — a 10k-fd EOF storm for the net threads.
      _exit(0);
    }
    close(down[0]);
    close(up[1]);
    children[c] = Child{pid, down[1], up[0]};
  }

  // --- parent: only now does the process go multithreaded.
  DataGenOptions dg;
  dg.seed = kSeed + 77;
  auto db = BuildDB(GenerateData(1000, dg), 4096);

  ServerOptions sopt;
  sopt.net_threads = 2;
  sopt.workers = 4;
  sopt.idle_timeout_ms = 0;  // the horde is deliberately idle
  sopt.listen_backlog = 1024;
  Server server(db.get(), sopt);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::exit(1);
  }
  const size_t threads_baseline = ProcessThreadCount();

  const uint16_t port = server.port();
  for (Child& ch : children) {
    if (write(ch.to_child, &port, sizeof(port)) != sizeof(port)) {
      std::perror("write port");
      std::exit(1);
    }
  }

  const uint64_t t0 = NowMicros();
  uint64_t established = 0;
  for (Child& ch : children) {
    uint32_t n = 0;
    if (read(ch.from_child, &n, sizeof(n)) != sizeof(n)) {
      std::fprintf(stderr, "FAIL: horde child died during setup\n");
      std::exit(1);
    }
    established += n;
  }
  const double setup_secs = (NowMicros() - t0) / 1e6;

  // Every connection is live server-side, and the thread count did not
  // move: connections are state in two epoll loops, not threads.
  const size_t threads_loaded = ProcessThreadCount();
  const uint64_t open = server.open_connections();

  // Probe latency with the horde parked in the epoll sets.
  std::vector<uint64_t> probe_us;
  {
    auto conn = Client::Connect("tcp://127.0.0.1:" + std::to_string(port));
    if (conn.ok()) {
      Client probe = std::move(conn).value();
      for (int i = 0; i < 500; ++i) {
        const uint64_t s = NowMicros();
        if (probe.Ping().ok()) probe_us.push_back(NowMicros() - s);
      }
    }
  }

  // Teardown: all children hang up at once.
  const uint64_t t1 = NowMicros();
  for (Child& ch : children) {
    const char go = 1;
    (void)write(ch.to_child, &go, 1);
  }
  for (Child& ch : children) {
    int status = 0;
    waitpid(ch.pid, &status, 0);
    close(ch.to_child);
    close(ch.from_child);
  }
  while (server.open_connections() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double teardown_secs = (NowMicros() - t1) / 1e6;
  server.Stop();

  std::printf(
      "connection horde: %llu/%zu connections established+pinged across "
      "%zu client processes in %.1fs; open gauge %llu; threads %zu -> %zu "
      "(flat); probe ping p50 %.0fus p99 %.0fus with horde parked; "
      "EOF-storm teardown drained in %.2fs\n",
      static_cast<unsigned long long>(established), total, procs,
      setup_secs, static_cast<unsigned long long>(open), threads_baseline,
      threads_loaded, Percentile(probe_us, 0.50), Percentile(probe_us, 0.99),
      teardown_secs);

  bool failed = false;
  if (established != total || open != total) {
    std::fprintf(stderr, "FAIL: horde wanted %zu connections, got %llu "
                         "(server gauge %llu)\n",
                 total, static_cast<unsigned long long>(established),
                 static_cast<unsigned long long>(open));
    failed = true;
  }
  if (threads_loaded != threads_baseline) {
    std::fprintf(stderr,
                 "FAIL: thread count moved under the horde (%zu -> %zu)\n",
                 threads_baseline, threads_loaded);
    failed = true;
  }
  if (probe_us.size() < 500) {
    std::fprintf(stderr, "FAIL: probe client lost pings under the horde\n");
    failed = true;
  }
  if (failed) std::exit(1);
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t max_readers =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;
  const size_t horde =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 10000;

  // First, while this process is still single-threaded (fork safety —
  // see RunConnectionHorde): the many-idle-connections phase.
  if (horde > 0) {
    zdb::RunConnectionHorde(horde, /*procs=*/5);
  }

  const zdb::Workload w = zdb::MakeWorkload();
  zdb::Table table(
      "E14 network service, closed loop — " +
          std::to_string(zdb::kInitialObjects) + " objects, " +
          std::to_string(zdb::kBatches) + " write batches, 6 workers; "
          "latencies in us over loopback (readers+writer clients; host "
          "cores: " +
          std::to_string(std::thread::hardware_concurrency()) + ")",
      {"clients", "read q/s", "win p50", "win p99", "pt p50", "pt p99",
       "knn p50", "knn p99", "mismatch"});

  uint64_t mismatches = 0;
  for (size_t readers = 2; readers <= max_readers; readers *= 2) {
    zdb::RunPhase(w, readers, &table, &mismatches);
  }
  table.Print();
  std::printf("\n");

  zdb::RunSaturation(max_readers);

  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %llu oracle mismatches\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  std::printf("oracle: every reply matched at an observed epoch — 0 "
              "mismatches\n");
  return 0;
}
