// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E12: parallel query throughput versus thread count. The E2 workload
// (size-bound k decomposition over the standard distributions) is run
// by 1, 2, 4 and 8 plain reader threads, each answering a strided share
// of the windows through the public query calls (as the server's
// request workers share a query stream), in two regimes:
//
//   * warm — the pool holds the whole index, so the batch is pure CPU
//     (filter + refine, no page transfers). The reader threads run
//     through the windows round after round: first a warm-up, then a
//     fixed interval (five 0.2 s slices); the column is the median
//     slice's throughput, so it measures steady state. Two warm
//     columns: a bare SpatialIndex built by inserts, and a bulk-loaded
//     zdb::DB, the configuration the server runs; both read
//     epoch-pinned snapshots.
//     "csw/q" is the reader threads' voluntary context switches per
//     query over the timed interval (each reader's own
//     getrusage(RUSAGE_THREAD), summed; the indexes' background GC
//     timers are not counted): a read path that blocks on a lock or
//     waits for another thread shows up here. Scaling in these columns
//     is bounded by physical cores.
//   * I/O-bound — a small pool plus simulated per-read device latency
//     on the in-memory pager (the stall is taken outside the pager
//     mutex, like a real device queue). Here reader threads overlap
//     their page-read stalls, which is what the concurrent read path
//     is for; throughput scales with the thread count irrespective of
//     core count. "hit rate" is the pager's pool hit rate over the
//     batches.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "zdb/db.h"

namespace zdb {
namespace {

constexpr size_t kWarmQueries = 256;
constexpr size_t kIoQueries = 48;
constexpr double kBatchSelectivity = 0.01;
constexpr uint32_t kReadLatencyUs = 100;  ///< simulated device read
constexpr size_t kIoPoolPages = 256;
constexpr size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr double kWarmupSeconds = 0.2;
constexpr double kSliceSeconds = 0.2;
constexpr int kSlices = 5;  ///< timed interval: 1 s

double SecondsOf(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-2 wall-clock seconds (discards scheduler noise).
double BestSeconds(const std::function<void()>& fn) {
  return std::min(SecondsOf(fn), SecondsOf(fn));
}

/// Answers queries [0, count) on `threads` reader threads: thread t
/// runs `query(i)` for i = t, t + threads, ...
void StridedReaders(size_t threads, size_t count,
                    const std::function<void(size_t)>& query) {
  std::vector<std::thread> readers;
  readers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = t; i < count; i += threads) query(i);
    });
  }
  for (auto& r : readers) r.join();
}

/// Voluntary context switches of the calling thread so far.
uint64_t ThreadVoluntaryContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<uint64_t>(ru.ru_nvcsw);
}

struct SteadyResult {
  double qps = 0.0;          ///< median slice throughput
  double csw_per_query = 0.0;
};

/// Runs `threads` reader threads, thread t answering queries t,
/// t + threads, ... of [0, count) round after round, for kWarmupSeconds
/// and then kSlices slices of kSliceSeconds; reports the median slice's
/// throughput and the readers' voluntary context switches per query
/// over all slices. The readers live for the whole measurement, so no
/// thread start-up is timed.
SteadyResult MeasureSteady(size_t threads, size_t count,
                           const std::function<void(size_t)>& query) {
  using Clock = std::chrono::steady_clock;
  struct alignas(64) Counter {
    std::atomic<uint64_t> queries{0};
    uint64_t csw = 0;  ///< switches in the timed interval (set at exit)
  };
  std::vector<Counter> done(threads);
  std::atomic<bool> timing{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      bool timed = false;
      uint64_t csw0 = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t i = t; i < count; i += threads) {
          if (!timed && timing.load(std::memory_order_relaxed)) {
            timed = true;
            csw0 = ThreadVoluntaryContextSwitches();
          }
          query(i);
          done[t].queries.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (timed) done[t].csw = ThreadVoluntaryContextSwitches() - csw0;
    });
  }
  const auto answered = [&] {
    uint64_t sum = 0;
    for (const Counter& c : done) sum += c.queries.load();
    return sum;
  };
  const auto sleep = [](double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  };
  sleep(kWarmupSeconds);
  std::vector<double> qps;
  timing.store(true);
  const uint64_t q0 = answered();
  uint64_t q = q0;
  auto t = Clock::now();
  for (int i = 0; i < kSlices; ++i) {
    sleep(kSliceSeconds);
    const auto t1 = Clock::now();
    const uint64_t q1 = answered();
    qps.push_back((q1 - q) / std::chrono::duration<double>(t1 - t).count());
    q = q1;
    t = t1;
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  uint64_t csw = 0;
  for (const Counter& c : done) csw += c.csw;
  std::sort(qps.begin(), qps.end());
  SteadyResult r;
  r.qps = qps[qps.size() / 2];
  r.csw_per_query = static_cast<double>(csw) / static_cast<double>(q - q0);
  return r;
}

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto warm_windows =
      GenerateWindows(kWarmQueries, kBatchSelectivity, QueryGenOptions{});
  const std::vector<Rect> io_windows(warm_windows.begin(),
                                     warm_windows.begin() + kIoQueries);

  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);

  // Warm environment: pool big enough for the whole index.
  Env warm_env = MakeEnv(kBenchPageSize, 8192);
  BuildResult br;
  auto warm_index = BuildZIndex(&warm_env, data, opt, &br).value();
  for (const auto& w : warm_windows) (void)warm_index->WindowQuery(w).value();

  // The served configuration: an in-memory zdb::DB over the same data,
  // options and page size, bulk-loaded (so its tree is packed tighter
  // than the inserted one), equally warm.
  DBOptions db_opt;
  db_opt.index = opt;
  db_opt.page_size = kBenchPageSize;
  db_opt.cache_pages = 8192;
  auto db = DB::Open("", db_opt).value();
  if (!db->BulkLoad(data).ok()) std::abort();
  for (const auto& w : warm_windows) (void)db->Window(w).value();

  // I/O-bound environment: small pool, simulated device read latency.
  Env io_env = MakeEnv(kBenchPageSize, kIoPoolPages);
  auto io_index = BuildZIndex(&io_env, data, opt).value();
  io_env.pager->set_simulated_read_latency_us(kReadLatencyUs);

  Table table(
      "E12 parallel window throughput — " + DistributionName(dist) + " (" +
          std::to_string(n) + " objects, " + Fmt(100.0 * kBatchSelectivity) +
          "% sel; I/O regime: " + std::to_string(kIoPoolPages) +
          "-page pool, " + std::to_string(kReadLatencyUs) +
          "us/read; host cores: " +
          std::to_string(std::thread::hardware_concurrency()) + ")",
      {"threads", "index q/s", "speedup", "csw/q", "DB q/s", "speedup",
       "csw/q", "io q/s", "speedup", "hit rate"});

  double warm_base = 0.0, db_base = 0.0, io_base = 0.0;
  for (size_t threads : kThreadCounts) {
    const SteadyResult warm =
        MeasureSteady(threads, kWarmQueries, [&](size_t i) {
          (void)warm_index->WindowQuery(warm_windows[i]).value();
        });
    const SteadyResult served =
        MeasureSteady(threads, kWarmQueries, [&](size_t i) {
          (void)db->Window(warm_windows[i]).value();
        });

    const IoStats io_before = io_env.pager->io_stats();
    const double io_s = BestSeconds([&] {
      StridedReaders(threads, kIoQueries, [&](size_t i) {
        (void)io_index->WindowQuery(io_windows[i]).value();
      });
    });
    const double io_qps = kIoQueries / io_s;
    const IoStats io = io_env.Delta(io_before);
    const uint64_t hits = io.pool_hits.load(), misses = io.pool_misses.load();
    const double hit_rate =
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;

    if (threads == 1) {
      warm_base = warm.qps;
      db_base = served.qps;
      io_base = io_qps;
    }
    table.AddRow({std::to_string(threads), Fmt(warm.qps, 0),
                  Fmt(warm.qps / warm_base) + "x", Fmt(warm.csw_per_query, 3),
                  Fmt(served.qps, 0), Fmt(served.qps / db_base) + "x",
                  Fmt(served.csw_per_query, 3), Fmt(io_qps, 0),
                  Fmt(io_qps / io_base) + "x", Fmt(hit_rate, 3)});
  }
  table.Print();
  std::printf("  [redundancy %.2f]\n\n", br.redundancy);
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20000;
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformSmall, zdb::Distribution::kUniformLarge,
        zdb::Distribution::kClusters}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
