// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E12: parallel query throughput versus worker count. The E2 workload
// (size-bound k decomposition over the standard distributions) is run
// through exec/QueryExecutor at 1, 2, 4 and 8 workers, in two regimes:
//
//   * warm — the pool holds the whole index, so the batch is pure CPU
//     (filter + refine, no page transfers). Each executor is warmed up
//     first, then batches run back to back for a fixed interval (five
//     0.2 s slices); the column is the median slice's throughput, so it
//     measures steady state, not thread start-up. Two warm columns:
//     a bare SpatialIndex built by inserts, and a bulk-loaded zdb::DB,
//     the configuration the server runs; both read epoch-pinned
//     snapshots.
//     "csw/q" is voluntary context switches per query over the timed
//     interval (getrusage, whole process): a read path that blocks on a
//     lock or wakes another thread shows up here. Scaling in these
//     columns is bounded by physical cores.
//   * I/O-bound — a small pool plus simulated per-read device latency
//     on the in-memory pager (the stall is taken outside the pager
//     mutex, like a real device queue). Here worker threads overlap
//     their page-read stalls, which is what the concurrent read path
//     is for; throughput scales with the thread count irrespective of
//     core count.
//
// The last column splits ONE 10%-selectivity window query across the
// workers by its z-interval work list (intra-query parallelism), in
// the I/O-bound regime.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "exec/executor.h"
#include "zdb/db.h"

namespace zdb {
namespace {

constexpr size_t kWarmQueries = 256;
constexpr size_t kIoQueries = 48;
constexpr double kBatchSelectivity = 0.01;
constexpr double kBigSelectivity = 0.1;
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

uint64_t VoluntaryContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_nvcsw);
}

struct SteadyResult {
  double qps = 0.0;          ///< median slice throughput
  double csw_per_query = 0.0;
};

/// Runs `batch` (which answers `queries` queries per call) for
/// kWarmupSeconds, then back to back for kSlices slices of
/// kSliceSeconds; reports the median slice's throughput and the
/// voluntary context switches per query over all slices.
SteadyResult MeasureSteady(const std::function<void()>& batch,
                           size_t queries) {
  using Clock = std::chrono::steady_clock;
  struct Slice {
    size_t queries = 0;
    double seconds = 0.0;
  };
  const auto run_for = [&](double seconds) {
    const auto t0 = Clock::now();
    Slice sl;
    do {
      batch();
      sl.queries += queries;
      sl.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (sl.seconds < seconds);
    return sl;
  };
  (void)run_for(kWarmupSeconds);
  std::vector<double> qps;
  size_t total = 0;
  const uint64_t csw0 = VoluntaryContextSwitches();
  for (int i = 0; i < kSlices; ++i) {
    const Slice sl = run_for(kSliceSeconds);
    qps.push_back(sl.queries / sl.seconds);
    total += sl.queries;
  }
  const uint64_t csw = VoluntaryContextSwitches() - csw0;
  std::sort(qps.begin(), qps.end());
  SteadyResult r;
  r.qps = qps[qps.size() / 2];
  r.csw_per_query = static_cast<double>(csw) / static_cast<double>(total);
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
  const auto big_window =
      GenerateWindows(1, kBigSelectivity, QueryGenOptions{.seed = 11})[0];

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
       "csw/q", "io q/s", "speedup", "hit rate", "big query ms",
       "speedup"});

  double warm_base = 0.0, db_base = 0.0, io_base = 0.0, big_base = 0.0;
  for (size_t threads : kThreadCounts) {
    QueryExecutor warm_exec(warm_index.get(), threads);
    const SteadyResult warm = MeasureSteady(
        [&] { (void)warm_exec.WindowBatch(warm_windows).value(); },
        kWarmQueries);

    std::unique_ptr<QueryExecutor> db_exec = db->NewExecutor(threads);
    const SteadyResult served = MeasureSteady(
        [&] { (void)db_exec->WindowBatch(warm_windows).value(); },
        kWarmQueries);

    QueryExecutor io_exec(io_index.get(), threads);
    const double io_s =
        BestSeconds([&] { (void)io_exec.WindowBatch(io_windows).value(); });
    const double io_qps = kIoQueries / io_s;
    const WorkerStats totals = io_exec.stats().Totals();

    const double big_s = BestSeconds(
        [&] { (void)io_exec.ParallelWindowQuery(big_window).value(); });
    const double big_ms = 1000.0 * big_s;

    if (threads == 1) {
      warm_base = warm.qps;
      db_base = served.qps;
      io_base = io_qps;
      big_base = big_ms;
    }
    table.AddRow({std::to_string(threads), Fmt(warm.qps, 0),
                  Fmt(warm.qps / warm_base) + "x", Fmt(warm.csw_per_query, 3),
                  Fmt(served.qps, 0), Fmt(served.qps / db_base) + "x",
                  Fmt(served.csw_per_query, 3), Fmt(io_qps, 0),
                  Fmt(io_qps / io_base) + "x", Fmt(totals.io.hit_rate(), 3),
                  Fmt(big_ms, 1), Fmt(big_base / big_ms) + "x"});
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
