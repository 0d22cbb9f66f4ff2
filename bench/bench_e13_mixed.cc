// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E13: mixed read/write throughput. A writer thread applies batched
// erases + inserts through SpatialIndex::ApplyBatch while reader threads
// answer window, point and kNN queries, each taking a strided share of
// the query stream. Queries read epoch-pinned snapshots and never wait
// for the writer; the question this experiment answers is how much read
// throughput survives a concurrent write stream, in the two usual
// regimes:
//
//   * warm — pool holds the whole index; queries are pure CPU, so the
//     writer competes for cores and pool shards but no I/O bandwidth.
//   * I/O-bound — small pool plus simulated per-read device latency;
//     reader threads overlap their stalls, and the writer's page loads
//     and evictions compete with them for the pool.
//
// Read-only throughput at the same thread count is reported as the
// baseline, so the "retained" columns are the fraction of read
// throughput kept when the write stream is switched on.
//
// The second phase measures per-query reader latency (p50/p99) with and
// without a sustained writer stream, at growing reader counts: readers
// pin an epoch and traverse copy-on-write page versions with no lock.
// The phase closes with the parked-pin experiment: writer batch throughput
// while a long-lived pin is held open, versus unpinned — this must be a
// wash, since a pin only delays version reclamation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <thread>

#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kRounds = 16;      ///< query rounds; writer batches
constexpr size_t kRoundPairs = 48;  ///< erase+insert pairs per batch
constexpr size_t kWindowsPerRound = 24;
constexpr size_t kPointsPerRound = 16;
constexpr size_t kKnnPerRound = 4;
constexpr size_t kKnnK = 8;
constexpr double kSelectivity = 0.01;
constexpr uint32_t kReadLatencyUs = 100;  ///< simulated device read
constexpr size_t kIoPoolPages = 256;
constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

double SecondsOf(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct ReadSample {
  std::vector<double> lat_us;  ///< one entry per query
  double wall = 0.0;           ///< seconds for the whole measurement
};

/// `threads` readers answer queries [0, count): thread t runs
/// `query(i)` for i = t, t + threads, ..., timing each call.
ReadSample MeasureReaders(size_t threads, size_t count,
                          const std::function<void(size_t)>& query) {
  std::vector<std::vector<double>> per(threads);
  const double wall = SecondsOf([&] {
    std::vector<std::thread> ts;
    ts.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        per[t].reserve(count / threads + 1);
        for (size_t i = t; i < count; i += threads) {
          const auto t0 = std::chrono::steady_clock::now();
          query(i);
          const auto t1 = std::chrono::steady_clock::now();
          per[t].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
      });
    }
    for (auto& th : ts) th.join();
  });
  ReadSample out;
  out.wall = wall;
  for (auto& v : per) out.lat_us.insert(out.lat_us.end(), v.begin(), v.end());
  return out;
}

/// Applies batches of `pairs` erase+insert pairs until `*stop` flips
/// (or, with a null stop, until `max_batches` have been applied). The
/// deque tracks live oids — erases pop the front, fresh inserts append —
/// so erase targets stay valid no matter how long the churn runs.
/// `applied` is bumped per batch so callers can window their throughput
/// measurement.
void Churn(SpatialIndex* index, size_t n_base, const std::vector<Rect>& extra,
           size_t pairs, const std::atomic<bool>* stop, uint64_t max_batches,
           std::atomic<uint64_t>* applied) {
  std::deque<ObjectId> live;
  for (size_t i = 0; i < n_base; ++i) live.push_back(static_cast<ObjectId>(i));
  size_t cursor = 0;
  for (uint64_t done = 0;
       stop ? !stop->load(std::memory_order_relaxed) : done < max_batches;
       ++done) {
    WriteBatch b;
    for (size_t i = 0; i < pairs; ++i) {
      b.Erase(live.front());
      live.pop_front();
      b.Insert(extra[cursor++ % extra.size()]);
    }
    const auto ids = index->ApplyBatch(b).value();
    live.insert(live.end(), ids.begin(), ids.end());
    applied->fetch_add(1, std::memory_order_relaxed);
  }
}

// ------------------------------------------------ mixed throughput phase

/// One phase-1 read: a window, or a point / kNN probe at `p`.
struct Query {
  enum Kind { kWindow, kPoint, kKnn } kind;
  Rect window;
  Point p;
};

/// kRounds rounds of windows, points and kNN probes, one seed per round
/// and query kind.
std::vector<Query> MakeQueries() {
  std::vector<Query> out;
  for (size_t r = 0; r < kRounds; ++r) {
    QueryGenOptions qopt;
    qopt.seed = 300 + static_cast<uint64_t>(r);
    for (const Rect& w :
         GenerateWindows(kWindowsPerRound, kSelectivity, qopt)) {
      out.push_back({Query::kWindow, w, {}});
    }
    for (const Point& p : GeneratePoints(kPointsPerRound, 400 + r)) {
      out.push_back({Query::kPoint, {}, p});
    }
    for (const Point& p : GeneratePoints(kKnnPerRound, 500 + r)) {
      out.push_back({Query::kKnn, {}, p});
    }
  }
  return out;
}

void RunQuery(SpatialIndex* index, const Query& q) {
  switch (q.kind) {
    case Query::kWindow:
      (void)index->WindowQuery(q.window).value();
      break;
    case Query::kPoint:
      (void)index->PointQuery(q.p).value();
      break;
    case Query::kKnn:
      (void)index->NearestNeighbors(q.p, kKnnK).value();
      break;
  }
}

struct Regime {
  double read_qps = 0.0;   ///< read-only baseline
  double mixed_qps = 0.0;  ///< with the write stream on
  double write_ops = 0.0;  ///< write ops/s during the mixed run
};

/// The mixed run's writer erases the base objects in oid order and
/// re-inserts each erased rectangle, kRoundPairs pairs per batch, so the
/// live count and the data distribution the queries were drawn against
/// stay as they were. Each run gets a fresh index, so the erase targets
/// are valid by construction.
Regime RunRegime(const std::vector<Rect>& data,
                 const std::vector<Query>& queries, size_t threads,
                 bool io_bound) {
  const SpatialIndexOptions opt{.data = DecomposeOptions::SizeBound(4)};
  const size_t pool_pages = io_bound ? kIoPoolPages : 8192;
  constexpr size_t kWriteOps = kRounds * 2 * kRoundPairs;
  const auto run = [&](bool with_writer) {
    Env env = MakeEnv(kBenchPageSize, pool_pages);
    auto index = BuildZIndex(&env, data, opt).value();
    if (io_bound) env.pager->set_simulated_read_latency_us(kReadLatencyUs);
    return SecondsOf([&] {
      std::atomic<uint64_t> applied{0};
      std::thread writer;
      if (with_writer) {
        writer = std::thread([&] {
          Churn(index.get(), data.size(), data, kRoundPairs, nullptr,
                kRounds, &applied);
        });
      }
      (void)MeasureReaders(threads, queries.size(), [&](size_t i) {
        RunQuery(index.get(), queries[i]);
      });
      if (writer.joinable()) writer.join();
    });
  };
  Regime out;
  out.read_qps = queries.size() / run(false);
  const double s = run(true);
  out.mixed_qps = queries.size() / s;
  out.write_ops = kWriteOps / s;
  return out;
}

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto queries = MakeQueries();

  Table table(
      "E13 mixed read/write throughput — " + DistributionName(dist) + " (" +
          std::to_string(n) + " objects; " + std::to_string(kRounds) +
          " batches x " + std::to_string(2 * kRoundPairs) +
          " write ops; I/O regime: " + std::to_string(kIoPoolPages) +
          "-page pool, " + std::to_string(kReadLatencyUs) +
          "us/read; host cores: " +
          std::to_string(std::thread::hardware_concurrency()) + ")",
      {"threads", "warm read q/s", "warm mixed q/s", "retained",
       "io read q/s", "io mixed q/s", "retained", "io write op/s"});

  for (size_t threads : kThreadCounts) {
    const Regime warm = RunRegime(data, queries, threads, false);
    const Regime io = RunRegime(data, queries, threads, true);
    table.AddRow({std::to_string(threads), Fmt(warm.read_qps, 0),
                  Fmt(warm.mixed_qps, 0),
                  Fmt(warm.mixed_qps / warm.read_qps, 2),
                  Fmt(io.read_qps, 0), Fmt(io.mixed_qps, 0),
                  Fmt(io.mixed_qps / io.read_qps, 2),
                  Fmt(io.write_ops, 0)});
  }
  table.Print();
  std::printf("\n");
}

// ------------------------------------------------- snapshot read phase

constexpr size_t kSnapReadsPerThread = 256;
constexpr size_t kSnapWindows = 64;
constexpr size_t kSnapChurnBatch = 32;     ///< erase+insert pairs per batch
constexpr uint64_t kSnapParkedBatches = 200;

/// p-th latency quantile (sorts in place; idempotent).
double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

void RunSnapshotPhase(size_t n) {
  const SpatialIndexOptions opt{.data = DecomposeOptions::SizeBound(4)};
  DataGenOptions dg;
  dg.distribution = Distribution::kUniformLarge;
  dg.seed = 71;
  const auto data = GenerateData(n, dg);
  DataGenOptions dge = dg;
  dge.seed = 72;
  const auto extra = GenerateData(4096, dge);
  QueryGenOptions qopt;
  qopt.seed = 900;
  const auto windows = GenerateWindows(kSnapWindows, kSelectivity, qopt);

  Table table(
      "E13 snapshot reads — uniform-large (" + std::to_string(n) +
          " objects; " + std::to_string(kSnapReadsPerThread) +
          " window queries/reader; churn writer: " +
          std::to_string(kSnapChurnBatch) + " erase+insert pairs/batch)",
      {"readers", "quiet p50 us", "quiet p99 us", "churn p50 us",
       "churn p99 us", "churn read q/s", "writer batch/s"});

  for (size_t threads : kThreadCounts) {
    Env env = MakeEnv(kBenchPageSize, 8192);
    auto index = BuildZIndex(&env, data, opt).value();

    // Reader t issues kSnapReadsPerThread windows, starting at 31 * t.
    const auto read = [&](size_t i) {
      const size_t t = i % threads, k = i / threads;
      (void)index->WindowQuery(windows[(t * 31 + k) % windows.size()])
          .value();
    };
    const size_t reads = threads * kSnapReadsPerThread;
    ReadSample quiet = MeasureReaders(threads, reads, read);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> applied{0};
    std::thread writer([&] {
      Churn(index.get(), n, extra, kSnapChurnBatch, &stop, 0, &applied);
    });
    const uint64_t b0 = applied.load();
    ReadSample churn = MeasureReaders(threads, reads, read);
    const uint64_t b1 = applied.load();
    stop.store(true);
    writer.join();

    const double qps = static_cast<double>(churn.lat_us.size()) / churn.wall;
    table.AddRow({std::to_string(threads),
                  Fmt(Percentile(quiet.lat_us, 0.50), 1),
                  Fmt(Percentile(quiet.lat_us, 0.99), 1),
                  Fmt(Percentile(churn.lat_us, 0.50), 1),
                  Fmt(Percentile(churn.lat_us, 0.99), 1), Fmt(qps, 0),
                  Fmt(static_cast<double>(b1 - b0) / churn.wall, 1)});
  }
  table.Print();

  // Parked-pin writer progress: a long-lived pin parked at the base
  // epoch must not slow the write stream (it only delays version
  // reclamation).
  double unpinned_s = 0.0, parked_s = 0.0;
  {
    Env env = MakeEnv(kBenchPageSize, 8192);
    auto index = BuildZIndex(&env, data, opt).value();
    std::atomic<uint64_t> applied{0};
    unpinned_s = SecondsOf(
        [&] { Churn(index.get(), n, extra, kSnapChurnBatch, nullptr,
                    kSnapParkedBatches, &applied); });
  }
  {
    Env env = MakeEnv(kBenchPageSize, 8192);
    auto index = BuildZIndex(&env, data, opt).value();
    const EpochPin pin = index->PinEpoch();
    std::atomic<uint64_t> applied{0};
    parked_s = SecondsOf(
        [&] { Churn(index.get(), n, extra, kSnapChurnBatch, nullptr,
                    kSnapParkedBatches, &applied); });
  }
  const double per_batch = static_cast<double>(kSnapParkedBatches);
  std::printf(
      "  parked-pin writer progress (%llu batches): unpinned %.0f batch/s, "
      "parked pin %.0f batch/s (retained %.2f)\n\n",
      static_cast<unsigned long long>(kSnapParkedBatches),
      per_batch / unpinned_s, per_batch / parked_s, parked_s > 0.0
          ? (per_batch / parked_s) / (per_batch / unpinned_s)
          : 0.0);
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20000;
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformLarge, zdb::Distribution::kClusters}) {
    zdb::RunDistribution(d, n);
  }
  zdb::RunSnapshotPhase(n);
  return 0;
}
