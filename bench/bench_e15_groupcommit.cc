// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E15: the group-commit durability pipeline. Two claims under
// test, against a real file (genuine fsyncs — this experiment is about
// the durability window, so an in-memory journal would measure nothing):
//
//   * Reader tail latency: mutations publish in a writer section with
//     no I/O inside, the checkpoint + flush + journal fsync run after
//     it, and readers take no lock, so reader p99 during a sustained
//     durable write stream should stay within ~2x of the read-only
//     baseline. Both modes commit that way; neither makes readers wait
//     out an fsync.
//
//   * Coalescing: k writers blocking on kDurable acks complete with
//     FEWER journal commits than batches — concurrently published
//     batches ride the same group fsync, so writer throughput scales
//     with the coalescing factor instead of paying one fsync each. The
//     baseline row is DBOptions::group_commit = false: the same commit,
//     run by each writer inline as a group of one, so it pays one fsync
//     per batch and its writers queue on commit_mu_ behind each other.
//
// Everything runs through the zdb::DB facade; the bench never touches
// the storage layer directly.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/table.h"
#include "common/random.h"
#include "zdb/db.h"

namespace zdb {
namespace {

constexpr size_t kPreload = 20000;
constexpr size_t kPreloadBatch = 500;
constexpr size_t kWriters = 4;

/// Busy reader threads scale with the host: oversubscribing cores turns
/// the p99 into a scheduler-preemption measurement instead of a
/// read-path one. Writers are excluded — they sleep on the group fsync.
size_t ReaderCount() {
  const size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(2, std::min<size_t>(4, hw));
}
constexpr size_t kBatchesPerWriter = 48;
constexpr size_t kOpsPerBatch = 16;
constexpr double kWindowSide = 0.05;
constexpr auto kBaselineWindow = std::chrono::milliseconds(400);
/// Readers run this long before their latencies count: the first
/// queries of freshly started reader threads stall on thread start-up
/// and the first touch of their memory.
constexpr auto kReaderWarmup = std::chrono::milliseconds(100);

/// Pins the calling thread to the `i`-th CPU this process may run on.
/// Unpinned, the reader threads of a fresh process were seen sharing one
/// CPU for a whole baseline window while the other CPUs idled (the
/// kernel's load balancer did not spread them), so the first mode's
/// read-only p99 measured a 4 ms scheduler tick rotation, about 16 ms,
/// instead of the engine.
void PinToCpu(size_t i) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n == 0) return;
  size_t k = i % static_cast<size_t>(n);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed) || k-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

Rect RandomRect(Random* rng, double side) {
  const double x = rng->UniformDouble(0.0, 0.9);
  const double y = rng->UniformDouble(0.0, 0.9);
  return Rect{x, y, x + side, y + side};
}

double Percentile(std::vector<double>* lat, double p) {
  if (lat->empty()) return 0.0;
  std::sort(lat->begin(), lat->end());
  const size_t i = static_cast<size_t>(p * (lat->size() - 1));
  return (*lat)[i];
}

/// Reader pool: each thread, pinned to its own CPU, runs window queries
/// until `stop`, recording the latency in microseconds of every query
/// that starts after the warm-up (kReaderWarmup).
struct ReaderPool {
  explicit ReaderPool(DB* db) : db_(db) {}

  void Start() {
    measure_from_ = std::chrono::steady_clock::now() + kReaderWarmup;
    stop_.store(false, std::memory_order_release);
    lat_.assign(ReaderCount(), {});
    for (size_t t = 0; t < ReaderCount(); ++t) {
      threads_.emplace_back([this, t] {
        PinToCpu(t);
        Random rng(100 + t);
        while (!stop_.load(std::memory_order_acquire)) {
          const Rect w = RandomRect(&rng, kWindowSide);
          const auto t0 = std::chrono::steady_clock::now();
          if (!db_->Window(w).ok()) std::exit(1);
          const auto t1 = std::chrono::steady_clock::now();
          if (t0 < measure_from_) continue;
          lat_[t].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
      });
    }
  }

  /// Blocks until the readers' warm-up is over.
  void WaitWarm() const { std::this_thread::sleep_until(measure_from_); }

  /// Stops the pool and returns the merged latency sample.
  std::vector<double> Stop() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : threads_) t.join();
    threads_.clear();
    std::vector<double> all;
    for (auto& v : lat_) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

  DB* db_;
  std::chrono::steady_clock::time_point measure_from_;
  std::atomic<bool> stop_{false};
  std::vector<std::vector<double>> lat_;
  std::vector<std::thread> threads_;
};

struct ModeResult {
  double base_p50 = 0, base_p99 = 0;    ///< read-only, us
  double mixed_p50 = 0, mixed_p99 = 0;  ///< during the write stream, us
  uint64_t batches = 0;                 ///< durable batches applied
  uint64_t commits = 0;                 ///< journal commits they cost
  double write_s = 0;                   ///< wall time of the write stream
};

ModeResult RunMode(const std::string& path, bool group_commit) {
  std::remove(path.c_str());
  std::remove((path + "-journal").c_str());

  DBOptions options;
  options.index.data = DecomposeOptions::SizeBound(4);
  options.cache_pages = 4096;
  options.group_commit = group_commit;
  auto db = DB::Open(path, options).value();

  Random rng(7);
  for (size_t done = 0; done < kPreload; done += kPreloadBatch) {
    WriteBatch batch;
    for (size_t i = 0; i < kPreloadBatch; ++i) {
      batch.Insert(RandomRect(&rng, 0.004));
    }
    if (!db->Apply(batch).ok()) std::exit(1);
  }
  if (!db->Checkpoint().ok()) std::exit(1);

  // Warm the cache before measuring: a full-domain sweep touches every
  // leaf, so the latency samples see the commit path, not cold reads.
  for (int i = 0; i < 3; ++i) {
    if (!db->Window(Rect{0, 0, 1, 1}).ok()) std::exit(1);
  }

  ModeResult out;

  // Read-only baseline.
  ReaderPool readers(db.get());
  readers.Start();
  readers.WaitWarm();
  std::this_thread::sleep_for(kBaselineWindow);
  auto base = readers.Stop();
  out.base_p50 = Percentile(&base, 0.50);
  out.base_p99 = Percentile(&base, 0.99);

  // Sustained durable write stream with the readers back on.
  readers.Start();
  readers.WaitWarm();
  const uint64_t commits_before = db->Stats().journal_commits;
  const auto w0 = std::chrono::steady_clock::now();
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&db, w] {
      Random wrng(200 + w);
      for (size_t b = 0; b < kBatchesPerWriter; ++b) {
        WriteBatch batch;
        for (size_t i = 0; i < kOpsPerBatch; ++i) {
          batch.Insert(RandomRect(&wrng, 0.004));
        }
        if (!db->Apply(batch, Durability::kDurable).ok()) std::exit(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  out.write_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - w0)
                    .count();
  auto mixed = readers.Stop();
  out.mixed_p50 = Percentile(&mixed, 0.50);
  out.mixed_p99 = Percentile(&mixed, 0.99);
  out.batches = kWriters * kBatchesPerWriter;
  out.commits = db->Stats().journal_commits - commits_before;

  db.reset();
  std::remove(path.c_str());
  std::remove((path + "-journal").c_str());
  return out;
}

void Run(const std::string& path) {
  Table table(
      "E15 group-commit pipeline — " + std::to_string(kPreload) +
          " preloaded objects; " + std::to_string(ReaderCount()) + " readers; " +
          std::to_string(kWriters) + " writers x " +
          std::to_string(kBatchesPerWriter) + " durable batches of " +
          std::to_string(kOpsPerBatch) + " (reader latency in us; host cores: " +
          std::to_string(std::thread::hardware_concurrency()) + ")",
      {"mode", "read p50", "read p99", "mixed p50", "mixed p99",
       "p99 ratio", "batches", "commits", "coalesce", "batches/s"});

  for (bool group : {false, true}) {
    const ModeResult r = RunMode(path, group);
    table.AddRow({group ? "group commit" : "groups of one",
                  Fmt(r.base_p50, 0), Fmt(r.base_p99, 0),
                  Fmt(r.mixed_p50, 0), Fmt(r.mixed_p99, 0),
                  Fmt(r.base_p99 > 0 ? r.mixed_p99 / r.base_p99 : 0.0, 2),
                  Fmt(r.batches), Fmt(r.commits),
                  Fmt(r.commits > 0
                          ? static_cast<double>(r.batches) / r.commits
                          : 0.0,
                      1),
                  Fmt(r.write_s > 0 ? r.batches / r.write_s : 0.0, 0)});
  }
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("/tmp/zdb_e15_groupcommit.db");
  zdb::Run(path);
  return 0;
}
