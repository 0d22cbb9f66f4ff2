// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E16: sharded engine partitions. The claim under test: splitting the
// z-order keyspace across N independent shard engines behind zdb::DB
// scales the two operations that bottleneck a single engine —
//
//   * durable ApplyBatch throughput: each shard runs its own journal
//     and group-commit pipeline, so concurrent writers whose batches
//     route to different shards overlap their fsyncs instead of
//     queueing on one durability thread (real files, genuine fsyncs —
//     on a single-core host the fsync overlap IS the mechanism, and it
//     still shows);
//
//   * window-query throughput under concurrency: queries scatter only
//     to the shards their window overlaps, so small windows on
//     different shards traverse disjoint B+-trees with disjoint
//     writer locks/epoch domains and stop contending with each other.
//
// Each writer ingests into its own quadrant of the world — the spatial
// locality real ingest streams have, and the case sharding is for: a
// quadrant maps onto a disjoint set of z-prefixes, so at N >= 4 each
// writer's batches land on their own shard pipeline(s) instead of
// fanning out to all of them.
//
// Everything runs through the zdb::DB facade. As a correctness gate the
// bench fingerprints a fixed query set at every N and requires result
// counts identical to the N=1 run (the inserted rect set is
// deterministic even though concurrent writers make the oid order not,
// so a dedup bug inflates a count and a routing bug deflates one —
// either fails the bench rather than flattering it; byte-identical oids
// under deterministic applies are proven in tests/shard_test.cc).

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
#include "shard/manifest.h"
#include "zdb/db.h"

namespace zdb {
namespace {

constexpr size_t kWriters = 4;
constexpr size_t kBatchesPerWriter = 32;
constexpr size_t kOpsPerBatch = 16;
constexpr size_t kReaders = 4;
constexpr size_t kCheckWindows = 64;
constexpr double kWindowSide = 0.03;
constexpr auto kQueryWindow = std::chrono::milliseconds(400);

Rect RandomRect(Random* rng, double side) {
  const double x = rng->UniformDouble(0.0, 0.9);
  const double y = rng->UniformDouble(0.0, 0.9);
  return Rect{x, y, x + side, y + side};
}

/// A small rect inside writer `w`'s quadrant of the unit square.
Rect QuadrantRect(Random* rng, size_t w, double side) {
  const double x0 = (w & 1) ? 0.5 : 0.0;
  const double y0 = (w & 2) ? 0.5 : 0.0;
  const double x = x0 + rng->UniformDouble(0.0, 0.45);
  const double y = y0 + rng->UniformDouble(0.0, 0.45);
  return Rect{x, y, x + side, y + side};
}

void RemoveDbFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + "-journal").c_str());
  for (uint32_t s = 0; s < shard::kMaxShards; ++s) {
    const std::string sp = shard::ShardFilePath(path, s);
    std::remove(sp.c_str());
    std::remove((sp + "-journal").c_str());
  }
}

struct ShardResult {
  uint32_t shards = 1;
  double load_s = 0;        ///< wall time of the durable write stream
  uint64_t commits = 0;     ///< journal commits across all shards
  double queries_s = 0;     ///< concurrent window queries per second
  uint64_t fingerprint = 0; ///< fixed query set, FNV over (window, oid)
};

ShardResult RunShards(const std::string& path, uint32_t shards) {
  RemoveDbFiles(path);

  DBOptions options;
  options.index.data = DecomposeOptions::SizeBound(4);
  options.cache_pages = 4096;
  options.shards = shards;
  auto db = DB::Open(path, options).value();

  ShardResult out;
  out.shards = shards;

  // Durable write stream: kWriters threads, each applying kDurable
  // batches confined to its own quadrant, so the batches route to
  // disjoint shards (at N >= 4) and the per-shard pipelines coalesce
  // and fsync in parallel; each ack waits only on its own shard(s).
  const auto w0 = std::chrono::steady_clock::now();
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&db, w] {
      Random rng(300 + w);
      for (size_t b = 0; b < kBatchesPerWriter; ++b) {
        WriteBatch batch;
        for (size_t i = 0; i < kOpsPerBatch; ++i) {
          batch.Insert(QuadrantRect(&rng, w, 0.004));
        }
        if (!db->Apply(batch, Durability::kDurable).ok()) std::exit(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  out.load_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - w0)
                   .count();
  out.commits = db->Stats().journal_commits;

  // Warm every shard's cache so the query phase measures traversal and
  // snapshot reads, not cold page reads.
  for (int i = 0; i < 3; ++i) {
    if (!db->Window(Rect{0, 0, 1, 1}).ok()) std::exit(1);
  }

  // Concurrent small-window throughput for a fixed wall-clock budget.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&db, &stop, &queries, t] {
      Random rng(400 + t);
      uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (!db->Window(RandomRect(&rng, kWindowSide)).ok()) std::exit(1);
        ++n;
      }
      queries.fetch_add(n, std::memory_order_relaxed);
    });
  }
  const auto q0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(kQueryWindow);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  const double qs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - q0)
                        .count();
  out.queries_s = queries.load() / qs;

  // Correctness fingerprint: a fixed window set, FNV-1a over the
  // (window index, result count) pairs. The inserted rect set is
  // deterministic, so the counts must match N=1 exactly: a gather-dedup
  // bug inflates one, a routing miss deflates one.
  Random qrng(55);
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (size_t q = 0; q < kCheckWindows; ++q) {
    const Rect w = RandomRect(&qrng, 0.08);
    auto r = db->Window(w);
    if (!r.ok()) std::exit(1);
    mix(q);
    mix(r.value().size());
  }
  out.fingerprint = h;

  db.reset();
  RemoveDbFiles(path);
  return out;
}

void Run(const std::string& path) {
  Table table(
      "E16 sharded partitions — " + std::to_string(kWriters) + " writers x " +
          std::to_string(kBatchesPerWriter) + " durable batches of " +
          std::to_string(kOpsPerBatch) + "; " + std::to_string(kReaders) +
          " readers, " + std::to_string(kWindowSide) +
          "-side windows (host cores: " +
          std::to_string(std::thread::hardware_concurrency()) + ")",
      {"shards", "load s", "batches/s", "speedup", "commits", "queries/s",
       "speedup", "identical"});

  std::vector<ShardResult> results;
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    results.push_back(RunShards(path, n));
  }
  const ShardResult& base = results.front();
  const double base_bps =
      base.load_s > 0 ? kWriters * kBatchesPerWriter / base.load_s : 0.0;
  bool all_identical = true;
  for (const ShardResult& r : results) {
    const double bps =
        r.load_s > 0 ? kWriters * kBatchesPerWriter / r.load_s : 0.0;
    const bool identical = r.fingerprint == base.fingerprint;
    all_identical = all_identical && identical;
    table.AddRow({Fmt(uint64_t{r.shards}), Fmt(r.load_s, 2), Fmt(bps, 0),
                  Fmt(base_bps > 0 ? bps / base_bps : 0.0, 2),
                  Fmt(r.commits), Fmt(r.queries_s, 0),
                  Fmt(base.queries_s > 0 ? r.queries_s / base.queries_s : 0.0,
                      2),
                  identical ? "yes" : "NO"});
  }
  table.Print();
  if (!all_identical) {
    std::fprintf(stderr,
                 "E16: sharded query fingerprints diverge from N=1 — "
                 "scatter-gather results are NOT byte-identical\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("/tmp/zdb_e16_shard.db");
  zdb::Run(path);
  return 0;
}
