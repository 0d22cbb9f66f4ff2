// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Mixed read/write stress harness: a single writer applies atomic write
// batches (inserts + erases) while parallel readers run window, point
// and kNN queries against the same index. Every concurrent answer is
// cross-checked against a brute-force oracle evaluated at each
// write-batch boundary: because batches publish atomically and a query
// reads one pinned epoch, a query that observed write epochs [e0, e1]
// around its execution must match the oracle at EXACTLY one epoch in
// that range — a partially visible batch (or a partially visible
// z-element set of one object) matches no boundary state and fails the
// check.
//
// The whole workload (data, batches, queries) derives from one root
// seed; failures print the seed and ZDB_STRESS_SEED replays it (see
// workload/seed.h). Designed to run under ThreadSanitizer too; sizes
// are moderate so the instrumented run stays fast. The oracle plumbing
// itself (Workload, the boundary states, the range matchers) is shared
// with the snapshot suite — see tests/oracle_util.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/spatial_index.h"
#include "oracle_util.h"
#include "storage/pager.h"
#include "workload/datagen.h"
#include "workload/querygen.h"
#include "workload/seed.h"

namespace zdb {
namespace {

using oracle::ExpectedWindow;
using oracle::KnnMatchesState;
using oracle::MakeWorkload;
using oracle::MatchesKnnInRange;
using oracle::MatchesPointInRange;
using oracle::MatchesWindowInRange;
using oracle::OracleState;
using oracle::Workload;

constexpr const char* kSeedEnv = "ZDB_STRESS_SEED";
constexpr uint64_t kDefaultSeed = 0xC0FFEE;

// The default WorkloadShape matches this suite's historical sizing; the
// kNN k rides along for the query calls.
constexpr size_t kKnnK = 5;

std::unique_ptr<SpatialIndex> BuildIndex(BufferPool* pool,
                                         const Workload& w) {
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(8);
  auto index = SpatialIndex::Create(pool, opt).value();
  for (size_t i = 0; i < w.initial.size(); ++i) {
    EXPECT_EQ(index->Insert(w.initial[i]).value(),
              static_cast<ObjectId>(i));
  }
  return index;
}

// ---------------------------------------------------------------- tests

// A writer thread applies the batches directly through ApplyBatch while
// reader threads hammer the public window, point and kNN queries; every
// answer is checked against the oracle at the epochs it observed. Also
// the erase-race coverage — batches erase live objects while kNN and
// window queries are mid-flight, and the epoch cross-check rejects any
// answer in which a deleted object was partially visible.
TEST(StressMixed, RawWriterAndReaderThreadsAgreeWithOracle) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 1);
  SCOPED_TRACE(SeedReplayHint(kSeedEnv, seed));
  const Workload w = MakeWorkload(seed);

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 128);  // smaller pool: reader evictions
  auto index = BuildIndex(&pool, w);
  const uint64_t base = index->write_epoch();

  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};

  // Written by the writer only; read after join().
  std::vector<std::vector<ObjectId>> inserted(w.batches.size());
  std::thread writer([&] {
    for (size_t b = 0; b < w.batches.size(); ++b) {
      auto r = index->ApplyBatch(w.batches[b]);
      if (!r.ok()) {
        ++failures;
        break;
      }
      inserted[b] = std::move(r).value();
    }
    writer_done.store(true, std::memory_order_release);
  });

  constexpr size_t kReaders = 4;
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      // Keep looping until the writer finishes, then one final sweep so
      // every reader also validates the terminal state.
      bool last_pass = false;
      size_t iter = 0;
      while (!last_pass) {
        last_pass = writer_done.load(std::memory_order_acquire);
        const size_t wq = (t + iter) % w.windows.size();
        uint64_t e0 = index->write_epoch() - base;
        auto res = index->WindowQuery(w.windows[wq]);
        uint64_t e1 = index->write_epoch() - base;
        if (!res.ok() ||
            !MatchesWindowInRange(w.states, w.windows[wq], res.value(),
                                  e0, e1)) {
          ++failures;
        }
        const size_t pq = (t + iter) % w.points.size();
        e0 = index->write_epoch() - base;
        auto pres = index->PointQuery(w.points[pq]);
        e1 = index->write_epoch() - base;
        if (!pres.ok() ||
            !MatchesPointInRange(w.states, w.points[pq], pres.value(), e0,
                                 e1)) {
          ++failures;
        }
        const size_t kq = (t + iter) % w.knn_points.size();
        e0 = index->write_epoch() - base;
        auto kres = index->NearestNeighbors(w.knn_points[kq], kKnnK);
        e1 = index->write_epoch() - base;
        if (!kres.ok() ||
            !MatchesKnnInRange(w.states, w.knn_points[kq], kKnnK,
                               kres.value(), e0, e1)) {
          ++failures;
        }
        ++iter;
      }
    });
  }

  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  for (size_t b = 0; b < w.batches.size(); ++b) {
    EXPECT_EQ(inserted[b], w.batch_oids[b]) << "batch " << b;
  }
  EXPECT_EQ(index->write_epoch() - base, w.batches.size());

  // After the workload the index must be exactly the final oracle state.
  const OracleState& last = w.states.back();
  EXPECT_EQ(index->object_count(), last.size());
  auto all = index->WindowQuery(Rect{0, 0, 1, 1}).value();
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, ExpectedWindow(last, Rect{0, 0, 1, 1}));
  ASSERT_TRUE(index->btree()->CheckInvariants().ok());
}

// Concurrent writers: the writer mutex serializes competing mutators,
// so racing single-op writers and batch writers never corrupt the tree
// and never expose readers to a partial z-element set.
TEST(StressMixed, CompetingWritersSerializeCleanly) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 2);
  SCOPED_TRACE(SeedReplayHint(kSeedEnv, seed));

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 128);
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);
  auto index = SpatialIndex::Create(&pool, opt).value();

  constexpr size_t kWriters = 3;
  constexpr size_t kPerWriter = 80;
  DataGenOptions dg;
  dg.distribution = Distribution::kUniformSmall;
  dg.seed = seed;
  const auto data = GenerateData(kWriters * kPerWriter, dg);

  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      // Writer 0 uses batches, the others single inserts: both paths
      // contend for the same writer mutex.
      if (t == 0) {
        for (size_t i = 0; i < kPerWriter; i += 8) {
          WriteBatch batch;
          for (size_t j = i; j < i + 8 && j < kPerWriter; ++j) {
            batch.Insert(data[t * kPerWriter + j]);
          }
          if (!index->ApplyBatch(batch).ok()) ++failures;
        }
      } else {
        for (size_t i = 0; i < kPerWriter; ++i) {
          if (!index->Insert(data[t * kPerWriter + i]).ok()) ++failures;
        }
      }
    });
  }
  std::thread reader([&] {
    // Readers ride along; every answer must be internally consistent
    // (no errors, no dead/duplicate oids).
    for (int i = 0; i < 200; ++i) {
      auto r = index->WindowQuery(Rect{0, 0, 1, 1});
      if (!r.ok()) {
        ++failures;
        continue;
      }
      auto ids = r.value();
      std::sort(ids.begin(), ids.end());
      if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
        ++failures;  // duplicate oid: partial/duplicated publication
      }
    }
  });
  for (auto& t : writers) t.join();
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(index->object_count(), kWriters * kPerWriter);
  auto all = index->WindowQuery(Rect{0, 0, 1, 1}).value();
  EXPECT_EQ(all.size(), kWriters * kPerWriter);
  ASSERT_TRUE(index->btree()->CheckInvariants().ok());
}

// The erase-visibility race, isolated: one big "victim" object whose
// decomposition spans many z-elements is erased and re-inserted in a
// tight loop while readers probe small windows strictly inside it and
// run k=1 kNN from its center. A victim with a PARTIALLY visible
// element set would be invisible to probes landing in the missing part
// of its extent while its record is live — an answer that matches no
// epoch. Correct behaviour: at every observed epoch the victim is
// either fully present (every probe finds it, kNN distance 0) or fully
// absent (probes empty, kNN falls through to the far sentinel object).
TEST(StressMixed, ErasedObjectIsFullyPresentOrFullyAbsent) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 128);
  SpatialIndexOptions opt;
  // Fine decomposition: the victim becomes many (element, oid) entries,
  // maximizing the window where a non-atomic writer would expose a
  // partial set.
  opt.data = DecomposeOptions::SizeBound(16);
  auto index = SpatialIndex::Create(&pool, opt).value();

  // One far sentinel (the k=1 answer while the victim is absent), then
  // the victim. Oids: sentinel 0, victim generation g has oid 1 + g.
  const Rect sentinel{0.92, 0.92, 0.95, 0.95};
  const Rect victim{0.3, 0.3, 0.7, 0.7};
  const Point center{0.5, 0.5};
  ASSERT_EQ(index->Insert(sentinel).value(), 0u);
  ASSERT_EQ(index->Insert(victim).value(), 1u);
  const double sentinel_dist = sentinel.DistanceTo(center);

  // Probes scattered over the victim's extent, all strictly inside it
  // and far from the sentinel.
  const std::vector<Rect> probes = {
      {0.31, 0.31, 0.33, 0.33}, {0.67, 0.31, 0.69, 0.33},
      {0.31, 0.67, 0.33, 0.69}, {0.67, 0.67, 0.69, 0.69},
      {0.49, 0.49, 0.51, 0.51}};

  // Epoch -> victim generation. base epoch: victim generation 0 live.
  // Each round is Erase (odd delta: absent) then Insert (even delta:
  // present as generation delta/2).
  const uint64_t base = index->write_epoch();
  auto victim_oid_at = [&](uint64_t epoch) -> int64_t {
    const uint64_t d = epoch - base;
    if (d % 2 != 0) return -1;  // erased
    return static_cast<int64_t>(1 + d / 2);
  };

  constexpr int kRounds = 150;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = t;  // stagger the probe sequence per thread
      while (!done.load(std::memory_order_acquire)) {
        const Rect& probe = probes[i++ % probes.size()];
        const uint64_t e0 = index->write_epoch();
        auto r = index->WindowQuery(probe);
        auto n = index->NearestNeighbors(center, 1);
        const uint64_t e1 = index->write_epoch();
        if (!r.ok() || !n.ok() || n.value().size() != 1) {
          ++failures;
          break;
        }
        bool window_ok = false, knn_ok = false;
        for (uint64_t e = e0; e <= e1; ++e) {
          const int64_t oid = victim_oid_at(e);
          const std::vector<ObjectId> expect =
              oid < 0 ? std::vector<ObjectId>{}
                      : std::vector<ObjectId>{static_cast<ObjectId>(oid)};
          if (r.value() == expect) window_ok = true;
          const auto& [got_oid, got_dist] = n.value()[0];
          if (oid >= 0 && got_oid == static_cast<ObjectId>(oid) &&
              got_dist == 0.0) {
            knn_ok = true;
          }
          if (oid < 0 && got_oid == 0 &&
              std::abs(got_dist - sentinel_dist) < 1e-12) {
            knn_ok = true;
          }
        }
        if (!window_ok || !knn_ok) ++failures;
      }
    });
  }

  ObjectId cur = 1;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(index->Erase(cur).ok());
    cur = index->Insert(victim).value();
    ASSERT_EQ(cur, static_cast<ObjectId>(2 + round));
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(index->object_count(), 2u);
  EXPECT_EQ(index->write_epoch() - base, 2u * kRounds);
  ASSERT_TRUE(index->btree()->CheckInvariants().ok());
}

}  // namespace
}  // namespace zdb
