// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Snapshot-isolation oracle suite for epoch-pinned reads (the lock-free
// read path of spatial_index.h). The properties under test:
//
//   * repeatability — a query re-run at the same EpochPin returns the
//     byte-identical answer no matter how much writer churn happened in
//     between;
//   * oracle agreement — the answer at a pin taken after k batches is
//     exactly the brute-force oracle state k (tests/oracle_util.h), not
//     merely *some* boundary state;
//   * writer progress — a parked long-lived pin never blocks writers;
//   * reclamation — version chains and metas retained for a pin are
//     reclaimed once the minimum pinned epoch passes (EpochManager GC);
//   * misuse aborts — EpochPin double release, cross-thread release and
//     a pin outliving its manager die loudly instead of corrupting the
//     pin accounting;
//   * plan-hook integrity — the NO_THREAD_SAFETY_ANALYSIS plan hooks,
//     run under one shared pin from several threads, each in its own
//     snapshot scope, cannot observe a torn epoch.
//
// Deterministic workloads derive from ZDB_STRESS_SEED like the
// stress_mixed suite; thread tests are sized to stay fast under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/mutex.h"
#include "common/random.h"
#include "core/epoch.h"
#include "core/spatial_index.h"
#include "oracle_util.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/snapshot.h"
#include "workload/datagen.h"
#include "workload/seed.h"
#include "zdb/db.h"

namespace zdb {
namespace {

using oracle::ExpectedPoint;
using oracle::ExpectedWindow;
using oracle::KnnMatchesState;
using oracle::MakeWorkload;
using oracle::MatchesWindowInRange;
using oracle::OracleState;
using oracle::Workload;
using oracle::WorkloadShape;

constexpr const char* kSeedEnv = "ZDB_STRESS_SEED";
constexpr uint64_t kDefaultSeed = 0x5EED5;
constexpr size_t kKnnK = 4;

/// Smaller than the stress_mixed default: every pinned reader replays
/// the full query set against its boundary state many times.
WorkloadShape SnapshotShape() {
  WorkloadShape s;
  s.initial_objects = 200;
  s.batches = 8;
  s.inserts_per_batch = 16;
  s.erases_per_batch = 12;
  s.window_queries = 10;
  s.point_queries = 8;
  s.knn_queries = 4;
  s.knn_k = kKnnK;
  return s;
}

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

/// Runs the workload's full query set at `pin` and checks every answer
/// against the oracle state for the pinned boundary. Returns false (and
/// records gtest failures) on any mismatch.
bool CheckPinAgainstState(SpatialIndex* index, const EpochPin& pin,
                          const Workload& w, const OracleState& st) {
  bool ok = true;
  for (const Rect& win : w.windows) {
    auto r = index->WindowQueryAt(pin, win);
    if (!r.ok() || r.value() != ExpectedWindow(st, win)) ok = false;
  }
  for (const Point& p : w.points) {
    auto r = index->PointQueryAt(pin, p);
    if (!r.ok() || r.value() != ExpectedPoint(st, p)) ok = false;
  }
  for (const Point& p : w.knn_points) {
    auto r = index->NearestNeighborsAt(pin, p, kKnnK);
    if (!r.ok() || !KnnMatchesState(st, p, kKnnK, r.value())) ok = false;
  }
  return ok;
}

// ------------------------------------------------------- oracle checks

// Single-threaded determinism: pin every batch boundary, apply all the
// batches, then verify each pin still answers exactly its boundary's
// brute-force state — including the containment/enclosure variants —
// and that re-reads are byte-identical.
TEST(Snapshot, EveryPinnedBoundaryMatchesBruteForceOracle) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed);
  SCOPED_TRACE(SeedReplayHint(kSeedEnv, seed));
  const Workload w = MakeWorkload(seed, SnapshotShape());

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 128);  // small pool: forces CoW saves
  auto index = BuildIndex(&pool, w);
  const uint64_t base = index->write_epoch();

  // Pin boundary k, then apply batch k to step to boundary k+1.
  std::vector<EpochPin> pins;
  pins.push_back(index->PinEpoch());
  for (const WriteBatch& batch : w.batches) {
    ASSERT_TRUE(index->ApplyBatch(batch).ok());
    pins.push_back(index->PinEpoch());
  }
  ASSERT_EQ(pins.size(), w.states.size());

  for (size_t k = 0; k < pins.size(); ++k) {
    ASSERT_EQ(pins[k].epoch() - base, k);
    EXPECT_TRUE(CheckPinAgainstState(index.get(), pins[k], w, w.states[k]))
        << "boundary " << k;
    // Byte-identical re-read, plus the window-shaped variants.
    for (const Rect& win : w.windows) {
      const auto first = index->WindowQueryAt(pins[k], win).value();
      EXPECT_EQ(index->WindowQueryAt(pins[k], win).value(), first);
      auto contain = index->ContainmentQueryAt(pins[k], win).value();
      auto enclose = index->EnclosureQueryAt(pins[k], win).value();
      // Containment answers are a subset of intersection answers; both
      // must be stable across re-reads too.
      EXPECT_TRUE(std::includes(first.begin(), first.end(),
                                contain.begin(), contain.end()));
      EXPECT_EQ(index->ContainmentQueryAt(pins[k], win).value(), contain);
      EXPECT_EQ(index->EnclosureQueryAt(pins[k], win).value(), enclose);
    }
  }

  // The live (unpinned) path must answer the final state.
  auto all = index->WindowQuery(Rect{0, 0, 1, 1}).value();
  EXPECT_EQ(all, ExpectedWindow(w.states.back(), Rect{0, 0, 1, 1}));
  ASSERT_TRUE(index->btree()->CheckInvariants().ok());
}

// The auto-pin wrappers (public queries with snapshots enabled) must
// still satisfy the epoch-bracket oracle check the latched path did:
// each answer equals the oracle at exactly one committed boundary.
TEST(SnapshotStress, AutoPinnedQueriesMatchOracleUnderChurn) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 1);
  SCOPED_TRACE(SeedReplayHint(kSeedEnv, seed));
  const Workload w = MakeWorkload(seed, SnapshotShape());

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 128);
  auto index = BuildIndex(&pool, w);
  const uint64_t base = index->write_epoch();

  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (const WriteBatch& batch : w.batches) {
      const auto applied = index->ApplyBatch(batch);
      if (!applied.ok()) {
        ADD_FAILURE() << "writer: ApplyBatch failed: "
                      << applied.status().ToString();
        ++failures;
        break;
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  constexpr size_t kReaders = 4;
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      bool last_pass = false;
      size_t iter = 0;
      while (!last_pass) {
        last_pass = writer_done.load(std::memory_order_acquire);
        const size_t wq = (t + iter) % w.windows.size();
        const uint64_t e0 = index->write_epoch() - base;
        auto res = index->WindowQuery(w.windows[wq]);
        const uint64_t e1 = index->write_epoch() - base;
        if (!res.ok() ||
            !MatchesWindowInRange(w.states, w.windows[wq], res.value(),
                                  e0, e1)) {
          ++failures;
        }
        ++iter;
      }
    });
  }

  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(index->write_epoch() - base, w.batches.size());
  ASSERT_TRUE(index->btree()->CheckInvariants().ok());
}

// Concurrent pinned readers under live writer churn: each reader pins
// whatever boundary is current, computes its first answers, then
// re-reads the same queries in a loop — every re-read must be
// byte-identical to the first AND equal to the oracle at the pinned
// boundary, regardless of what the writer does meanwhile.
TEST(SnapshotStress, PinnedReadersRereadIdenticallyUnderWriterChurn) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 2);
  SCOPED_TRACE(SeedReplayHint(kSeedEnv, seed));
  const Workload w = MakeWorkload(seed, SnapshotShape());

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 64);  // tiny pool: constant eviction
  auto index = BuildIndex(&pool, w);
  const uint64_t base = index->write_epoch();

  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};

  constexpr size_t kReaders = 4;
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t pins_checked = 0;
      while (!writer_done.load(std::memory_order_acquire) ||
             pins_checked == 0) {
        const EpochPin pin = index->PinEpoch();
        const uint64_t k = pin.epoch() - base;
        if (k >= w.states.size()) {
          ++failures;  // pinned an epoch no batch ever published
          break;
        }
        const OracleState& st = w.states[k];
        // First read of a rotating query subset...
        const Rect& win = w.windows[(t + pins_checked) % w.windows.size()];
        const Point& pt = w.points[(t + pins_checked) % w.points.size()];
        const Point& kp =
            w.knn_points[(t + pins_checked) % w.knn_points.size()];
        auto w0 = index->WindowQueryAt(pin, win);
        auto p0 = index->PointQueryAt(pin, pt);
        auto n0 = index->NearestNeighborsAt(pin, kp, kKnnK);
        if (!w0.ok() || !p0.ok() || !n0.ok() ||
            w0.value() != ExpectedWindow(st, win) ||
            p0.value() != ExpectedPoint(st, pt) ||
            !KnnMatchesState(st, kp, kKnnK, n0.value())) {
          ++failures;
        }
        // ...then re-reads at the same pin: byte-identical every time.
        for (int rep = 0; rep < 3; ++rep) {
          auto w1 = index->WindowQueryAt(pin, win);
          auto p1 = index->PointQueryAt(pin, pt);
          auto n1 = index->NearestNeighborsAt(pin, kp, kKnnK);
          if (!w1.ok() || w1.value() != w0.value() || !p1.ok() ||
              p1.value() != p0.value() || !n1.ok() ||
              n1.value() != n0.value()) {
            ++failures;
          }
        }
        ++pins_checked;
      }
      EXPECT_GT(pins_checked, 0u);
    });
  }

  std::thread writer([&] {
    for (const WriteBatch& batch : w.batches) {
      const auto applied = index->ApplyBatch(batch);
      if (!applied.ok()) {
        ADD_FAILURE() << "writer: ApplyBatch failed: "
                      << applied.status().ToString();
        ++failures;
        break;
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(index->btree()->CheckInvariants().ok());
}

// A parked long-lived pin must not block writers: the whole batch
// sequence completes while the pin is held (a latched long scan would
// have held the writers off for its duration), and the
// parked pin still answers its original boundary afterwards.
TEST(SnapshotStress, ParkedPinNeverBlocksWriterProgress) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 3);
  SCOPED_TRACE(SeedReplayHint(kSeedEnv, seed));
  const Workload w = MakeWorkload(seed, SnapshotShape());

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 128);
  auto index = BuildIndex(&pool, w);
  const uint64_t base = index->write_epoch();

  // Park the pin and take its baseline answers.
  const EpochPin pin = index->PinEpoch();
  ASSERT_EQ(pin.epoch(), base);
  std::vector<std::vector<ObjectId>> before;
  for (const Rect& win : w.windows) {
    before.push_back(index->WindowQueryAt(pin, win).value());
  }

  // Writer runs to completion with the pin parked. A deadlock here is a
  // regression and fails via the suite's ctest timeout.
  std::thread writer([&] {
    for (const WriteBatch& batch : w.batches) {
      ASSERT_TRUE(index->ApplyBatch(batch).ok());
    }
  });
  writer.join();
  EXPECT_EQ(index->write_epoch() - base, w.batches.size());

  // The parked pin is unmoved by all that churn.
  for (size_t q = 0; q < w.windows.size(); ++q) {
    EXPECT_EQ(index->WindowQueryAt(pin, w.windows[q]).value(), before[q])
        << "window " << q;
  }
  EXPECT_TRUE(CheckPinAgainstState(index.get(), pin, w, w.states[0]));
  // And the live path sees the final state, not the pinned one.
  auto all = index->WindowQuery(Rect{0, 0, 1, 1}).value();
  EXPECT_EQ(all, ExpectedWindow(w.states.back(), Rect{0, 0, 1, 1}));
}

// Regression for writer batches failing with "deleting a pinned page":
// a snapshot fetch used to pin the live frame for a moment, and
// BufferPool::Delete (a B+-tree node free) refuses a pinned frame. A
// snapshot fetch now shares the frame's buffer and pins nothing. Here
// readers fetch a small page set at the latest published epoch while
// the armed writer, once per simulated batch, deletes every page and
// reallocates it (the pager's free list hands the same id back),
// stamping the batch's epoch into it. Every Delete must succeed, and
// every read must see the stamp of the reader's own epoch.
TEST(SnapshotStress, SnapshotFetchNeverBlocksDelete) {
  constexpr size_t kPages = 8;
  constexpr uint64_t kBatches = 300;
  constexpr size_t kReaders = 4;

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 64);  // holds the whole set: no eviction
  uint64_t epoch = 1;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    PageRef ref = pool.New().value();
    EncodeFixed64(ref.mutable_data(), epoch);
    ids.push_back(ref.id());
  }

  std::atomic<uint64_t> published{epoch};
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!writer_done.load(std::memory_order_acquire)) {
        SnapshotView view;
        view.epoch = published.load(std::memory_order_acquire);
        view.versions = pool.versions();
        view.pool = &pool;
        SnapshotScope scope(view);
        for (size_t i = 0; i < kPages; ++i) {
          auto ref = pool.Fetch(ids[(t + i) % kPages]);
          if (!ref.ok() ||
              DecodeFixed64(ref.value().data()) != view.epoch) {
            ++failures;
          }
        }
      }
    });
  }

  std::thread writer([&] {
    for (uint64_t b = 0; b < kBatches; ++b) {
      const uint64_t next = epoch + 1;
      pool.ArmVersioning(next);
      for (PageId id : ids) {
        const Status st = pool.Delete(id);
        if (!st.ok()) {
          ADD_FAILURE() << "Delete(" << id << ") in batch " << b
                        << " failed: " << st.ToString();
          ++failures;
          return;
        }
        auto ref = pool.New();
        if (!ref.ok() || ref.value().id() != id) {
          ADD_FAILURE() << "New() after Delete(" << id << ") in batch " << b
                        << " did not reuse the id";
          ++failures;
          return;
        }
        EncodeFixed64(ref.value().mutable_data(), next);
      }
      epoch = next;
      published.store(next, std::memory_order_release);
    }
  });

  writer.join();
  writer_done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(epoch, 1 + kBatches);
}

// --------------------------------------------------------- reclamation

// Version chains retained for a parked pin are reclaimed once the pin
// is released and the floor passes: live count and bytes drop, the
// reclaimed counter rises, and a fresh pin at the current epoch still
// works (it needs no chains at all).
TEST(SnapshotGc, ReleasedPinAllowsVersionReclamation) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 4);
  const Workload w = MakeWorkload(seed, SnapshotShape());

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 64);
  auto index = BuildIndex(&pool, w);

  EpochPin parked = index->PinEpoch();
  for (const WriteBatch& batch : w.batches) {
    ASSERT_TRUE(index->ApplyBatch(batch).ok());
  }

  // The parked pin holds the floor: a GC cycle reclaims nothing below
  // it no matter how often it runs.
  index->epochs()->RunGcCycle();
  const PageVersionStats held = index->version_stats();
  EXPECT_GT(held.live, 0u);
  EXPECT_GT(held.bytes, 0u);
  EXPECT_GT(held.saved, 0u);
  // Still readable right up to the release.
  EXPECT_TRUE(CheckPinAgainstState(index.get(), parked, w, w.states[0]));

  parked.Release();
  index->epochs()->RunGcCycle();
  const PageVersionStats after = index->version_stats();
  EXPECT_EQ(after.live, 0u) << "no pin left, every chain reclaimable";
  EXPECT_EQ(after.bytes, 0u);
  EXPECT_GT(after.reclaimed, 0u);
  EXPECT_EQ(after.saved, held.saved);  // reclamation saves nothing new

  // Fresh pins at the current epoch read the live frames directly.
  const EpochPin now = index->PinEpoch();
  EXPECT_TRUE(CheckPinAgainstState(index.get(), now, w, w.states.back()));
}

// The floor is min over ALL pins: releasing a newer pin while an older
// one is parked must keep every chain the older pin can still resolve —
// also when the released pin sits between two held ones on the same
// thread, so the thread's announced epoch must fall back to the oldest.
TEST(SnapshotGc, FloorIsMinimumAcrossPins) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 5);
  const Workload w = MakeWorkload(seed, SnapshotShape());

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 64);
  auto index = BuildIndex(&pool, w);
  const uint64_t base = index->write_epoch();

  EpochPin old_pin = index->PinEpoch();
  const size_t half = w.batches.size() / 2;
  for (size_t b = 0; b < half; ++b) {
    ASSERT_TRUE(index->ApplyBatch(w.batches[b]).ok());
  }
  EpochPin mid_pin = index->PinEpoch();
  ASSERT_EQ(mid_pin.epoch() - base, half);
  for (size_t b = half; b < w.batches.size(); ++b) {
    ASSERT_TRUE(index->ApplyBatch(w.batches[b]).ok());
  }
  EpochPin new_pin = index->PinEpoch();

  const EpochStats es = index->epoch_stats();
  EXPECT_EQ(es.pinned, 3u);
  EXPECT_EQ(es.min_pinned, base);
  EXPECT_GE(es.pins_taken, 3u);

  // Dropping the NEWER pin must not free what the older pin needs.
  mid_pin.Release();
  index->epochs()->RunGcCycle();
  EXPECT_LE(index->epoch_stats().gc_floor, old_pin.epoch());
  EXPECT_TRUE(CheckPinAgainstState(index.get(), old_pin, w, w.states[0]));

  old_pin.Release();
  new_pin.Release();
  index->epochs()->RunGcCycle();
  EXPECT_EQ(index->version_stats().live, 0u);
}

// The background GC thread (started by SpatialIndex::Create) reclaims on its
// own once the pins go away — no manual cycle required.
TEST(SnapshotGc, BackgroundThreadReclaimsAfterRelease) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 6);
  const Workload w = MakeWorkload(seed, SnapshotShape());

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 64);
  auto index = BuildIndex(&pool, w);

  {
    const EpochPin pin = index->PinEpoch();
    for (const WriteBatch& batch : w.batches) {
      ASSERT_TRUE(index->ApplyBatch(batch).ok());
    }
    EXPECT_GT(index->version_stats().live, 0u);
  }  // pin released here

  // The GC loop wakes at least every 10ms; give it a generous bound.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (index->version_stats().live != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(index->version_stats().live, 0u);
  EXPECT_GT(index->epoch_stats().gc_cycles, 0u);
}

// ------------------------------------------------------ misuse aborts

TEST(SnapshotDeathTest, DoubleReleaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 64);
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);
  auto index = SpatialIndex::Create(&pool, opt).value();
  ASSERT_TRUE(index->Insert(Rect{0.1, 0.1, 0.2, 0.2}).ok());

  EXPECT_DEATH(
      {
        EpochPin pin = index->PinEpoch();
        pin.Release();
        pin.Release();  // second release must abort
      },
      "released twice");
}

TEST(SnapshotDeathTest, CrossThreadReleaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 64);
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);
  auto index = SpatialIndex::Create(&pool, opt).value();
  ASSERT_TRUE(index->Insert(Rect{0.1, 0.1, 0.2, 0.2}).ok());

  EXPECT_DEATH(
      {
        EpochPin pin = index->PinEpoch();
        // Reading the pin from another thread is allowed (threads that
        // each open a scope under one pin share it); releasing is not.
        std::thread other([&] {
          (void)pin.epoch();
          pin.Release();  // wrong thread: must abort
        });
        other.join();
      },
      "other than the pinning");
}

TEST(SnapshotDeathTest, PinOutlivingItsIndexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto pager = Pager::OpenInMemory(512);
        BufferPool pool(pager.get(), 64);
        SpatialIndexOptions opt;
        opt.data = DecomposeOptions::SizeBound(4);
        auto index = SpatialIndex::Create(&pool, opt).value();
        (void)index->Insert(Rect{0.1, 0.1, 0.2, 0.2});
        EpochPin pin = index->PinEpoch();
        index.reset();  // destroys the EpochManager under a live pin
      },
      "outlives");
}

// ------------------------------------------------------------ plan hooks

/// One window through the plan hooks, split across `threads` threads
/// under the one `pin`: the plan is built on the calling thread, then
/// each thread opens its own snapshot scope and executes one slice of
/// the plan's work items, then (in fresh threads and scopes) refines one
/// chunk of the merged candidates. Returns the sorted answer.
Result<std::vector<ObjectId>> SplitWindowQuery(SpatialIndex* index,
                                               const EpochPin& pin,
                                               const Rect& win,
                                               size_t threads) {
  WindowPlan plan;
  {
    std::unique_ptr<SpatialIndex::SnapshotReadScope> scope;
    ZDB_ASSIGN_OR_RETURN(scope, index->OpenSnapshot(pin));
    ZDB_ASSIGN_OR_RETURN(plan, index->PlanWindow(win));
  }
  // Runs fn(i) for every i < threads, each on its own thread inside its
  // own scope, and returns the first error.
  auto on_threads = [&](const std::function<Status(size_t)>& fn) {
    std::vector<Status> status(threads);
    std::vector<std::thread> pool;
    for (size_t i = 0; i < threads; ++i) {
      pool.emplace_back([&, i] {
        auto scope = index->OpenSnapshot(pin);
        status[i] = scope.ok() ? fn(i) : scope.status();
      });
    }
    for (auto& t : pool) t.join();
    for (const Status& st : status) {
      if (!st.ok()) return st;
    }
    return Status::OK();
  };

  const size_t items = plan.work_items();
  std::vector<std::vector<ObjectId>> parts(threads);
  std::vector<QueryStats> stats(threads);
  ZDB_RETURN_IF_ERROR(on_threads([&](size_t i) -> Status {
    ZDB_ASSIGN_OR_RETURN(
        parts[i], index->ExecuteWindowPlanSlice(plan, items * i / threads,
                                                items * (i + 1) / threads,
                                                &stats[i]));
    return Status::OK();
  }));
  std::vector<ObjectId> cands;
  for (const auto& part : parts) {
    cands.insert(cands.end(), part.begin(), part.end());
  }
  std::sort(cands.begin(), cands.end());
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());

  // Refinement keeps candidate order, so the chunks of a sorted list
  // concatenate to a sorted answer.
  const size_t n = cands.size();
  std::vector<std::vector<ObjectId>> refined(threads);
  ZDB_RETURN_IF_ERROR(on_threads([&](size_t i) -> Status {
    std::vector<ObjectId> chunk(cands.begin() + n * i / threads,
                                cands.begin() + n * (i + 1) / threads);
    ZDB_ASSIGN_OR_RETURN(refined[i], index->RefineWindowCandidates(
                                         win, std::move(chunk), &stats[i]));
    return Status::OK();
  }));
  std::vector<ObjectId> out;
  for (const auto& chunk : refined) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

// The plan hooks (PlanWindow / ExecuteWindowPlanSlice /
// RefineWindowCandidates) run on several threads under ONE pin, each
// thread in its own snapshot scope. If any hook observed a torn epoch —
// plan at boundary k, a slice or refinement at k+1 — the merged answer
// would match no single oracle state and fail the bracket check.
TEST(SnapshotStress, PlanHooksCannotObserveTornEpoch) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 7);
  SCOPED_TRACE(SeedReplayHint(kSeedEnv, seed));
  const Workload w = MakeWorkload(seed, SnapshotShape());
  constexpr size_t kHookThreads = 4;

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 128);
  auto index = BuildIndex(&pool, w);
  const uint64_t base = index->write_epoch();

  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (const WriteBatch& batch : w.batches) {
      const auto applied = index->ApplyBatch(batch);
      if (!applied.ok()) {
        ADD_FAILURE() << "writer: ApplyBatch failed: "
                      << applied.status().ToString();
        ++failures;
        break;
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Split big windows across the hook threads concurrently with the
  // writer.
  bool last_pass = false;
  size_t iter = 0;
  while (!last_pass) {
    last_pass = writer_done.load(std::memory_order_acquire);
    const Rect& win = w.windows[w.windows.size() - 1 - (iter % 4)];
    const uint64_t e0 = index->write_epoch() - base;
    Result<std::vector<ObjectId>> r = std::vector<ObjectId>{};
    {
      const EpochPin pin = index->PinEpoch();
      r = SplitWindowQuery(index.get(), pin, win, kHookThreads);
    }
    const uint64_t e1 = index->write_epoch() - base;
    if (!r.ok() ||
        !MatchesWindowInRange(w.states, win, r.value(), e0, e1)) {
      ++failures;
    }
    ++iter;
  }

  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(iter, 0u);

  // Quiesced: the split answer now equals the oracle's final state
  // exactly.
  for (const Rect& win : w.windows) {
    const EpochPin pin = index->PinEpoch();
    EXPECT_EQ(SplitWindowQuery(index.get(), pin, win, kHookThreads).value(),
              ExpectedWindow(w.states.back(), win));
  }
}

// ------------------------------------------------------------ DB facade

TEST(Snapshot, DbEnablesSnapshotsByDefaultAndReportsStats) {
  auto db = DB::Open("", {}).value();

  ASSERT_TRUE(db->Insert(Rect{0.1, 0.1, 0.2, 0.2}).ok());
  ASSERT_TRUE(db->Insert(Rect{0.4, 0.4, 0.6, 0.6}).ok());
  auto hits = db->Window(Rect{0.0, 0.0, 1.0, 1.0}).value();
  EXPECT_EQ(hits.size(), 2u);

  const DBStats s = db->Stats();
  EXPECT_GT(s.pins_taken, 0u) << "the Window query must have auto-pinned";
  EXPECT_EQ(s.pinned_epochs, 0u) << "auto-pins are released per query";
  EXPECT_GT(s.versions_saved, 0u)
      << "the second insert mutates pages the first one wrote";
}

// Snapshots compose with the group-commit pipeline: a journaled DB runs
// both; pinned reads stay stable across durable batch boundaries.
TEST(Snapshot, PinnedReadsStableAcrossGroupCommitBoundaries) {
  DBOptions opt;
  opt.memory_journal = true;
  auto db = DB::Open("", opt).value();
  ASSERT_TRUE(db->index()->group_commit_active());

  WriteBatch first;
  for (int i = 0; i < 16; ++i) {
    first.Insert(Rect{0.05 * i, 0.05 * i, 0.05 * i + 0.02,
                      0.05 * i + 0.02});
  }
  ASSERT_TRUE(db->Apply(first).ok());

  const EpochPin pin = db->index()->PinEpoch();
  const auto before =
      db->index()->WindowQueryAt(pin, Rect{0, 0, 1, 1}).value();
  EXPECT_EQ(before.size(), 16u);

  WriteBatch second;
  second.Erase(before[0]);
  second.Insert(Rect{0.9, 0.9, 0.95, 0.95});
  ASSERT_TRUE(db->Apply(second, Durability::kDurable).ok());

  // Pinned view: unchanged. Live view: one erase, one insert.
  EXPECT_EQ(db->index()->WindowQueryAt(pin, Rect{0, 0, 1, 1}).value(),
            before);
  EXPECT_EQ(db->Window(Rect{0, 0, 1, 1}).value().size(), 16u);
}

// ------------------------------------------- pin slots and hit counts

// Unpinning wakes nobody: the GC's 10 ms timer alone reclaims. Many
// pin/unpin pairs therefore add no GC cycles beyond the timer's, yet a
// released pin's versions still go within a bounded time.
TEST(SnapshotGc, ReclaimsOnTimerWithoutUnpinWakeups) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 8);
  const Workload w = MakeWorkload(seed, SnapshotShape());

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 64);
  auto index = BuildIndex(&pool, w);

  // With no other pin held, each of these unpins raises the minimum
  // pinned epoch (to "none"): a design that wakes the GC whenever the
  // minimum moves would run about one cycle per pair.
  const uint64_t cycles0 = index->epoch_stats().gc_cycles;
  const auto t0 = std::chrono::steady_clock::now();
  constexpr int kPairs = 200000;
  std::thread churn([&] {
    for (int i = 0; i < kPairs; ++i) {
      const EpochPin pin = index->PinEpoch();
      (void)pin.epoch();
    }
  });
  churn.join();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  const uint64_t cycles = index->epoch_stats().gc_cycles - cycles0;
  // One timer cycle per 10 ms, doubled, plus slack for scheduling.
  EXPECT_LE(cycles, static_cast<uint64_t>(elapsed_ms / 10.0) * 2 + 5)
      << kPairs << " pin/unpin pairs in " << elapsed_ms << " ms";

  // Versions kept for a parked pin go within a bounded time of its
  // release, with nothing but the timer to trigger the GC.
  EpochPin parked = index->PinEpoch();
  for (const WriteBatch& batch : w.batches) {
    ASSERT_TRUE(index->ApplyBatch(batch).ok());
  }
  ASSERT_GT(index->version_stats().live, 0u);
  parked.Release();
  const auto released = std::chrono::steady_clock::now();
  while (index->version_stats().live != 0 &&
         std::chrono::steady_clock::now() - released <
             std::chrono::seconds(2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(index->version_stats().live, 0u);
}

// Many threads take nested pins and release them out of order while a
// writer publishes every batch and the GC runs both on its timer and in
// a tight loop. Every pinned answer must equal the oracle at its epoch,
// and no reclamation floor may ever pass a pin that is still held.
TEST(SnapshotStress, PinSlotsNestedOutOfOrderUnderChurn) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 9);
  SCOPED_TRACE(SeedReplayHint(kSeedEnv, seed));
  const Workload w = MakeWorkload(seed, SnapshotShape());

  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 64);
  auto index = BuildIndex(&pool, w);
  const uint64_t base = index->write_epoch();

  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};

  // One query of the rotating set at `pin`, against its oracle state.
  const auto check = [&](const EpochPin& pin, size_t i) {
    const uint64_t k = pin.epoch() - base;
    if (k >= w.states.size()) return false;
    const OracleState& st = w.states[k];
    const Rect& win = w.windows[i % w.windows.size()];
    const Point& pt = w.points[i % w.points.size()];
    auto wr = index->WindowQueryAt(pin, win);
    auto pr = index->PointQueryAt(pin, pt);
    return wr.ok() && pr.ok() && wr.value() == ExpectedWindow(st, win) &&
           pr.value() == ExpectedPoint(st, pt);
  };
  // The latest floor must not pass any pin this thread still holds.
  const auto floor_ok = [&](const EpochPin& pin) {
    return index->epoch_stats().gc_floor <= pin.epoch();
  };

  constexpr size_t kReaders = 4;
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t rounds = 0;
      while (!writer_done.load(std::memory_order_acquire) || rounds < 2) {
        EpochPin outer = index->PinEpoch();
        if (!check(outer, t + rounds)) ++failures;
        EpochPin inner = index->PinEpoch();
        if (inner.epoch() < outer.epoch()) ++failures;
        EpochPin innermost = index->PinEpoch();
        // Out of order: the middle pin goes first, then the outermost.
        inner.Release();
        if (!check(outer, t + rounds + 1) || !floor_ok(outer)) ++failures;
        outer.Release();
        if (!check(innermost, t + rounds + 2) || !floor_ok(innermost)) {
          ++failures;
        }
        innermost.Release();
        ++rounds;
      }
    });
  }
  std::thread gc([&] {
    while (!writer_done.load(std::memory_order_acquire)) {
      index->epochs()->RunGcCycle();
      std::this_thread::yield();
    }
  });
  std::thread writer([&] {
    for (const WriteBatch& batch : w.batches) {
      if (!index->ApplyBatch(batch).ok()) {
        ++failures;
        break;
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  writer.join();
  gc.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  const EpochStats es = index->epoch_stats();
  EXPECT_EQ(es.pinned, 0u);
  EXPECT_GE(es.pins_taken, kReaders * 3 * 2);
}

// A root split after a pin (the tree grows a level and the old root
// becomes a child) must not change what the pin reads: the pinned meta
// keeps the old root, and its pages resolve through the chains.
TEST(Snapshot, RootSplitAfterPinKeepsPinnedAnswer) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 256);
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(8);
  auto index = SpatialIndex::Create(&pool, opt).value();
  OracleState st;
  DataGenOptions dg;
  dg.seed = 77;
  const std::vector<Rect> data = GenerateData(400, dg);
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_EQ(index->Insert(data[i]).value(), static_cast<ObjectId>(i));
    st[static_cast<ObjectId>(i)] = data[i];
  }

  const EpochPin pin = index->PinEpoch();
  const uint32_t height = index->btree()->height();
  ASSERT_GE(height, 2u) << "the old root must be internal";
  const Rect everything{0, 0, 1, 1};
  const Rect corner{0.1, 0.1, 0.45, 0.4};
  const auto all_before = index->WindowQueryAt(pin, everything).value();
  ASSERT_EQ(all_before, ExpectedWindow(st, everything));

  for (size_t i = 40; i < data.size(); ++i) {
    ASSERT_TRUE(index->Insert(data[i]).ok());
  }
  ASSERT_GT(index->btree()->height(), height) << "the root must have split";

  EXPECT_EQ(index->WindowQueryAt(pin, everything).value(), all_before);
  EXPECT_EQ(index->WindowQueryAt(pin, corner).value(),
            ExpectedWindow(st, corner));
  EXPECT_EQ(index->WindowQuery(everything).value().size(), data.size());
}

// Pool hits are counted per thread and summed when the stats are read:
// K threads making M hits each add exactly K*M.
TEST(SnapshotCounters, PoolHitsSumExactlyAcrossThreads) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 64);
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(pool.New().value().id());

  constexpr size_t kThreads = 4;
  constexpr size_t kHits = 5000;
  const IoStats before = pager->io_stats();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kHits; ++i) {
        PageRef ref = pool.Fetch(ids[(t + i) % ids.size()]).value();
        (void)ref.data();
      }
    });
  }
  for (auto& th : threads) th.join();
  const IoStats d = pager->io_stats().Since(before);
  EXPECT_EQ(d.pool_hits.load(), kThreads * kHits);
  EXPECT_EQ(d.pool_misses.load(), 0u);
}

// --------------------------------------- lock-free hits, hazard slots

/// Page content for the hazard tests: the page's id and the epoch whose
/// batch wrote it.
void StampPage(char* p, PageId id, uint64_t epoch) {
  EncodeFixed32(p, id);
  EncodeFixed64(p + 4, epoch);
}

/// A view of `pool` at `epoch`, as a pinned reader installs it.
SnapshotView PoolView(BufferPool* pool, uint64_t epoch) {
  SnapshotView v;
  v.epoch = epoch;
  v.versions = pool->versions();
  v.pool = pool;
  return v;
}

// Readers snapshot-fetch random pages of a 4-frame pool (so nearly every
// fetch races an eviction) while a writer runs versioned batches that
// rewrite, Delete and New pages and the GC reclaims on its timer. Each
// page carries the epoch that wrote it: a reader pinned at E must see,
// for every page live at E, exactly E's stamp.
TEST(BufferPoolHazard, ReadersSeeTheirEpochUnderChurnAndGc) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed + 11);
  SCOPED_TRACE(SeedReplayHint(kSeedEnv, seed));
  auto pager = Pager::OpenInMemory(kMinPageSize);
  BufferPool pool(pager.get(), 4);
  std::atomic<uint64_t> epoch{1};
  EpochManager mgr(&epoch, pool.versions());

  // Live pages and their stamps per published epoch; the writer adds
  // epoch E's entry before publishing E.
  using PageState = std::vector<std::pair<PageId, uint64_t>>;
  Mutex states_mu;
  std::map<uint64_t, PageState> states;
  PageState live;
  for (int i = 0; i < 12; ++i) {
    PageRef ref = pool.New().value();
    StampPage(ref.mutable_data(), ref.id(), 1);
    live.emplace_back(ref.id(), 1);
  }
  {
    MutexLock lock(states_mu);
    states[1] = live;
  }
  mgr.StartGc();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Random rng(seed + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const EpochPin pin = mgr.Pin();
        PageState st;
        {
          MutexLock lock(states_mu);
          st = states.at(pin.epoch());
        }
        SnapshotScope scope(PoolView(&pool, pin.epoch()));
        for (int i = 0; i < 20; ++i) {
          const auto& [id, stamp] = st[rng.Uniform(st.size())];
          const PageRef ref = pool.Fetch(id).value();
          if (DecodeFixed32(ref.data()) != id ||
              DecodeFixed64(ref.data() + 4) != stamp) {
            wrong.fetch_add(1);
          }
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  Random rng(seed);
  for (int b = 0; b < 150; ++b) {
    const uint64_t next = epoch.load() + 1;
    pool.ArmVersioning(next);
    for (int k = 0; k < 3; ++k) {
      auto& [id, stamp] = live[rng.Uniform(live.size())];
      PageRef ref = pool.Fetch(id).value();
      StampPage(ref.mutable_data(), id, next);
      stamp = next;
    }
    // Free one page and allocate another (often reusing the freed id).
    const size_t victim = rng.Uniform(live.size());
    ASSERT_TRUE(pool.Delete(live[victim].first).ok());
    PageRef fresh = pool.New().value();
    StampPage(fresh.mutable_data(), fresh.id(), next);
    live[victim] = {fresh.id(), next};
    fresh.Release();
    {
      MutexLock lock(states_mu);
      states[next] = live;
    }
    epoch.store(next);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  mgr.StopGc();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
}

// One thread parks an epoch pin and a hazard ref while another evicts
// the pool's capacity 100 times over. Buffers the scans hold back never
// outnumber the hazard slots, however long the pin lasts, and the
// parked ref's bytes stay intact.
TEST(BufferPoolHazard, HeldBackBuffersNeverExceedHazardSlots) {
  auto pager = Pager::OpenInMemory(kMinPageSize);
  constexpr size_t kCapacity = 64;
  BufferPool pool(pager.get(), kCapacity);
  std::atomic<uint64_t> epoch{1};
  EpochManager mgr(&epoch, pool.versions());
  std::vector<PageId> ids;
  for (size_t i = 0; i < 4 * kCapacity; ++i) {
    PageRef ref = pool.New().value();
    StampPage(ref.mutable_data(), ref.id(), 1);
    ids.push_back(ref.id());
  }

  std::atomic<bool> parked{false};
  std::atomic<bool> done{false};
  std::thread holder([&] {
    const EpochPin pin = mgr.Pin();
    SnapshotScope scope(PoolView(&pool, pin.epoch()));
    const PageRef ref = pool.Fetch(ids[0]).value();
    parked.store(true);
    while (!done.load()) std::this_thread::yield();
    EXPECT_EQ(DecodeFixed32(ref.data()), ids[0]);
    EXPECT_EQ(DecodeFixed64(ref.data() + 4), 1u);
  });
  while (!parked.load()) std::this_thread::yield();

  SnapshotScope scope(PoolView(&pool, 1));
  size_t max_held = 0;
  for (size_t i = 0; i < 100 * kCapacity; ++i) {
    const PageRef ref = pool.Fetch(ids[i % ids.size()]).value();
    ASSERT_EQ(DecodeFixed32(ref.data()), ids[i % ids.size()]);
    const size_t held = pool.held_back_buffers();
    ASSERT_LE(held, pool.hazard_slots());
    max_held = std::max(max_held, held);
  }
  done.store(true);
  holder.join();
  EXPECT_GE(max_held, 1u) << "the parked ref's buffer was never held back";
}

// Pinned and snapshot refs are different kinds of ref: a hazard ref is
// thread-affine, because its slot belongs to the fetching thread.
TEST(BufferPoolDeathTest, HazardRefReleasedOnAnotherThreadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto pager = Pager::OpenInMemory(kMinPageSize);
  BufferPool pool(pager.get(), 8);
  const PageId id = pool.New().value().id();
  EXPECT_DEATH(
      {
        PageRef ref;
        {
          SnapshotScope scope(PoolView(&pool, 1));
          ref = pool.Fetch(id).value();
        }
        std::thread other([&] { ref.Release(); });
        other.join();
      },
      "other than the fetching");
}

// Disarmed writes (checkpoint metadata) go in place, which is sound only
// for pages no snapshot read reaches: debug builds abort on a disarmed
// write to a buffer a snapshot read was handed. Release builds compile
// the check out, so the test runs where it exists.
TEST(BufferPoolDeathTest, UnversionedWriteToSnapshotReadPageAbortsInDebug) {
#ifdef NDEBUG
  GTEST_SKIP() << "the unversioned-write check is debug-only";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto pager = Pager::OpenInMemory(kMinPageSize);
  BufferPool pool(pager.get(), 8);
  const PageId read = pool.New().value().id();
  const PageId unread = pool.New().value().id();
  {
    SnapshotScope scope(PoolView(&pool, 1));
    (void)pool.Fetch(read).value();
  }
  // A page no snapshot read was handed takes disarmed writes.
  pool.Fetch(unread).value().mutable_data()[0] = 'u';
  EXPECT_DEATH(pool.Fetch(read).value().mutable_data()[0] = 'x',
               "unversioned write");
  // Armed, the first write moves the frame to a fresh copy, which no
  // reader has seen.
  pool.ArmVersioning(2);
  pool.Fetch(read).value().mutable_data()[0] = 'y';
  pool.ArmVersioning(0);
  pool.Fetch(read).value().mutable_data()[0] = 'z';
#endif
}

// A group commit, and an explicit checkpoint, leave no chain entry at
// the current epoch: with no pin held the GC empties the chains within a
// timer period or so, and a reader pinned at the current epoch skips the
// chain (and its mutex) altogether.
TEST(SnapshotGc, GroupCommitLeavesNoVersionsAtCurrentEpoch) {
  DBOptions opt;
  opt.memory_journal = true;
  auto db = DB::Open("", opt).value();
  ASSERT_TRUE(db->index()->group_commit_active());
  WriteBatch batch;
  for (int i = 0; i < 32; ++i) {
    batch.Insert(Rect{0.03 * i, 0.02 * i, 0.03 * i + 0.01, 0.02 * i + 0.01});
  }
  ASSERT_TRUE(db->Apply(batch, Durability::kDurable).ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  const auto start = std::chrono::steady_clock::now();
  while (db->index()->version_stats().live != 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(db->index()->version_stats().live, 0u);
  const EpochPin pin = db->index()->PinEpoch();
  EXPECT_FALSE(db->index()->pool()->versions()->MaySaveAtOrAfter(pin.epoch()));
}

// A cold cache is cold for every page: after DB::ClearCache() a point
// query reads each level of the B+-tree from the pager, the root and its
// children included. Every object is a tiny rect inside one finest grid
// cell, so it decomposes to one element at one level, and a point query
// in an empty cell runs exactly one descent and refines nothing.
TEST(Snapshot, ClearCacheColdQueryReadsEveryTreeLevel) {
  DBOptions opt;
  opt.page_size = 512;
  opt.cache_pages = 1024;
  opt.index.data = DecomposeOptions::SizeBound(1);
  auto db = DB::Open("", opt).value();
  constexpr int kSide = 64;
  const double cell = 1.0 / kSide;
  WriteBatch batch;
  for (int i = 0; i < kSide; ++i) {
    for (int j = 0; j < kSide; ++j) {
      const double x = (i + 0.25) * cell;
      const double y = (j + 0.25) * cell;
      batch.Insert(Rect{x, y, x + 1e-7, y + 1e-7});
    }
  }
  ASSERT_TRUE(db->Apply(batch).ok());
  const uint32_t height = db->index()->btree()->height();
  ASSERT_GE(height, 3u);

  ASSERT_TRUE(db->ClearCache().ok());
  const IoStats before = db->io_stats();
  const Point empty{0.75 * cell, 0.75 * cell};
  EXPECT_TRUE(db->Point(empty).value().empty());
  EXPECT_GE(db->io_stats().Since(before).page_reads.load(), height);
}

// The plan hooks read at the snapshot scope of their index open on the
// calling thread; without one (or with only another index's) they fail
// instead of reading live pages a writer may be changing.
TEST(Snapshot, PlanHooksRequireASnapshotScope) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 64);
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);
  auto index = SpatialIndex::Create(&pool, opt).value();
  auto other = SpatialIndex::Create(&pool, opt).value();
  ASSERT_TRUE(index->Insert(Rect{0.1, 0.1, 0.2, 0.2}).ok());
  const Rect w{0, 0, 0.5, 0.5};

  auto expect_rejected = [&] {
    EXPECT_TRUE(index->PlanWindow(w).status().IsInvalidArgument());
    WindowPlan plan;
    plan.window = w;
    QueryStats qs;
    EXPECT_TRUE(index->ExecuteWindowPlanSlice(plan, 0, 0, &qs)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(index->RefineWindowCandidates(w, {0}, &qs)
                    .status()
                    .IsInvalidArgument());
  };
  expect_rejected();
  {
    const EpochPin pin = other->PinEpoch();
    auto scope = other->OpenSnapshot(pin).value();
    expect_rejected();
  }

  const EpochPin pin = index->PinEpoch();
  auto scope = index->OpenSnapshot(pin).value();
  const WindowPlan plan = index->PlanWindow(w).value();
  QueryStats qs;
  auto cands =
      index->ExecuteWindowPlanSlice(plan, 0, plan.work_items(), &qs).value();
  EXPECT_EQ(index->RefineWindowCandidates(w, std::move(cands), &qs).value(),
            std::vector<ObjectId>{0});
}

// Any partition of the plan's work items must reproduce the full
// candidate set — the invariant a caller that splits the range builds
// on.
TEST(WindowPlan, PlanSliceUnionCoversWholeQuery) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 512);
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);
  auto index = SpatialIndex::Create(&pool, opt).value();
  DataGenOptions dg;
  dg.distribution = Distribution::kClusters;
  for (const Rect& r : GenerateData(800, dg)) {
    ASSERT_TRUE(index->Insert(r).ok());
  }

  const Rect w{0.1, 0.1, 0.6, 0.55};
  const EpochPin pin = index->PinEpoch();
  auto scope = index->OpenSnapshot(pin).value();
  auto plan = index->PlanWindow(w).value();
  ASSERT_GT(plan.work_items(), 0u);

  QueryStats qs;
  auto full =
      index->ExecuteWindowPlanSlice(plan, 0, plan.work_items(), &qs).value();

  for (size_t pieces : {2u, 3u, 5u}) {
    std::vector<ObjectId> merged;
    const size_t step = (plan.work_items() + pieces - 1) / pieces;
    for (size_t b = 0; b < plan.work_items(); b += step) {
      QueryStats part;
      auto slice =
          index->ExecuteWindowPlanSlice(plan, b, b + step, &part).value();
      merged.insert(merged.end(), slice.begin(), slice.end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    EXPECT_EQ(merged, full) << pieces << " pieces";
  }
}

// ------------------------------------------- diagnostics beside a writer

/// Erases and re-inserts the same rectangles, one pair per batch, until
/// `stop`: every published epoch holds the same multiset of rectangles.
/// `live` is the churned oids with their rectangles, oldest first.
void RecycleChurn(SpatialIndex* index,
                  std::deque<std::pair<ObjectId, Rect>> live,
                  const std::atomic<bool>* stop, std::atomic<int>* batches) {
  while (!stop->load(std::memory_order_relaxed)) {
    const auto [oid, rect] = live.front();
    live.pop_front();
    WriteBatch b;
    b.Erase(oid);
    b.Insert(rect);
    auto r = index->ApplyBatch(b);
    if (!r.ok()) break;
    live.emplace_back(r.value()[0], rect);
    batches->fetch_add(1, std::memory_order_relaxed);
  }
}

// DB::Stats() and DB::ShardStats() read the build counters from the
// current epoch's snapshot meta under a pin, so a STATS request beside
// an Apply writer shares no unsynchronized state with it (TSan checks).
TEST(SnapshotDiagnostics, StatsBesideWriterReadPublishedCounters) {
  auto db = DB::Open("", {}).value();
  const auto data = GenerateData(200, DataGenOptions{});
  ASSERT_TRUE(db->BulkLoad(data).ok());
  const uint64_t entries0 = db->Stats().index_entries;
  ASSERT_GT(entries0, 0u);

  std::atomic<bool> stop{false};
  std::atomic<int> batches{0};
  std::thread writer([&] {
    for (ObjectId oid = 0; !stop.load(std::memory_order_relaxed); ++oid) {
      WriteBatch b;
      b.Erase(oid);
      b.Insert(data[oid % data.size()]);
      if (!db->Apply(b).ok()) break;
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  uint64_t last = entries0;
  int reads = 0;
  while (reads < 200 || batches.load() < 100) {
    const DBStats s = db->Stats();
    // Erases never lower the build counters: they only grow.
    EXPECT_GE(s.index_entries, last);
    last = s.index_entries;
    const auto shards = db->ShardStats();
    ASSERT_EQ(shards.size(), 1u);
    EXPECT_GE(shards[0].index_entries, entries0);
    EXPECT_GE(db->build_stats().objects, data.size());
    ++reads;
  }
  stop.store(true);
  writer.join();
  EXPECT_GE(batches.load(), 100);
}

// LevelHistogram, level_mask and DistanceTo read a pinned epoch: beside
// a writer that recycles rectangles, every read sees the one histogram
// all epochs share, and distances of untouched objects never move.
TEST(SnapshotDiagnostics, HistogramAndDistanceBesideWriter) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 256);
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);
  auto index = SpatialIndex::Create(&pool, opt).value();
  const auto data = GenerateData(300, DataGenOptions{});
  std::deque<std::pair<ObjectId, Rect>> churned;
  for (size_t i = 0; i < data.size(); ++i) {
    const ObjectId oid = index->Insert(data[i]).value();
    if (i < 100) churned.emplace_back(oid, data[i]);
  }
  const std::vector<uint64_t> hist0 = index->LevelHistogram().value();
  const uint64_t mask0 = index->level_mask();

  std::atomic<bool> stop{false};
  std::atomic<int> batches{0};
  std::thread writer(
      [&] { RecycleChurn(index.get(), churned, &stop, &batches); });
  const Point p{0.5, 0.25};
  int reads = 0;
  while (reads < 50 || batches.load() < 50) {
    EXPECT_EQ(index->LevelHistogram().value(), hist0);
    EXPECT_EQ(index->level_mask(), mask0);
    const ObjectId oid = static_cast<ObjectId>(100 + reads % 200);
    EXPECT_EQ(index->DistanceTo(oid, p).value(), data[oid].DistanceTo(p));
    ++reads;
  }
  stop.store(true);
  writer.join();
  EXPECT_GE(batches.load(), 50);
}

}  // namespace
}  // namespace zdb
