// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Multi-threaded read-path stress: N threads hammer one shared index
// (mixed window/point/kNN queries) and one shared buffer pool while the
// answers are checked against single-threaded baselines. Designed to run
// under ThreadSanitizer (build with -DZDB_SANITIZE=thread); sizes are
// kept moderate so the instrumented run stays fast.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "core/spatial_index.h"
#include "exec/executor.h"
#include "storage/pager.h"
#include "workload/datagen.h"
#include "workload/querygen.h"

namespace zdb {
namespace {

constexpr size_t kThreads = 8;

TEST(Concurrent, BufferPoolFetchStress) {
  // Threads re-fetch a fixed page set through a pool with far fewer
  // frames than pages, so every iteration races pins against evictions.
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 32);

  constexpr size_t kPages = 200;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    auto ref = pool.New().value();
    std::memset(ref.mutable_data(), static_cast<char>(i & 0xff), 512);
    ids.push_back(ref.id());
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int iter = 0; iter < 400; ++iter) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const size_t i = (rng >> 33) % kPages;
        auto r = pool.Fetch(ids[i]);
        if (!r.ok()) {
          ++failures;  // 8 pins can never exhaust 32 frames
          continue;
        }
        const char expected = static_cast<char>(i & 0xff);
        if (r.value().data()[0] != expected ||
            r.value().data()[511] != expected) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST(Concurrent, MixedQueryStress) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 128);
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);
  auto index = SpatialIndex::Create(&pool, opt).value();

  DataGenOptions dg;
  dg.distribution = Distribution::kClusters;
  for (const Rect& r : GenerateData(1200, dg)) {
    ASSERT_TRUE(index->Insert(r).ok());
  }

  const auto windows = GenerateWindows(24, 0.02, QueryGenOptions{});
  const auto points = GeneratePoints(24, 3);
  constexpr size_t kK = 4;

  // Single-threaded baselines.
  std::vector<std::vector<ObjectId>> window_expected, point_expected;
  std::vector<std::vector<std::pair<ObjectId, double>>> knn_expected;
  for (const auto& w : windows) {
    window_expected.push_back(index->WindowQuery(w).value());
  }
  for (const auto& p : points) {
    point_expected.push_back(index->PointQuery(p).value());
    knn_expected.push_back(index->NearestNeighbors(p, kK).value());
  }

  std::atomic<int> mismatches{0}, errors{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the query mix from a different offset so the
      // threads are always on different pages.
      for (size_t n = 0; n < windows.size(); ++n) {
        const size_t i = (n + t * 3) % windows.size();
        auto wr = index->WindowQuery(windows[i]);
        if (!wr.ok()) {
          ++errors;
        } else if (wr.value() != window_expected[i]) {
          ++mismatches;
        }
        auto pr = index->PointQuery(points[i]);
        if (!pr.ok()) {
          ++errors;
        } else if (pr.value() != point_expected[i]) {
          ++mismatches;
        }
        if (i % 4 == t % 4) {  // kNN is pricier; each thread does a share
          auto kr = index->NearestNeighbors(points[i], kK);
          if (!kr.ok()) {
            ++errors;
          } else if (kr.value() != knn_expected[i]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST(Concurrent, ExecutorBatchesUnderContention) {
  // The executor's worker pool plus an outside reader thread — both
  // paths share the index and buffer pool.
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 96);
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);
  auto index = SpatialIndex::Create(&pool, opt).value();
  DataGenOptions dg;
  dg.distribution = Distribution::kUniformSmall;
  for (const Rect& r : GenerateData(800, dg)) {
    ASSERT_TRUE(index->Insert(r).ok());
  }

  const auto windows = GenerateWindows(16, 0.05, QueryGenOptions{});
  std::vector<std::vector<ObjectId>> expected;
  for (const auto& w : windows) {
    expected.push_back(index->WindowQuery(w).value());
  }

  QueryExecutor exec(index.get(), 4);
  std::atomic<int> mismatches{0};
  std::thread outsider([&] {
    for (int iter = 0; iter < 6; ++iter) {
      for (size_t i = 0; i < windows.size(); ++i) {
        if (index->WindowQuery(windows[i]).value() != expected[i]) {
          ++mismatches;
        }
      }
    }
  });
  for (int iter = 0; iter < 6; ++iter) {
    auto got = exec.WindowBatch(windows).value();
    for (size_t i = 0; i < windows.size(); ++i) {
      if (got[i] != expected[i]) ++mismatches;
    }
    auto big = exec.ParallelWindowQuery(windows[iter % windows.size()]);
    if (big.value() != expected[iter % windows.size()]) ++mismatches;
  }
  outsider.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The ASSERT_CAPABILITY annotations on zdb::Mutex / zdb::SharedMutex are
// backed by real holder tracking in every build mode (mutex.h keeps the
// owning thread id in a relaxed atomic). These tests pin down both
// directions of that contract: assertions pass while the lock is held,
// and abort with an attributable "not held" message when it is not.

TEST(LockAssertions, MutexAssertHeldPassesWhileHeld) {
  Mutex mu;
  MutexLock lock(mu);
  mu.AssertHeld();  // must not abort
}

TEST(LockAssertions, SharedMutexAssertsPassWhileHeld) {
  SharedMutex mu;
  {
    WriterLock lock(mu);
    mu.AssertHeld();
    mu.AssertReaderHeld();  // exclusive hold satisfies the shared assert
  }
  {
    ReaderLock lock(mu);
    mu.AssertReaderHeld();
  }
}

TEST(LockAssertions, MutexAssertHeldTracksOwningThread) {
  // The assertion checks the *owning thread*, not just "locked by
  // someone": a hold on another thread must not satisfy it, and the
  // holder must be restored after a CondVar wait round-trip.
  Mutex mu;
  CondVar cv;
  bool woken = false;

  std::thread waiter([&]() NO_THREAD_SAFETY_ANALYSIS {
    MutexLock lock(mu);
    while (!woken) cv.Wait(mu);
    mu.AssertHeld();  // holder restored after the wait
  });

  {
    MutexLock lock(mu);
    mu.AssertHeld();
    woken = true;
  }
  cv.NotifyOne();
  waiter.join();
}

TEST(LockAssertionDeathTest, MutexAssertHeldAbortsUnheld) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu;
  EXPECT_DEATH(mu.AssertHeld(), "not held");
}

TEST(LockAssertionDeathTest, MutexAssertHeldAbortsOtherThreadHold) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu;
        mu.Lock();
        std::thread other([&]() NO_THREAD_SAFETY_ANALYSIS {
          mu.AssertHeld();  // held, but by the spawning thread
        });
        other.join();
        mu.Unlock();
      },
      "not held");
}

TEST(LockAssertionDeathTest, SharedMutexAssertHeldAbortsReaderOnlyHold) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SharedMutex mu;
        ReaderLock lock(mu);
        mu.AssertHeld();  // shared hold does not satisfy exclusive assert
      },
      "not held");
}

TEST(LockAssertionDeathTest, SharedMutexAssertReaderHeldAbortsUnheld) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SharedMutex mu;
  EXPECT_DEATH(mu.AssertReaderHeld(), "not held");
}

// A literal double-Unlock is itself a compile error under the Clang
// analysis (Unlock carries RELEASE), so the runtime side of the contract
// has to be exercised from an unanalyzed helper.
void DoubleUnlock() NO_THREAD_SAFETY_ANALYSIS {
  Mutex mu;
  MutexLock lock(mu);
  lock.Unlock();
  lock.Unlock();  // second release: lock no longer held
}

TEST(LockAssertionDeathTest, MutexLockDoubleUnlockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(DoubleUnlock(), "not held");
}

}  // namespace
}  // namespace zdb
