// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Failure injection: a file that starts failing after a countdown. Every
// layer above must propagate the IOError as a Status — never crash,
// never corrupt already-acknowledged state into silently wrong answers.

#include <gtest/gtest.h>

#include <memory>

#include "btree/btree.h"
#include "common/random.h"
#include "core/spatial_index.h"
#include "fault_file.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "workload/datagen.h"

namespace zdb {
namespace {

TEST(FailureInjection, BTreeInsertsSurfaceIOErrors) {
  // Sweep the failure point across the build; every outcome must be a
  // clean Status, and successful prefixes must stay readable via the
  // pool (which still holds the pages in memory).
  for (int64_t budget : {0, 1, 3, 10, 50, 200}) {
    auto file = std::make_unique<FaultFile>(budget);
    auto pager_r = Pager::Open(std::move(file), 512);
    if (!pager_r.ok()) {
      EXPECT_TRUE(pager_r.status().IsIOError());
      continue;
    }
    auto pager = std::move(pager_r).value();
    // Tiny pool forces evictions (and thus real I/O) during the build.
    BufferPool pool(pager.get(), 4);
    auto tree_r = BTree::Create(&pool);
    if (!tree_r.ok()) continue;
    auto& tree = *tree_r.value();

    bool failed = false;
    Random rng(static_cast<uint64_t>(budget) + 1);
    for (int i = 0; i < 500 && !failed; ++i) {
      // Random keys scatter across leaves, churning the tiny pool so the
      // countdown is actually consumed.
      char key[16];
      std::snprintf(key, sizeof(key), "k%08llx",
                    static_cast<unsigned long long>(rng.Next() & 0xffffffff));
      Status s = tree.Insert(key, "value");
      if (!s.ok()) {
        EXPECT_TRUE(s.IsIOError()) << s.ToString();
        failed = true;
      }
    }
    if (budget <= 50) {
      EXPECT_TRUE(failed) << "budget " << budget;
    }
  }
}

TEST(FailureInjection, QueriesSurfaceIOErrors) {
  auto file = std::make_unique<FaultFile>(-1);  // start healthy
  FaultFile* raw = file.get();
  auto pager = Pager::Open(std::move(file), 512).value();
  BufferPool pool(pager.get(), 4);
  SpatialIndexOptions opt;
  auto index = SpatialIndex::Create(&pool, opt).value();

  DataGenOptions dg;
  dg.distribution = Distribution::kUniformSmall;
  for (const Rect& r : GenerateData(500, dg)) {
    ASSERT_TRUE(index->Insert(r).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.Clear().ok());

  // Now kill the disk: a cold query must fail with IOError, not crash.
  raw->set_budget(0);
  auto r = index->WindowQuery(Rect{0.2, 0.2, 0.6, 0.6});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();

  // Disk recovers: the same query succeeds.
  raw->set_budget(-1);
  EXPECT_TRUE(index->WindowQuery(Rect{0.2, 0.2, 0.6, 0.6}).ok());
}

TEST(FailureInjection, PoolReportsWriteBackFailures) {
  auto file = std::make_unique<FaultFile>(-1);
  FaultFile* raw = file.get();
  auto pager = Pager::Open(std::move(file), 512).value();
  BufferPool pool(pager.get(), 2);

  // Dirty two pages, then make writes fail: FlushAll must error.
  {
    auto a = pool.New().value();
    a.mutable_data()[0] = 1;
    auto b = pool.New().value();
    b.mutable_data()[0] = 2;
  }
  raw->set_budget(0);
  Status s = pool.FlushAll();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  raw->set_budget(-1);
  EXPECT_TRUE(pool.FlushAll().ok());
}

}  // namespace
}  // namespace zdb
