// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Atomic batches and crash recovery: a batch of B+-tree mutations either
// commits entirely or, after a simulated crash at ANY point mid-batch,
// rolls back entirely on reopen — leaving the pre-batch tree intact.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "btree/btree.h"
#include "btree/cursor.h"
#include "common/random.h"
#include "core/spatial_index.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace zdb {
namespace {

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

struct CrashRig {
  CrashRig() {
    auto db_file = std::make_unique<MemFile>();
    auto journal_file = std::make_unique<MemFile>();
    db = db_file.get();
    journal = journal_file.get();
    pager =
        Pager::Open(std::move(db_file), std::move(journal_file), 512)
            .value();
    pool = std::make_unique<BufferPool>(pager.get(), 32);
  }

  /// Simulates a crash: reopen fresh structures from byte copies of the
  /// current file contents (recovery runs inside Pager::Open).
  void CrashAndReopen() {
    auto db_copy = std::make_unique<MemFile>();
    db_copy->RestoreSnapshot(db->Snapshot());
    auto journal_copy = std::make_unique<MemFile>();
    journal_copy->RestoreSnapshot(journal->Snapshot());
    db = db_copy.get();
    journal = journal_copy.get();
    pool.reset();
    pager =
        Pager::Open(std::move(db_copy), std::move(journal_copy), 512)
            .value();
    pool = std::make_unique<BufferPool>(pager.get(), 32);
  }

  MemFile* db;
  MemFile* journal;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BufferPool> pool;
};

TEST(Journal, CommitMakesBatchDurable) {
  CrashRig rig;
  PageId meta;
  {
    auto tree = BTree::Create(rig.pool.get()).value();
    meta = tree->meta_page();
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(tree->Insert(Key(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(rig.pool->FlushAll().ok());
    ASSERT_TRUE(rig.pager->CommitBatch().ok());
  }
  rig.CrashAndReopen();
  auto tree = BTree::Open(rig.pool.get(), meta).value();
  EXPECT_EQ(tree->size(), 500u);
  EXPECT_EQ(tree->Get(Key(123)).value(), "v123");
  ASSERT_TRUE(tree->CheckInvariants().ok());
}

TEST(Journal, CrashMidBatchRollsBackToPreBatchState) {
  CrashRig rig;
  PageId meta;
  // Committed baseline: 300 entries.
  {
    auto tree = BTree::Create(rig.pool.get()).value();
    meta = tree->meta_page();
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(tree->Insert(Key(i), "base").ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(rig.pool->FlushAll().ok());
    ASSERT_TRUE(rig.pager->CommitBatch().ok());
  }

  // Doomed batch: heavy churn flushed to disk but never committed.
  {
    auto tree = BTree::Open(rig.pool.get(), meta).value();
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    Random rng(5);
    for (int op = 0; op < 1000; ++op) {
      const int i = static_cast<int>(rng.Uniform(600));
      if (rng.Bernoulli(0.4)) {
        (void)tree->Delete(Key(i));
      } else {
        (void)tree->Put(Key(i), "doomed" + std::to_string(op));
      }
    }
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(rig.pool->FlushAll().ok());
    // No CommitBatch: power goes out here.
  }

  rig.CrashAndReopen();
  auto tree = BTree::Open(rig.pool.get(), meta).value();
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->size(), 300u);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(tree->Get(Key(i)).value(), "base") << i;
  }
  EXPECT_TRUE(tree->Get(Key(450)).status().IsNotFound());

  // The rolled-back pager accepts a fresh, successful batch.
  ASSERT_TRUE(rig.pager->BeginBatch().ok());
  ASSERT_TRUE(tree->Insert(Key(900), "after").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(rig.pool->FlushAll().ok());
  ASSERT_TRUE(rig.pager->CommitBatch().ok());
  rig.CrashAndReopen();
  tree = BTree::Open(rig.pool.get(), meta).value();
  EXPECT_EQ(tree->size(), 301u);
}

TEST(Journal, CrashAtEveryPrefixRollsBackCleanly) {
  // Stronger property: crash after each flush point of a growing batch;
  // every reopen must see exactly the committed baseline.
  CrashRig rig;
  PageId meta;
  {
    auto tree = BTree::Create(rig.pool.get()).value();
    meta = tree->meta_page();
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(tree->Insert(Key(i), "base").ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(rig.pool->FlushAll().ok());
    ASSERT_TRUE(rig.pager->CommitBatch().ok());
  }
  const std::vector<char> db_committed = rig.db->Snapshot();

  for (int crash_after : {0, 1, 5, 20, 60, 120}) {
    // Restore the committed image and run a partial batch.
    auto db_copy = std::make_unique<MemFile>();
    db_copy->RestoreSnapshot(db_committed);
    auto journal_copy = std::make_unique<MemFile>();
    MemFile* db_raw = db_copy.get();
    MemFile* journal_raw = journal_copy.get();
    auto pager =
        Pager::Open(std::move(db_copy), std::move(journal_copy), 512)
            .value();
    BufferPool pool(pager.get(), 8);  // tiny: evictions hit disk early
    auto tree = BTree::Open(&pool, meta).value();
    ASSERT_TRUE(pager->BeginBatch().ok());
    for (int i = 0; i < crash_after; ++i) {
      ASSERT_TRUE(tree->Put(Key(i % 150), "doomed").ok());
    }
    (void)tree->Flush();
    (void)pool.FlushAll();
    // Crash: reopen from copies.
    auto db2 = std::make_unique<MemFile>();
    db2->RestoreSnapshot(db_raw->Snapshot());
    auto journal2 = std::make_unique<MemFile>();
    journal2->RestoreSnapshot(journal_raw->Snapshot());
    auto pager2 =
        Pager::Open(std::move(db2), std::move(journal2), 512).value();
    BufferPool pool2(pager2.get(), 32);
    auto tree2 = BTree::Open(&pool2, meta).value();
    ASSERT_TRUE(tree2->CheckInvariants().ok()) << crash_after;
    ASSERT_EQ(tree2->size(), 100u) << crash_after;
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(tree2->Get(Key(i)).value(), "base");
    }
  }
}

TEST(Journal, SpatialIndexBatchSurvivesCrash) {
  // End-to-end: a checkpointed spatial index plus an aborted update
  // batch; after the crash the index answers exactly as before.
  CrashRig rig;
  PageId master;
  {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(4);
    auto index = SpatialIndex::Create(rig.pool.get(), opt).value();
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    for (int i = 0; i < 200; ++i) {
      const double x = 0.004 * i + 0.01;
      ASSERT_TRUE(index->Insert(Rect{x, x, x + 0.003, x + 0.003}).ok());
    }
    master = index->Checkpoint().value();
    ASSERT_TRUE(rig.pool->FlushAll().ok());
    ASSERT_TRUE(rig.pager->CommitBatch().ok());
  }

  // Doomed batch: erase half, insert others, flush, crash.
  {
    auto index = SpatialIndex::Open(rig.pool.get(), master).value();
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    for (ObjectId oid = 0; oid < 100; ++oid) {
      ASSERT_TRUE(index->Erase(oid).ok());
    }
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(index->Insert(Rect{0.9, 0.9, 0.95, 0.95}).ok());
    }
    (void)index->Checkpoint();
    ASSERT_TRUE(rig.pool->FlushAll().ok());
  }
  rig.CrashAndReopen();

  auto index = SpatialIndex::Open(rig.pool.get(), master).value();
  ASSERT_TRUE(index->btree()->CheckInvariants().ok());
  EXPECT_EQ(index->object_count(), 200u);
  auto hits = index->WindowQuery(Rect{0, 0, 1, 1}).value();
  EXPECT_EQ(hits.size(), 200u);
  EXPECT_TRUE(index->WindowQuery(Rect{0.89, 0.89, 0.96, 0.96})
                  .value()
                  .empty());
}

TEST(Journal, CrashMidBatchWithParallelReadersRollsBack) {
  // Crash recovery under concurrent load: a doomed update batch churns
  // the index while parallel reader threads run queries against it (a
  // tiny pool forces reader- and writer-driven evictions, so dirty
  // pages — and their journal before-images — hit the disk mid-batch).
  // After the crash, reopen must roll back to the pre-batch tree.
  CrashRig rig;
  PageId master;
  const Rect world{0, 0, 1, 1};
  {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(4);
    auto index = SpatialIndex::Create(rig.pool.get(), opt).value();
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    for (int i = 0; i < 150; ++i) {
      const double x = 0.006 * i + 0.01;
      ASSERT_TRUE(index->Insert(Rect{x, x, x + 0.004, x + 0.004}).ok());
    }
    master = index->Checkpoint().value();
    ASSERT_TRUE(rig.pool->FlushAll().ok());
    ASSERT_TRUE(rig.pager->CommitBatch().ok());
  }

  {
    // Doomed batch with readers in flight. Each mutation publishes as
    // one epoch the queries pin; the pager batch makes the whole
    // churn roll back on reopen.
    auto index = SpatialIndex::Open(rig.pool.get(), master).value();
    ASSERT_TRUE(rig.pager->BeginBatch().ok());

    std::atomic<bool> stop{false};
    std::atomic<int> reader_failures{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
      readers.emplace_back([&, t] {
        uint64_t hits = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const double lo = 0.1 + 0.2 * t;
          auto r = index->WindowQuery(Rect{lo, lo, lo + 0.3, lo + 0.3});
          if (!r.ok()) {
            ++reader_failures;
            break;
          }
          hits += r.value().size();
          auto n = index->NearestNeighbors(Point{lo, lo}, 3);
          if (!n.ok()) {
            ++reader_failures;
            break;
          }
        }
        (void)hits;
      });
    }

    for (ObjectId oid = 0; oid < 75; ++oid) {
      ASSERT_TRUE(index->Erase(oid).ok());
    }
    for (int i = 0; i < 120; ++i) {
      const double x = 0.002 * i + 0.3;
      ASSERT_TRUE(index->Insert(Rect{x, x, x + 0.1, x + 0.1}).ok());
    }
    (void)index->Checkpoint();
    (void)rig.pool->FlushAll();  // may legally skip reader-pinned pages

    stop.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();
    EXPECT_EQ(reader_failures.load(), 0);
    // Power goes out before CommitBatch.
  }
  rig.CrashAndReopen();

  auto index = SpatialIndex::Open(rig.pool.get(), master).value();
  ASSERT_TRUE(index->btree()->CheckInvariants().ok());
  EXPECT_EQ(index->object_count(), 150u);
  auto hits = index->WindowQuery(world).value();
  EXPECT_EQ(hits.size(), 150u);
  for (ObjectId oid = 0; oid < 150; ++oid) {
    EXPECT_TRUE(std::find(hits.begin(), hits.end(), oid) != hits.end())
        << oid;
  }
}

TEST(Journal, ApplyBatchIsCrashAtomic) {
  // On the journaled commit path with the pipeline off, every batch is
  // a group of one that commits before ApplyBatch returns, so a returned
  // batch survives a crash. An index without a commit path leaves
  // durability to its caller: its batch inside a caller-managed pager
  // batch that never commits rolls back with it.
  CrashRig rig;
  PageId master;
  {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(4);
    auto index = SpatialIndex::Create(rig.pool.get(), opt).value();
    // An initial checkpointed, committed batch so Open() works later.
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    for (int i = 0; i < 50; ++i) {
      const double x = 0.01 * i + 0.01;
      ASSERT_TRUE(index->Insert(Rect{x, x, x + 0.005, x + 0.005}).ok());
    }
    master = index->Checkpoint().value();
    ASSERT_TRUE(rig.pool->FlushAll().ok());
    ASSERT_TRUE(rig.pager->CommitBatch().ok());
    ASSERT_TRUE(index->StartGroupCommit(/*pipeline=*/false).ok());

    // Groups of one commit whatever the durability flag says.
    WriteBatch batch;
    for (ObjectId oid = 0; oid < 10; ++oid) batch.Erase(oid);
    batch.Insert(Rect{0.8, 0.8, 0.85, 0.85});
    const uint64_t commits = rig.pager->commit_count();
    auto inserted = index->ApplyBatch(batch, Durability::kPublished).value();
    ASSERT_EQ(inserted.size(), 1u);
    EXPECT_EQ(inserted[0], 50u);
    EXPECT_EQ(rig.pager->commit_count(), commits + 1);
    EXPECT_EQ(index->durable_epoch(), index->write_epoch());
  }
  rig.CrashAndReopen();
  {
    auto index = SpatialIndex::Open(rig.pool.get(), master).value();
    EXPECT_EQ(index->object_count(), 41u);  // 50 - 10 + 1
    EXPECT_EQ(index->WindowQuery(Rect{0.79, 0.79, 0.86, 0.86})
                  .value()
                  .size(),
              1u);

    // A doomed batch on an index with no commit path, inside a
    // caller-managed pager batch: ApplyBatch only publishes it, so the
    // crash rolls back to the state of the last committed batch.
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    WriteBatch doomed;
    doomed.Erase(50);
    // Off the baseline diagonal, so the emptiness check below cannot be
    // satisfied by surviving baseline objects.
    for (int i = 0; i < 30; ++i) {
      doomed.Insert(Rect{0.6, 0.6, 0.65, 0.65});
    }
    ASSERT_TRUE(index->ApplyBatch(doomed).ok());
    (void)index->Checkpoint();
    (void)rig.pool->FlushAll();
    // No CommitBatch: crash.
  }
  rig.CrashAndReopen();
  auto index = SpatialIndex::Open(rig.pool.get(), master).value();
  ASSERT_TRUE(index->btree()->CheckInvariants().ok());
  EXPECT_EQ(index->object_count(), 41u);
  EXPECT_EQ(
      index->WindowQuery(Rect{0.79, 0.79, 0.86, 0.86}).value().size(),
      1u);
  EXPECT_TRUE(index->WindowQuery(Rect{0.58, 0.58, 0.67, 0.67})
                  .value()
                  .empty());
}

TEST(Journal, AbortBatchRestoresPagerState) {
  CrashRig rig;
  EXPECT_TRUE(rig.pager->AbortBatch().IsInvalidArgument());  // no batch

  PageId meta;
  {
    auto tree = BTree::Create(rig.pool.get()).value();
    meta = tree->meta_page();
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(tree->Insert(Key(i), "base").ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(rig.pool->FlushAll().ok());
    ASSERT_TRUE(rig.pager->CommitBatch().ok());
  }
  const uint32_t pages_before = rig.pager->page_count();
  const uint32_t live_before = rig.pager->live_page_count();

  // Doomed churn, flushed all the way to disk, then aborted at runtime.
  {
    auto tree = BTree::Open(rig.pool.get(), meta).value();
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(tree->Put(Key(i), "doomed").ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(rig.pool->FlushAll().ok());
    ASSERT_TRUE(rig.pager->AbortBatch().ok());
  }
  EXPECT_FALSE(rig.pager->in_batch());
  EXPECT_EQ(rig.pager->page_count(), pages_before);
  EXPECT_EQ(rig.pager->live_page_count(), live_before);

  // The abort restored the file; drop the cache so reads see it.
  ASSERT_TRUE(rig.pool->Discard().ok());
  {
    auto tree = BTree::Open(rig.pool.get(), meta).value();
    ASSERT_TRUE(tree->CheckInvariants().ok());
    EXPECT_EQ(tree->size(), 200u);
    EXPECT_EQ(tree->Get(Key(5)).value(), "base");

    // A later batch commits durably.
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    ASSERT_TRUE(tree->Insert(Key(900), "after").ok());
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(rig.pool->FlushAll().ok());
    ASSERT_TRUE(rig.pager->CommitBatch().ok());
  }
  rig.CrashAndReopen();
  {
    auto tree = BTree::Open(rig.pool.get(), meta).value();
    ASSERT_TRUE(tree->CheckInvariants().ok());
    EXPECT_EQ(tree->size(), 201u);
    EXPECT_EQ(tree->Get(Key(900)).value(), "after");

    // And an uncommitted later batch still rolls back on crash — the
    // abort left the journal machinery fully armed.
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    ASSERT_TRUE(tree->Put(Key(5), "doomed2").ok());
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(rig.pool->FlushAll().ok());
  }
  rig.CrashAndReopen();
  auto tree = BTree::Open(rig.pool.get(), meta).value();
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->size(), 201u);
  EXPECT_EQ(tree->Get(Key(5)).value(), "base");
}

TEST(Journal, FailedApplyBatchLeavesIndexIntactAndPagerUsable) {
  CrashRig rig;
  PageId master;
  {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(4);
    auto index = SpatialIndex::Create(rig.pool.get(), opt).value();
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    for (int i = 0; i < 60; ++i) {
      const double x = 0.01 * i + 0.01;
      ASSERT_TRUE(index->Insert(Rect{x, x, x + 0.005, x + 0.005}).ok());
    }
    master = index->Checkpoint().value();
    ASSERT_TRUE(rig.pool->FlushAll().ok());
    ASSERT_TRUE(rig.pager->CommitBatch().ok());
    ASSERT_TRUE(index->StartGroupCommit(/*pipeline=*/false).ok());
    const uint64_t epoch = index->write_epoch();
    const uint64_t commits = rig.pager->commit_count();

    // A batch that fails must apply nothing: not even the leading
    // insert may become visible (all-or-nothing), nothing may commit,
    // the journal must stay armed for the next group, and the epoch
    // must not move.
    WriteBatch doomed;
    doomed.Insert(Rect{0.8, 0.8, 0.85, 0.85});
    doomed.Erase(9999);  // no such object
    EXPECT_TRUE(index->ApplyBatch(doomed).status().IsNotFound());
    EXPECT_TRUE(rig.pager->in_batch());
    EXPECT_EQ(rig.pager->commit_count(), commits);
    EXPECT_EQ(index->write_epoch(), epoch);
    EXPECT_EQ(index->object_count(), 60u);
    EXPECT_TRUE(
        index->WindowQuery(Rect{0.79, 0.79, 0.86, 0.86}).value().empty());

    // Same for erases of dead or batch-duplicated oids and invalid MBRs.
    ASSERT_TRUE(index->Erase(0).ok());  // a group of one: commits
    const uint64_t commits_after_erase = rig.pager->commit_count();
    EXPECT_EQ(commits_after_erase, commits + 1);
    WriteBatch dead;
    dead.Erase(0);
    EXPECT_TRUE(index->ApplyBatch(dead).status().IsNotFound());
    WriteBatch dup;
    dup.Erase(1);
    dup.Erase(1);
    EXPECT_TRUE(index->ApplyBatch(dup).status().IsNotFound());
    WriteBatch invalid;
    invalid.Insert(Rect{0.5, 0.5, 0.4, 0.4});
    EXPECT_TRUE(index->ApplyBatch(invalid).status().IsInvalidArgument());
    EXPECT_TRUE(rig.pager->in_batch());
    EXPECT_EQ(rig.pager->commit_count(), commits_after_erase);
    EXPECT_EQ(index->object_count(), 59u);
    auto probe = index->WindowQuery(Rect{0, 0, 1, 1}).value();
    EXPECT_TRUE(std::find(probe.begin(), probe.end(), 1u) != probe.end());

    // Later batches still journal and commit durably.
    WriteBatch good;
    good.Erase(1);
    good.Insert(Rect{0.8, 0.8, 0.85, 0.85});
    ASSERT_TRUE(index->ApplyBatch(good).ok());
    EXPECT_EQ(index->object_count(), 59u);
    EXPECT_EQ(index->durable_epoch(), index->write_epoch());
  }

  rig.CrashAndReopen();
  auto reopened = SpatialIndex::Open(rig.pool.get(), master).value();
  ASSERT_TRUE(reopened->btree()->CheckInvariants().ok());
  EXPECT_EQ(reopened->object_count(), 59u);
  EXPECT_EQ(
      reopened->WindowQuery(Rect{0.79, 0.79, 0.86, 0.86}).value().size(),
      1u);
  auto hits = reopened->WindowQuery(Rect{0, 0, 1, 1}).value();
  EXPECT_TRUE(std::find(hits.begin(), hits.end(), 0u) == hits.end());
  EXPECT_TRUE(std::find(hits.begin(), hits.end(), 1u) == hits.end());
}

TEST(Journal, BatchApiErrors) {
  auto pager = Pager::OpenInMemory(512);
  EXPECT_TRUE(pager->BeginBatch().IsInvalidArgument());  // no journal
  EXPECT_TRUE(pager->CommitBatch().IsInvalidArgument());

  CrashRig rig;
  ASSERT_TRUE(rig.pager->BeginBatch().ok());
  EXPECT_TRUE(rig.pager->BeginBatch().IsInvalidArgument());  // nested
  ASSERT_TRUE(rig.pager->CommitBatch().ok());
  ASSERT_TRUE(rig.pager->BeginBatch().ok());  // reusable
  ASSERT_TRUE(rig.pager->CommitBatch().ok());
}

}  // namespace
}  // namespace zdb
