// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The journaled commit path: batches published by writer sections coalesce
// into fewer journal commits on the pipeline thread (or commit inline as
// groups of one with the pipeline off), durability waiters complete in
// epoch order through the durable watermark, and a crash between
// publish and commit rolls published batches back as units — never
// partially. Injected I/O failures drive the runtime rollback and the
// stop on a failed journal re-arm. Runs under TSan (label
// "groupcommit"), so the durability thread's handoffs are race-checked
// here.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/spatial_index.h"
#include "fault_file.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "zdb/db.h"

namespace zdb {
namespace {

/// Journaled in-memory rig with crash simulation, plus a group-commit
/// aware baseline builder (the baseline commits synchronously BEFORE the
/// pipeline starts, so it is the initial durable group boundary).
struct GroupRig {
  GroupRig() {
    auto db_file = std::make_unique<MemFile>();
    auto journal_file = std::make_unique<FaultFile>();
    db = db_file.get();
    journal = journal_file.get();
    pager =
        Pager::Open(std::move(db_file), std::move(journal_file), 512).value();
    pool = std::make_unique<BufferPool>(pager.get(), 64);
  }

  /// Creates the index, inserts `n` baseline objects on a diagonal,
  /// checkpoints and commits synchronously.
  std::unique_ptr<SpatialIndex> Baseline(int n) {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(4);
    auto index = SpatialIndex::Create(pool.get(), opt).value();
    EXPECT_TRUE(pager->BeginBatch().ok());
    for (int i = 0; i < n; ++i) {
      const double x = 0.8 * i / n + 0.01;
      EXPECT_TRUE(index->Insert(Rect{x, x, x + 0.004, x + 0.004}).ok());
    }
    master = index->Checkpoint().value();
    EXPECT_TRUE(pool->FlushAll().ok());
    EXPECT_TRUE(pager->CommitBatch().ok());
    return index;
  }

  /// Simulates a crash: snapshots both files NOW (while the doomed index
  /// and its durability thread may still be alive) for a later reopen.
  void SnapshotForCrash() {
    db_snapshot = db->Snapshot();
    journal_snapshot = journal->Snapshot();
  }

  /// Reopens fresh structures from the crash snapshots (recovery runs
  /// inside Pager::Open). The old index must be destroyed first.
  std::unique_ptr<SpatialIndex> Reopen() {
    auto db_copy = std::make_unique<MemFile>();
    db_copy->RestoreSnapshot(db_snapshot);
    auto journal_copy = std::make_unique<FaultFile>();
    journal_copy->RestoreSnapshot(journal_snapshot);
    db = db_copy.get();
    journal = journal_copy.get();
    pool.reset();
    pager = Pager::Open(std::move(db_copy), std::move(journal_copy), 512)
                .value();
    pool = std::make_unique<BufferPool>(pager.get(), 64);
    return SpatialIndex::Open(pool.get(), master).value();
  }

  MemFile* db;
  FaultFile* journal;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BufferPool> pool;
  PageId master = kInvalidPageId;
  std::vector<char> db_snapshot;
  std::vector<char> journal_snapshot;
};

WriteBatch InsertBatch(double x, int n = 1) {
  WriteBatch b;
  for (int i = 0; i < n; ++i) {
    b.Insert(Rect{x, 0.9, x + 0.004, 0.95});
    x += 0.005;
  }
  return b;
}

TEST(GroupCommit, WritersCoalesceIntoFewerCommitsThanBatches) {
  GroupRig rig;
  auto index = rig.Baseline(50);
  ASSERT_TRUE(index->StartGroupCommit().ok());

  // Freeze the durability thread so every published batch lands in the
  // same armed journal batch, then publish from k writer threads.
  index->SetGroupCommitPaused(true);
  const uint64_t commits_before = rig.pager->commit_count();
  const uint64_t durable_before = index->durable_epoch();

  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 5;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        auto r = index->ApplyBatch(
            InsertBatch(0.01 + 0.03 * (w * kBatchesPerWriter + b)),
            Durability::kPublished);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (auto& t : writers) t.join();

  // Published: readers see all 20 batches; nothing is durable yet and
  // the journal has not committed.
  EXPECT_EQ(index->object_count(), 70u);
  EXPECT_EQ(index->durable_epoch(), durable_before);
  EXPECT_EQ(rig.pager->commit_count(), commits_before);

  // Resume: the pipeline must make everything durable with FEWER journal
  // commits than batches — one group, in the usual case.
  index->SetGroupCommitPaused(false);
  const uint64_t last_epoch = index->write_epoch();
  ASSERT_TRUE(index->WaitDurable(last_epoch).ok());

  const uint64_t commits = rig.pager->commit_count() - commits_before;
  EXPECT_GE(commits, 1u);
  EXPECT_LT(commits, static_cast<uint64_t>(kWriters * kBatchesPerWriter));
  EXPECT_GE(index->durable_epoch(), last_epoch);
}

TEST(GroupCommit, WaitersCompleteInEpochOrder) {
  GroupRig rig;
  auto index = rig.Baseline(30);
  ASSERT_TRUE(index->StartGroupCommit().ok());

  // Each writer publishes under a turn mutex so it learns its batch's
  // exact epoch, then waits for durability. Completion contract: a
  // waiter for epoch e may only return OK once the durable watermark has
  // reached e — so at every completion, every batch with a smaller
  // epoch is durable too (strict epoch order).
  std::mutex turn;
  std::atomic<int> ok_count{0};
  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 6;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        uint64_t epoch = 0;
        {
          std::lock_guard<std::mutex> lk(turn);
          auto r = index->ApplyBatch(
              InsertBatch(0.01 + 0.02 * (w * kBatchesPerWriter + b)),
              Durability::kPublished);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          epoch = index->write_epoch();
        }
        ASSERT_TRUE(index->WaitDurable(epoch).ok());
        EXPECT_GE(index->durable_epoch(), epoch);
        ++ok_count;
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(ok_count.load(), kWriters * kBatchesPerWriter);
  EXPECT_EQ(index->object_count(),
            30u + static_cast<uint64_t>(kWriters * kBatchesPerWriter));
}

TEST(GroupCommit, WaitDurableTimesOutWhilePipelineIsStalled) {
  GroupRig rig;
  auto index = rig.Baseline(10);
  ASSERT_TRUE(index->StartGroupCommit().ok());

  index->SetGroupCommitPaused(true);
  ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.1),
                                Durability::kPublished).ok());
  const uint64_t epoch = index->write_epoch();

  // Stalled pipeline: a bounded wait must report TimedOut, not hang.
  EXPECT_TRUE(index->WaitDurable(epoch, /*timeout_ms=*/50).IsTimedOut());

  index->SetGroupCommitPaused(false);
  EXPECT_TRUE(index->WaitDurable(epoch).ok());
  EXPECT_GE(index->durable_epoch(), epoch);
}

TEST(GroupCommit, EmptyBatchDoesNotCommitOrAdvanceEpoch) {
  // Regression: ApplyBatch used to run its entry checkpoint + journal
  // commit even when the batch validated empty. An empty batch must be
  // a true no-op with or without a commit path: no journal commit, no
  // epoch movement.
  {
    // No commit path (the caller owns durability).
    GroupRig rig;
    auto index = rig.Baseline(10);
    const uint64_t commits = rig.pager->commit_count();
    const uint64_t epoch = index->write_epoch();
    auto r = index->ApplyBatch(WriteBatch{});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().empty());
    EXPECT_EQ(rig.pager->commit_count(), commits);
    EXPECT_EQ(index->write_epoch(), epoch);
  }
  for (const bool pipeline : {true, false}) {
    // The pipeline thread and inline groups of one: nothing published
    // either.
    SCOPED_TRACE(pipeline ? "pipeline" : "inline");
    GroupRig rig;
    auto index = rig.Baseline(10);
    ASSERT_TRUE(index->StartGroupCommit(pipeline).ok());
    const uint64_t commits = rig.pager->commit_count();
    const uint64_t epoch = index->write_epoch();
    const uint64_t durable = index->durable_epoch();
    auto r = index->ApplyBatch(WriteBatch{}, Durability::kDurable);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().empty());
    EXPECT_EQ(index->write_epoch(), epoch);
    EXPECT_EQ(index->durable_epoch(), durable);
    EXPECT_EQ(rig.pager->commit_count(), commits);
    ASSERT_TRUE(index->StopGroupCommit().ok());
    // Stop retires the armed batch; the no-op itself committed nothing.
    EXPECT_LE(rig.pager->commit_count(), commits + 1);
  }
}

TEST(GroupCommit, CrashBetweenPublishAndCommitRollsBackWholeBatches) {
  GroupRig rig;
  std::vector<ObjectId> baseline_ids;
  {
    auto index = rig.Baseline(40);
    baseline_ids = index->WindowQuery(Rect{0, 0, 1, 1}).value();
    std::sort(baseline_ids.begin(), baseline_ids.end());
    ASSERT_TRUE(index->StartGroupCommit().ok());

    // Two published-but-not-durable batches: a mixed erase+insert and a
    // pure insert. Both visible to readers, neither committed.
    index->SetGroupCommitPaused(true);
    WriteBatch mixed;
    for (ObjectId oid = 0; oid < 10; ++oid) mixed.Erase(oid);
    mixed.Insert(Rect{0.9, 0.02, 0.95, 0.06});
    ASSERT_TRUE(index->ApplyBatch(mixed, Durability::kPublished).ok());
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.3, 5),
                                  Durability::kPublished).ok());
    EXPECT_EQ(index->object_count(), 36u);  // 40 - 10 + 1 + 5

    // Power goes out between publish and the group's journal commit.
    rig.SnapshotForCrash();
    // (The doomed index's destructor drains the pipeline — that is the
    // graceful-shutdown path and must not affect the snapshot.)
  }

  auto reopened = rig.Reopen();
  ASSERT_TRUE(reopened->btree()->CheckInvariants().ok());
  // Whole-batch rollback: the pre-crash durable state, exactly. No
  // partial batch may survive — not the erases, not the inserts.
  EXPECT_EQ(reopened->object_count(), 40u);
  auto hits = reopened->WindowQuery(Rect{0, 0, 1, 1}).value();
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, baseline_ids);
  EXPECT_TRUE(reopened->WindowQuery(Rect{0.89, 0.01, 0.96, 0.07})
                  .value()
                  .empty());
  EXPECT_TRUE(reopened->WindowQuery(Rect{0.29, 0.89, 0.45, 0.96})
                  .value()
                  .empty());
}

TEST(GroupCommit, CrashPreservesDurableGroupsAndDropsPublishedTail) {
  GroupRig rig;
  {
    auto index = rig.Baseline(20);
    ASSERT_TRUE(index->StartGroupCommit().ok());

    // Batch A becomes durable (kDurable waits for its group's fsync).
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.1, 3),
                                  Durability::kDurable).ok());
    // Batch B is only published when the "power" goes out.
    index->SetGroupCommitPaused(true);
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.5, 4),
                                  Durability::kPublished).ok());
    EXPECT_EQ(index->object_count(), 27u);
    rig.SnapshotForCrash();
  }

  auto reopened = rig.Reopen();
  ASSERT_TRUE(reopened->btree()->CheckInvariants().ok());
  EXPECT_EQ(reopened->object_count(), 23u);  // baseline + A, not B
  EXPECT_EQ(reopened->WindowQuery(Rect{0.09, 0.89, 0.13, 0.96})
                .value()
                .size(),
            3u);
  EXPECT_TRUE(reopened->WindowQuery(Rect{0.49, 0.89, 0.53, 0.96})
                  .value()
                  .empty());
}

TEST(GroupCommit, ReadersRunThroughTheDurabilityWindow) {
  // Concurrent readers query while writers push durable batches through
  // the pipeline — under TSan this is the race check on the durability
  // thread's publish/flush/commit handoffs.
  GroupRig rig;
  auto index = rig.Baseline(60);
  ASSERT_TRUE(index->StartGroupCommit().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        const double lo = 0.1 + 0.2 * t;
        if (!index->WindowQuery(Rect{lo, lo, lo + 0.3, lo + 0.3}).ok() ||
            !index->NearestNeighbors(Point{lo, lo}, 3).ok()) {
          ++failures;
          return;
        }
      }
    });
  }

  for (int b = 0; b < 12; ++b) {
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.01 + 0.07 * b),
                                  Durability::kDurable).ok());
  }
  // Single-op mutations are acknowledged at publish while the pipeline
  // runs; WaitDurable on the current epoch blocks until they fsync.
  ASSERT_TRUE(index->Insert(Rect{0.85, 0.85, 0.86, 0.86}).ok());
  ASSERT_TRUE(index->Erase(0).ok());
  ASSERT_TRUE(index->WaitDurable(index->write_epoch()).ok());

  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(index->object_count(), 72u);  // 60 + 12 + 1 - 1
}

TEST(GroupCommit, StopDrainsRestartsAndSurvivesCrash) {
  GroupRig rig;
  {
    auto index = rig.Baseline(15);
    ASSERT_TRUE(index->StartGroupCommit().ok());
    index->SetGroupCommitPaused(true);
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.2, 2),
                                  Durability::kPublished).ok());

    // Stop drains the published tail even while paused, leaving
    // everything durable; the pipeline restarts cleanly.
    ASSERT_TRUE(index->StopGroupCommit().ok());
    EXPECT_FALSE(index->group_commit_active());
    ASSERT_TRUE(index->StartGroupCommit().ok());
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.6, 2),
                                  Durability::kDurable).ok());
    ASSERT_TRUE(index->StopGroupCommit().ok());
    rig.SnapshotForCrash();
  }
  auto reopened = rig.Reopen();
  ASSERT_TRUE(reopened->btree()->CheckInvariants().ok());
  EXPECT_EQ(reopened->object_count(), 19u);
}

TEST(GroupCommit, StartRequiresJournalAndNoCallerBatch) {
  {
    auto pager = Pager::OpenInMemory(512);
    BufferPool pool(pager.get(), 32);
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(4);
    auto index = SpatialIndex::Create(&pool, opt).value();
    EXPECT_TRUE(index->StartGroupCommit().IsInvalidArgument());
  }
  {
    GroupRig rig;
    auto index = rig.Baseline(5);
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    EXPECT_TRUE(index->StartGroupCommit().IsInvalidArgument());
    ASSERT_TRUE(rig.pager->CommitBatch().ok());
    ASSERT_TRUE(index->StartGroupCommit().ok());
    EXPECT_TRUE(index->StartGroupCommit().IsInvalidArgument());  // twice
  }
}

TEST(GroupCommit, DbFacadeRunsThePipeline) {
  // The facade wires the pipeline up from DBOptions: a journaled
  // in-memory DB applies published and durable batches, reports the
  // epochs and coalesced commit count through Stats(), and Checkpoint()
  // waits the pipeline out.
  DBOptions options;
  options.index.data = DecomposeOptions::SizeBound(4);
  options.memory_journal = true;
  auto db = DB::Open(":memory:", options).value();
  ASSERT_TRUE(db->Stats().group_commit);

  ASSERT_TRUE(db->Apply(InsertBatch(0.1, 3)).ok());  // durable default
  ASSERT_TRUE(db->Apply(InsertBatch(0.4, 2), Durability::kPublished).ok());
  EXPECT_EQ(db->object_count(), 5u);

  ASSERT_TRUE(db->Checkpoint().ok());
  const DBStats s = db->Stats();
  EXPECT_EQ(s.objects, 5u);
  EXPECT_GE(s.durable_epoch, s.write_epoch);
  EXPECT_GE(s.journal_commits, 1u);
  EXPECT_TRUE(db->WaitDurable(db->write_epoch()).ok());

  // With group_commit off, each batch is a group of one that commits
  // before Apply returns, whatever the durability flag says.
  DBOptions inline_opts = options;
  inline_opts.group_commit = false;
  auto db2 = DB::Open(":memory:", inline_opts).value();
  EXPECT_FALSE(db2->Stats().group_commit);
  const uint64_t commits = db2->Stats().journal_commits;
  ASSERT_TRUE(db2->Apply(InsertBatch(0.1), Durability::kPublished).ok());
  ASSERT_TRUE(db2->Apply(InsertBatch(0.4)).ok());
  EXPECT_EQ(db2->object_count(), 2u);
  const DBStats s2 = db2->Stats();
  EXPECT_EQ(s2.journal_commits, commits + 2);
  EXPECT_EQ(s2.durable_epoch, s2.write_epoch);
  EXPECT_TRUE(db2->Checkpoint().ok());
}

TEST(GroupCommit, MidBatchIoFailureRollsBackMemoryAndDisk) {
  // Sweep an I/O-failure point across one durable ApplyBatch, on the
  // pipeline thread and on inline groups of one. Whatever the point —
  // an eviction while applying, the group's checkpoint, flush or
  // journal commit — a failed batch must leave no trace. After a
  // transient fault the runtime rollback gives back the pre-batch
  // answers; when the disk stays dead the rollback fails too, and the
  // intact journal restores that state on reopen. The writer, and any
  // waiter on the rolled-back epoch, gets the failure's cause.
  const Rect world{0, 0, 1, 1};
  for (const bool pipeline : {true, false}) {
    SCOPED_TRACE(pipeline ? "pipeline" : "inline");
    int failed = 0;
    int succeeded = 0;
    int rolled_back = 0;
    int reopened_clean = 0;
    for (const bool transient : {true, false})
    for (int64_t budget : {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                           1024, 2048, 4096}) {
      SCOPED_TRACE(transient ? "transient" : "dead disk");
      auto db_file = std::make_unique<FaultFile>();
      FaultFile* db = db_file.get();
      auto journal_file = std::make_unique<MemFile>();
      MemFile* journal = journal_file.get();
      auto pager =
          Pager::Open(std::move(db_file), std::move(journal_file), 512)
              .value();
      BufferPool pool(pager.get(), 32);
      SpatialIndexOptions opt;
      opt.data = DecomposeOptions::SizeBound(4);
      auto index = SpatialIndex::Create(&pool, opt).value();
      ASSERT_TRUE(pager->BeginBatch().ok());
      for (int i = 0; i < 40; ++i) {
        const double x = 0.02 * i + 0.01;
        ASSERT_TRUE(index->Insert(Rect{x, x, x + 0.008, x + 0.008}).ok());
      }
      const PageId master = index->Checkpoint().value();
      ASSERT_TRUE(pool.FlushAll().ok());
      ASSERT_TRUE(pager->CommitBatch().ok());
      ASSERT_TRUE(index->StartGroupCommit(pipeline).ok());

      auto baseline = index->WindowQuery(world).value();
      std::sort(baseline.begin(), baseline.end());

      WriteBatch batch;
      for (ObjectId oid = 0; oid < 10; ++oid) batch.Erase(oid);
      batch.Insert(Rect{0.9, 0.9, 0.95, 0.95});

      const uint64_t before = index->write_epoch();
      db->set_budget(budget, transient);
      auto r = index->ApplyBatch(batch, Durability::kDurable);
      db->set_budget(-1);

      if (r.ok()) {
        ++succeeded;
        EXPECT_EQ(index->object_count(), 31u);
        EXPECT_EQ(index->WindowQuery(Rect{0.89, 0.89, 0.96, 0.96})
                      .value()
                      .size(),
                  1u);
        continue;
      }
      ++failed;
      const std::string cause = r.status().ToString();
      EXPECT_NE(cause.find("injected"), std::string::npos)
          << "budget " << budget << ": " << cause;
      if (index->write_epoch() == before + 2) {
        // The batch was published (epoch before + 1) and its group
        // failed to commit; before + 2 re-publishes the durable state.
        const Status waited = index->WaitDurable(before + 1);
        EXPECT_EQ(waited.ToString(), cause) << "budget " << budget;
      }
      if (!r.status().IsCorruption()) {
        // Runtime rollback succeeded: pre-batch answers, and a
        // follow-up batch commits as if the failure never happened.
        EXPECT_EQ(index->object_count(), 40u) << "budget " << budget;
        auto got = index->WindowQuery(world).value();
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, baseline) << "budget " << budget;
        EXPECT_TRUE(index->WindowQuery(Rect{0.89, 0.89, 0.96, 0.96})
                        .value()
                        .empty());
        ASSERT_TRUE(index->btree()->CheckInvariants().ok());
        ASSERT_TRUE(index->ApplyBatch(batch).ok()) << "budget " << budget;
        EXPECT_EQ(index->object_count(), 31u);
        ++rolled_back;
      } else {
        // The rollback itself hit the injected failure: the journal (or
        // the already-restored file) must recover the pre-batch index
        // on reopen — exactly the crash path.
        auto db2 = std::make_unique<MemFile>();
        db2->RestoreSnapshot(db->Snapshot());
        auto journal2 = std::make_unique<MemFile>();
        journal2->RestoreSnapshot(journal->Snapshot());
        auto pager2 =
            Pager::Open(std::move(db2), std::move(journal2), 512).value();
        BufferPool pool2(pager2.get(), 32);
        auto reopened = SpatialIndex::Open(&pool2, master).value();
        ASSERT_TRUE(reopened->btree()->CheckInvariants().ok());
        EXPECT_EQ(reopened->object_count(), 40u) << "budget " << budget;
        auto got = reopened->WindowQuery(world).value();
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, baseline) << "budget " << budget;
        ++reopened_clean;
      }
    }
    // The sweep must exercise both outcomes on each commit path, and
    // both recoveries of a failed batch.
    EXPECT_GT(failed, 0);
    EXPECT_GT(succeeded, 0);
    EXPECT_GT(rolled_back, 0);
    EXPECT_GT(reopened_clean, 0);
  }
}

TEST(GroupCommit, FailedJournalRearmStopsWritesAndRecoversOnReopen) {
  // After a group commits, the journal is re-armed for the next one. If
  // that fails, the committed group stays durable, but no later write
  // may run unjournaled: writes fail with Unavailable, and so does a
  // wait on an epoch the stopped path can never make durable. A reopen
  // recovers the last durable group.
  for (const bool pipeline : {true, false}) {
    SCOPED_TRACE(pipeline ? "pipeline" : "inline");
    GroupRig rig;
    {
      auto index = rig.Baseline(20);
      ASSERT_TRUE(index->StartGroupCommit(pipeline).ok());
      ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.1, 3)).ok());
      // A kDurable ack can precede the pipeline's re-arm after that
      // group; a checkpoint takes commit_mu_, so it waits the cycle out.
      ASSERT_TRUE(index->Checkpoint().ok());

      rig.journal->FailRearm(true);
      ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.5, 4)).ok());
      const uint64_t durable = index->write_epoch();
      EXPECT_EQ(index->durable_epoch(), durable);

      EXPECT_TRUE(index->ApplyBatch(InsertBatch(0.7), Durability::kPublished)
                      .status()
                      .IsUnavailable());
      EXPECT_TRUE(
          index->Insert(Rect{0.7, 0.7, 0.71, 0.71}).status().IsUnavailable());
      EXPECT_TRUE(index->Erase(0).IsUnavailable());
      EXPECT_TRUE(index->Checkpoint().status().IsUnavailable());
      EXPECT_EQ(index->write_epoch(), durable);
      EXPECT_EQ(index->object_count(), 27u);

      EXPECT_TRUE(index->WaitDurable(durable).ok());
      EXPECT_TRUE(index->WaitDurable(durable + 1).IsUnavailable());
      EXPECT_TRUE(index->StartGroupCommit(pipeline).IsInvalidArgument());
      rig.SnapshotForCrash();
    }
    auto reopened = rig.Reopen();
    ASSERT_TRUE(reopened->btree()->CheckInvariants().ok());
    EXPECT_EQ(reopened->object_count(), 27u);  // baseline + 3 + 4
    EXPECT_EQ(reopened->WindowQuery(Rect{0.49, 0.89, 0.53, 0.96})
                  .value()
                  .size(),
              4u);
  }
}

}  // namespace
}  // namespace zdb
