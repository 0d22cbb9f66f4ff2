// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The journaled commit path (see the "group commit" section of
// spatial_index.h). Mutators publish in-memory state and the write epoch
// in a writer section with no durability I/O inside; this file
// owns what makes published state durable — checkpoint, buffer-pool
// flush, journal commit — and completes waiters in epoch order through
// the gc_durable_ watermark. It runs in one of two places: a dedicated
// thread that coalesces every batch published since the last group into
// one fsync (the default), or, with the pipeline off, the writer itself,
// right after its publish, as a group of one (CommitInlineLocked).
//
// Journal discipline: while the path is armed, the pager batch is
// permanently armed — CommitBatch is immediately followed by BeginBatch
// under the same commit_mu_ hold, so every page overwritten after a
// group boundary (including buffer-pool evictions mid-apply) has its
// before-image journaled against that boundary. A crash therefore rolls
// back to the last durable group: published-but-not-durable batches
// disappear as units, never partially.

#include <chrono>

#include "core/spatial_index.h"

namespace zdb {

void SpatialIndex::NotifyPublished() {
  if (!commit_path_armed()) return;
  MutexLock gl(gc_mu_);
  gc_published_ = write_epoch();
  gc_cv_.NotifyOne();
}

uint64_t SpatialIndex::durable_epoch() const {
  MutexLock gl(gc_mu_);
  return gc_durable_;
}

void SpatialIndex::SetGroupCommitPaused(bool paused) {
  MutexLock gl(gc_mu_);
  gc_paused_ = paused;
  if (!paused) gc_cv_.NotifyAll();
}

bool SpatialIndex::DurabilitySettledLocked(uint64_t epoch) const {
  if (gc_durable_ >= epoch) return true;
  if (!gc_running_ || gc_dead_) return true;
  for (const FailedEpochs& f : gc_failed_) {
    if (epoch > f.lo && epoch <= f.hi) return true;
  }
  return false;
}

Status SpatialIndex::WaitDurable(uint64_t epoch, uint64_t timeout_ms) {
  MutexLock gl(gc_mu_);
  if (timeout_ms > 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!DurabilitySettledLocked(epoch)) {
      if (!gc_done_cv_.WaitUntil(gc_mu_, deadline)) {
        if (DurabilitySettledLocked(epoch)) break;
        return Status::TimedOut("epoch " + std::to_string(epoch) +
                                " not durable within " +
                                std::to_string(timeout_ms) + "ms");
      }
    }
  } else {
    while (!DurabilitySettledLocked(epoch)) gc_done_cv_.Wait(gc_mu_);
  }
  // A rolled-back epoch can be numerically below a later watermark, so
  // the failure ranges are consulted before the watermark.
  for (const FailedEpochs& f : gc_failed_) {
    if (epoch > f.lo && epoch <= f.hi) return f.status;
  }
  if (gc_durable_ >= epoch) return Status::OK();
  if (gc_dead_) {
    return Status::Unavailable(
        "commit path stopped before epoch " + std::to_string(epoch) +
        " became durable");
  }
  return Status::OK();  // never armed (or cleanly stopped): caller-owned
}

Status SpatialIndex::WritableLocked() const {
  if (commit_path() == CommitPath::kBroken) {
    return Status::Unavailable(
        "commit path stopped after a journal failure; reopen to recover "
        "the last durable group");
  }
  return Status::OK();
}

Status SpatialIndex::PublishOrRollbackLocked(const Status& st,
                                             bool mutated) {
  if (st.ok()) {
    PublishWrite();
    NotifyPublished();
    return st;
  }
  if (mutated && commit_path_armed()) return RollbackGroupLocked(st);
  return st;
}

Status SpatialIndex::CommitInlineLocked() {
  if (commit_path() != CommitPath::kInline) return Status::OK();
  return CommitGroupLocked();
}

Status SpatialIndex::StartGroupCommit(bool pipeline) {
  MutexLock commit(commit_mu_);
  if (commit_path() != CommitPath::kOff) {
    return Status::InvalidArgument("commit path already armed");
  }
  Pager* pager = pool_->pager();
  if (!pager->journaled()) {
    return Status::InvalidArgument("group commit requires a journaled pager");
  }
  if (pager->in_batch()) {
    return Status::InvalidArgument(
        "cannot start group commit inside a caller-managed pager batch");
  }

  // Make the current state durable — it becomes the initial group
  // boundary the armed journal's before-images roll back to.
  WriterSection section(this);
  const PageId master_before = master_page_;
  ZDB_RETURN_IF_ERROR(pager->BeginBatch());
  Status st = CheckpointLocked().status();
  if (st.ok()) st = pool_->FlushAll();
  if (st.ok()) st = pager->CommitBatch();
  if (st.ok()) st = pager->BeginBatch();  // arm for the first group
  if (!st.ok()) {
    if (pager->in_batch()) {
      Status undo = pager->AbortBatch();
      if (undo.ok() && master_before != kInvalidPageId) {
        master_page_ = master_before;
        undo = ReloadLocked();
      }
      if (!undo.ok()) {
        return Status::Corruption("group-commit bootstrap failed (" +
                                  st.ToString() +
                                  ") and rollback failed too: " +
                                  undo.ToString());
      }
    }
    return st;
  }
  gc_master_ = master_page_;
  {
    MutexLock gl(gc_mu_);
    gc_stop_ = false;
    gc_dead_ = false;
    gc_paused_ = false;
    gc_published_ = gc_durable_ = write_epoch();
    gc_failed_.clear();
    gc_running_ = true;
  }
  if (pipeline) {
    commit_path_.store(CommitPath::kPipeline, std::memory_order_release);
    gc_thread_ = std::thread(&SpatialIndex::GroupCommitLoop, this);
  } else {
    commit_path_.store(CommitPath::kInline, std::memory_order_release);
  }
  return Status::OK();
}

Status SpatialIndex::StopGroupCommit() {
  {
    MutexLock gl(gc_mu_);
    gc_stop_ = true;
    gc_paused_ = false;
    gc_cv_.NotifyAll();
  }
  if (gc_thread_.joinable()) gc_thread_.join();

  MutexLock commit(commit_mu_);
  if (!commit_path_armed()) return Status::OK();
  // The loop drained before exiting, but a writer may have published
  // between its last group and this point — commit so Stop() leaves
  // everything durable, then retire the armed batch.
  Status st = Status::OK();
  bool pending;
  {
    MutexLock gl(gc_mu_);
    pending = gc_published_ > gc_durable_;
  }
  if (pending) {
    WriterSection section(this);
    st = CheckpointLocked().status();
    if (st.ok()) st = pool_->FlushAll();
  }
  if (st.ok()) st = pool_->pager()->CommitBatch();
  if (!st.ok()) {
    // The batch stays armed and the intact journal rolls the undurable
    // tail back on the next open — the crash contract, applied to a
    // failed shutdown.
    BreakCommitPathLocked();
    return st;
  }
  commit_path_.store(CommitPath::kOff, std::memory_order_release);
  MutexLock gl(gc_mu_);
  gc_running_ = false;
  gc_durable_ = gc_published_;
  gc_done_cv_.NotifyAll();
  return st;
}

void SpatialIndex::GroupCommitLoop() {
  for (;;) {
    {
      MutexLock gl(gc_mu_);
      while (!(gc_stop_ || gc_dead_ ||
               (!gc_paused_ && gc_published_ > gc_durable_))) {
        gc_cv_.Wait(gc_mu_);
      }
      if (gc_dead_) return;
      if (gc_published_ <= gc_durable_) {
        if (gc_stop_) return;
        continue;
      }
      if (gc_paused_ && !gc_stop_) continue;
    }
    // The cycle's own error handling (rollback, failed-epoch ranges)
    // already informed the waiters; the loop itself keeps going unless
    // the pipeline was marked dead.
    (void)CommitGroup();
  }
}

Status SpatialIndex::CommitGroup() {
  MutexLock commit(commit_mu_);
  if (commit_path() != CommitPath::kPipeline) return Status::OK();
  return CommitGroupLocked();
}

Status SpatialIndex::CommitGroupLocked() {
  Pager* pager = pool_->pager();

  // Checkpoint in a brief writer section: it only rewrites metadata
  // pages through the buffer pool (no fsync inside). commit_mu_ keeps
  // write_epoch() frozen for the rest of the cycle, so `target` is
  // exactly the set of batches this group makes durable.
  uint64_t target = 0;
  Status st;
  {
    WriterSection section(this);
    target = write_epoch();
    st = CheckpointLocked().status();
  }

  // The expensive half — dirty-page write-back and the journal fsync —
  // runs after the section. Readers take no lock, so they keep querying
  // right through the durability window. Reader pins don't block the
  // flush (readers never mutate frame bytes, and commit_mu_ excludes
  // every mutator).
  if (st.ok()) st = pool_->FlushForCommit();
  if (st.ok()) st = pager->CommitBatch();

  if (!st.ok()) {
    WriterSection section(this);
    return RollbackGroupLocked(st);
  }

  gc_master_ = master_page_;
  {
    MutexLock gl(gc_mu_);
    gc_durable_ = target;
    gc_done_cv_.NotifyAll();
  }

  // Re-arm the journal for the next group. The group above is durable
  // whatever happens here, but without an armed journal no later write
  // can be made crash-atomic: a failure stops the path instead of
  // letting writes through unjournaled.
  if (!pager->BeginBatch().ok()) BreakCommitPathLocked();
  return Status::OK();
}

Status SpatialIndex::RollbackGroupLocked(const Status& cause) {
  // Invalidate the rolled-back epochs *before* reloading: once the
  // reload's quiesce barrier drops, a pinned reader must not be able to
  // open a snapshot at an epoch whose published state was just reloaded
  // away — MetaAt answers Aborted for the range from here on.
  uint64_t lo, hi;
  {
    MutexLock gl(gc_mu_);
    lo = gc_durable_;
    hi = gc_published_;
  }
  epoch_mgr_->InvalidateRange(lo, hi, cause);
  Pager* pager = pool_->pager();
  Status undo = pager->in_batch() ? pager->AbortBatch() : Status::OK();
  if (undo.ok()) {
    master_page_ = gc_master_;
    undo = ReloadLocked();
  }
  if (undo.ok()) undo = pager->BeginBatch();  // re-arm for the next group

  // The reload changed reader-visible state; publish a fresh epoch so
  // epoch-bracketed readers observe the transition. The rolled-back
  // epochs (last durable, last published] fail their waiters with the
  // cause; the new epoch *is* the durable state re-published.
  //
  // If the rollback itself failed, disk and memory may disagree: the
  // waiters learn that (Corruption, naming the cause), the path stops,
  // and the armed journal (if the abort is what failed) still recovers
  // the file on the next open.
  const Status result =
      undo.ok() ? cause
                : Status::Corruption("group rollback failed (" +
                                     cause.ToString() +
                                     "): " + undo.ToString());
  rollbacks_.fetch_add(1, std::memory_order_release);
  PublishWrite();
  {
    MutexLock gl(gc_mu_);
    if (gc_published_ > gc_durable_) {
      gc_failed_.push_back({gc_durable_, gc_published_, result});
    }
    gc_published_ = write_epoch();
    if (undo.ok()) gc_durable_ = gc_published_;
    gc_done_cv_.NotifyAll();
  }
  if (!undo.ok()) BreakCommitPathLocked();
  return result;
}

void SpatialIndex::BreakCommitPathLocked() {
  commit_path_.store(CommitPath::kBroken, std::memory_order_release);
  MutexLock gl(gc_mu_);
  gc_dead_ = true;
  gc_cv_.NotifyAll();
  gc_done_cv_.NotifyAll();
}

SpatialIndex::~SpatialIndex() {
  if (gc_thread_.joinable() || commit_path_armed()) {
    (void)StopGroupCommit();
  }
  // The pool's version chains are tagged with this index's epochs, and
  // the next index opened on the pool counts again from its own start:
  // none may outlive this one (no pin can, the manager aborts on it).
  if (epoch_mgr_ != nullptr) {
    epoch_mgr_->StopGc();
    pool_->ArmVersioning(0);
    pool_->versions()->Clear();
  }
}

}  // namespace zdb
