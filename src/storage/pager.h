// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Pager: allocates and persists fixed-size pages in a File, with a free
// list for recycling and counters for every page transfer. Access methods
// never talk to the pager directly; they go through the BufferPool so that
// repeated touches of a hot page are not charged as disk accesses.
//
// On-disk layout:
//   page 0 (header): magic | page_size | page_count | freelist_head
//   freed pages: first 4 bytes link to the next free page.

#ifndef ZDB_STORAGE_PAGER_H_
#define ZDB_STORAGE_PAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_set>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_slots.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/file.h"
#include "storage/page.h"

namespace zdb {

/// Allocates, reads and writes fixed-size pages within a File.
/// Thread-safe: writes, allocation, the free list and batch control are
/// guarded by one internal mutex, which CommitBatch and BeginBatch hold
/// across their syncs. ReadPage does not take it: a buffer-pool miss
/// never waits out a group commit's fsync or another miss. Reads take
/// `file_mu_` shared; only AbortBatch's restore and truncate take it
/// exclusively. The I/O counters are
/// relaxed atomics and may be read concurrently.
class Pager {
 public:
  /// Opens a pager over `file`. If the file is empty it is formatted with
  /// the given page size; otherwise the stored page size must match.
  static Result<std::unique_ptr<Pager>> Open(std::unique_ptr<File> file,
                                             uint32_t page_size);

  /// Opens a pager with a rollback journal for atomic batches. If the
  /// journal holds an uncommitted batch (crash before CommitBatch), it is
  /// rolled back before the pager becomes usable.
  static Result<std::unique_ptr<Pager>> Open(std::unique_ptr<File> file,
                                             std::unique_ptr<File> journal,
                                             uint32_t page_size);

  /// Convenience: pager over a fresh in-memory file.
  static std::unique_ptr<Pager> OpenInMemory(
      uint32_t page_size = kDefaultPageSize);

  // ------------------------------------------------- atomic batches
  //
  // Between BeginBatch() and CommitBatch(), the first in-place overwrite
  // of each pre-batch page appends its before-image to the journal; a
  // crash (reopen) before CommitBatch rolls every change back, including
  // truncating pages allocated inside the batch. Protocol per batch:
  // flush the buffer pool, then CommitBatch(). Requires a journal file.

  /// Starts an atomic batch. Fails if none was configured or one is
  /// already active.
  [[nodiscard]] Status BeginBatch() EXCLUDES(mu_);

  /// Durably ends the batch: header + file sync, then journal reset.
  [[nodiscard]] Status CommitBatch() EXCLUDES(mu_);

  /// Aborts the active batch at runtime: restores every journaled
  /// before-image, truncates pages allocated inside the batch, resets
  /// the allocation state (page count, free list) to its BeginBatch
  /// snapshot, and retires the journal — after which the pager is
  /// immediately usable and the next BeginBatch journals normally.
  /// Note the restored *file* content is the on-disk image at
  /// BeginBatch; callers that cache pages above the pager (BufferPool)
  /// must drop that cache, and callers whose cache was ahead of the
  /// disk must have flushed it before BeginBatch for the abort to
  /// restore their logical state exactly. If the abort itself fails
  /// (I/O error), the batch stays active and the intact journal still
  /// rolls everything back on the next Open().
  [[nodiscard]] Status AbortBatch() EXCLUDES(mu_);

  bool in_batch() const {
    return in_batch_.load(std::memory_order_acquire);
  }

  /// True if the pager was opened with a rollback journal (i.e. atomic
  /// batches are available).
  bool journaled() const { return journal_ != nullptr; }

  /// Number of batches durably committed (CommitBatch successes) over the
  /// pager's lifetime. Group-commit coalescing is observable here: k
  /// published write batches folded into one fsync bump this by one.
  uint64_t commit_count() const {
    return commit_count_.load(std::memory_order_relaxed);
  }

  uint32_t page_size() const { return page_size_; }

  /// Total pages ever allocated (including freed ones and the header).
  uint32_t page_count() const {
    return page_count_.load(std::memory_order_acquire);
  }

  /// Pages currently allocated to callers (excludes header and free list).
  uint32_t live_page_count() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return live_pages_;
  }

  /// Allocates a page (recycling the free list first). The new page's
  /// contents are undefined until written.
  [[nodiscard]] Result<PageId> Allocate() EXCLUDES(mu_);

  /// Returns a page to the free list.
  [[nodiscard]] Status Free(PageId id) EXCLUDES(mu_);

  /// Reads page `id` into `buf` (page_size bytes). Counts one page read.
  /// Takes no pager mutex (see the class comment).
  [[nodiscard]] Status ReadPage(PageId id, char* buf) EXCLUDES(file_mu_);

  /// Writes page `id` from `buf`. Counts one page write.
  [[nodiscard]] Status WritePage(PageId id, const char* buf) EXCLUDES(mu_);

  /// Persists the header (page count, free list) and syncs the file.
  [[nodiscard]] Status Sync() EXCLUDES(mu_);

  /// A snapshot of the counters; pool_hits is summed over the
  /// per-thread hit counts at the call.
  IoStats io_stats() const {
    IoStats s = io_;
    s.pool_hits.store(pool_hits_.Sum(), std::memory_order_relaxed);
    return s;
  }
  /// Misses, evictions, reads and writes. Hits go through CountPoolHit.
  IoStats* mutable_io_stats() { return &io_; }

  /// Counts one buffer-pool hit on the calling thread's own counter, so
  /// concurrent hits share no cache line.
  void CountPoolHit() { pool_hits_.Add(); }

  /// Simulated device latency added to every ReadPage, in microseconds.
  /// The stall is taken *before* the internal mutex, so concurrent
  /// readers overlap their waits exactly as they would against a real
  /// device queue. Benchmarking aid for in-memory pagers (deterministic
  /// SSD/HDD emulation); 0 (the default) disables it.
  void set_simulated_read_latency_us(uint32_t us) {
    sim_read_latency_us_.store(us, std::memory_order_relaxed);
  }

 private:
  Pager(std::unique_ptr<File> file, uint32_t page_size)
      : file_(std::move(file)), page_size_(page_size) {}

  /// Unlocked bodies shared by the public entry points and by internal
  /// callers that hold mu_. A read needs file_mu_ shared or mu_ (which
  /// excludes AbortBatch); a write needs mu_.
  Status ReadPageInternal(PageId id, char* buf);
  Status WritePageInternal(PageId id, const char* buf) REQUIRES(mu_);

  Status LoadHeader() REQUIRES(mu_);
  Status StoreHeader() REQUIRES(mu_);

  /// Appends page `id`'s current on-disk image to the journal if this
  /// batch has not journaled it yet.
  Status JournalBeforeImage(PageId id) REQUIRES(mu_);

  /// Restores before-images from a non-empty journal and truncates the
  /// database back to its pre-batch size.
  Status Rollback() REQUIRES(mu_);

  /// The replay half of Rollback()/AbortBatch(): writes every journaled
  /// before-image back into the database file, truncates pages born in
  /// the batch and syncs the file. Does not reset the journal.
  Status ReplayJournal() REQUIRES(mu_);

  mutable Mutex mu_;
  /// Shared by page reads, exclusive for AbortBatch's restore (lock
  /// order: mu_, then file_mu_).
  mutable SharedMutex file_mu_ ACQUIRED_AFTER(mu_);
  /// file_/journal_ are set once during Open; the pointers never change
  /// post-open. The journal is only dereferenced under mu_; the file is
  /// read under file_mu_ shared and otherwise used under mu_ (a File
  /// serves reads concurrently with one writer).
  std::unique_ptr<File> file_;
  std::unique_ptr<File> journal_ PT_GUARDED_BY(mu_);
  uint32_t page_size_;
  /// Written under mu_, read without it (ReadPage's bounds check).
  std::atomic<uint32_t> page_count_{1};  // page 0 is the header
  uint32_t live_pages_ GUARDED_BY(mu_) = 0;
  PageId freelist_head_ GUARDED_BY(mu_) = kInvalidPageId;
  IoStats io_;  ///< relaxed atomics; read concurrently without mu_
                ///< (its pool_hits stays 0: hits live in pool_hits_)
  ThreadCounter pool_hits_;
  std::atomic<uint32_t> sim_read_latency_us_{0};

  /// Atomic so in_batch() may be polled without the pager mutex (e.g.
  /// by SpatialIndex::ApplyBatch deciding whether to journal); mutated
  /// only inside Begin/CommitBatch under mu_.
  std::atomic<bool> in_batch_{false};
  std::atomic<uint64_t> commit_count_{0};
  // Allocation state snapshotted at BeginBatch, restored by AbortBatch
  // (the journaled page-0 image may predate un-synced header changes,
  // so the in-memory counters are the authoritative pre-batch state).
  uint32_t batch_page_count_ GUARDED_BY(mu_) = 0;
  PageId batch_freelist_head_ GUARDED_BY(mu_) = kInvalidPageId;
  uint32_t batch_live_pages_ GUARDED_BY(mu_) = 0;
  uint32_t journal_entries_ GUARDED_BY(mu_) = 0;
  std::unordered_set<PageId> journaled_ GUARDED_BY(mu_);
};

}  // namespace zdb

#endif  // ZDB_STORAGE_PAGER_H_
