// Copyright (c) zdb authors. Licensed under the MIT license.
//
// LRU buffer pool over a Pager. Callers pin pages through RAII PageRefs;
// unpinned pages stay cached until evicted, and only pool misses and dirty
// write-backs reach the pager's I/O counters. Benches control the cache
// regime by sizing the pool (e.g. "root page only" to mirror the 1989
// experimental setups).
//
// Concurrency: the pool is safe for concurrent Fetch/New/Delete and for
// concurrent PageRef release. The page table is sharded by page id; each
// shard has its own mutex, frames, free list and LRU clock, so readers on
// different shards never contend. Pin counts are atomics released without
// a lock; eviction only considers frames whose pin count is zero *while
// holding the shard lock*, and new pins are only created under that same
// lock, so eviction can never race a pin. Snapshot fetches (Fetch under
// an installed SnapshotView) take no pin at all: they share the frame's
// ref-counted page buffer, and every path that overwrites a frame gives
// it a fresh buffer first if anyone still holds the old one. Small pools
// (< 32 frames) use a single shard, preserving the exact global-LRU
// semantics the cold-cache experiments rely on. FlushAll/Clear lock all
// shards and are intended to be called from one thread with no
// concurrent mutators.

#ifndef ZDB_STORAGE_BUFFER_POOL_H_
#define ZDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/pager.h"
#include "storage/snapshot.h"

namespace zdb {

class BufferPool;

/// RAII pin on a cached page. While a PageRef is alive the frame cannot be
/// evicted and its data pointer stays valid. Move-only. A PageRef may be
/// released from any thread.
///
/// A PageRef returned by Fetch under an installed SnapshotView is instead
/// backed by a shared PageBuffer: a version-chain image, or the live
/// frame's own buffer when that is current for the view's epoch. Such a
/// ref holds no pin (so it never blocks eviction, Delete or Discard), its
/// bytes are immutable for its whole lifetime (the writer copies a page
/// before mutating a buffer a reader shares, and a reused frame gets a
/// fresh buffer), and mutable_data() aborts. FetchHeld hands out a third
/// kind: a ref that borrows bytes its caller keeps alive, holding
/// neither a pin nor a reference.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  ~PageRef() { Release(); }

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  /// A ref that borrows `buf`'s bytes as page `id`. The caller keeps
  /// the buffer alive and unmodified for the ref's lifetime. Counts no
  /// page access (BufferPool::FetchHeld is the counted form).
  static PageRef Borrowed(const PageBuffer& buf, PageId id) {
    return PageRef(buf.data(), id);
  }

  bool valid() const { return pool_ != nullptr || bytes_ != nullptr; }
  PageId id() const;

  /// Read-only view of the page bytes.
  const char* data() const;

  /// Mutable view; automatically marks the page dirty and, when the
  /// pool's versioning is armed, saves the page's pre-batch image into
  /// the version chains first (copy-on-write for pinned readers).
  char* mutable_data();

  /// Drops the pin early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, uint32_t shard, uint32_t frame)
      : pool_(pool), shard_(shard), frame_(frame) {}
  PageRef(PageBuffer snap, PageId id)
      : bytes_(snap.data()), snap_(std::move(snap)), snap_id_(id) {}
  PageRef(const char* borrowed, PageId id)
      : bytes_(borrowed), snap_id_(id) {}

  BufferPool* pool_ = nullptr;
  uint32_t shard_ = 0;
  uint32_t frame_ = 0;
  /// Snapshot-backed and borrowed refs: the page bytes (snap_ holds the
  /// reference that keeps them alive, if this ref holds one).
  const char* bytes_ = nullptr;
  PageBuffer snap_;
  PageId snap_id_ = kInvalidPageId;
};

/// Fixed-capacity page cache with sharded LRU replacement and pin counts.
class BufferPool {
 public:
  /// `capacity` is the total number of page frames (>= 1).
  BufferPool(Pager* pager, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from the pager on a miss. Thread-safe.
  [[nodiscard]] Result<PageRef> Fetch(PageId id);

  /// Counts a pool hit for page `id` and returns a ref that borrows
  /// `held`, bytes of that page the caller keeps alive and unmodified
  /// for the ref's lifetime (a pinned snapshot meta's upper B+-tree
  /// pages). No lock, no reference count, no chain lookup.
  PageRef FetchHeld(PageId id, const PageBuffer& held);

  /// The buffer of page `id` if it is resident, else a null buffer.
  /// Counts nothing and does not touch the LRU order. The writer uses
  /// it to share upper B+-tree pages with a snapshot meta.
  PageBuffer ResidentBuffer(PageId id);

  /// Allocates a fresh page, pinned and zero-filled (and dirty).
  /// Thread-safe.
  [[nodiscard]] Result<PageRef> New();

  /// Removes page `id` from the pool (must be unpinned) and frees it in
  /// the pager.
  [[nodiscard]] Status Delete(PageId id);

  /// Writes back every dirty unpinned page. If dirty pages remain pinned
  /// after that, returns InvalidArgument naming how many pins block the
  /// flush and which page — everything flushable has still been written,
  /// so retrying after releasing the pins completes the flush.
  [[nodiscard]] Status FlushAll();

  /// Writes back every dirty page, *including* pinned ones. Only safe
  /// when no mutator can race the write-back — i.e. the caller excludes
  /// all writers (the group-commit thread holds the index commit mutex)
  /// and remaining pins are read-only. Readers never mutate frame bytes,
  /// so copying a reader-pinned frame to the pager is a consistent
  /// snapshot; the frame stays cached and pinned afterwards.
  [[nodiscard]] Status FlushForCommit();

  /// Writes back everything and drops the cache (keeps capacity).
  [[nodiscard]] Status Clear();

  /// Drops every cached page WITHOUT writing dirty frames back, so the
  /// cache afterwards reflects exactly what is on disk. Fails (dropping
  /// nothing) if any frame is pinned. Pairs with Pager::AbortBatch():
  /// once the file is rolled back, discarding the partially mutated
  /// cache makes subsequent fetches reload the restored images. Like
  /// FlushAll/Clear, intended for one thread with no concurrent
  /// mutators.
  [[nodiscard]] Status Discard();

  Pager* pager() const { return pager_; }
  size_t capacity() const { return capacity_; }

  /// The before-image version chains backing snapshot reads. Always
  /// present; empty (and never written) until versioning is armed.
  PageVersions* versions() { return &versions_; }

  /// Arms copy-on-write before-images for the write batch that will
  /// publish epoch `stamp` (stamp = current epoch + 1): until re-armed,
  /// the first mutation of each page saves its current bytes tagged
  /// `stamp - 1`. Called by the index writer section under the
  /// exclusive latch; 0 (the initial value) means versioning is off and
  /// mutable_data() saves nothing.
  void ArmVersioning(uint64_t stamp) {
    save_stamp_.store(stamp, std::memory_order_release);
  }

  /// Number of table shards (1 for small pools).
  size_t shard_count() const { return shards_.size(); }

  /// Pages currently cached. Takes every shard lock; diagnostics use.
  size_t cached_pages() const;

  /// Frames currently pinned by live PageRefs. Takes every shard lock;
  /// diagnostics use (e.g. verifying no pins remain before Checkpoint).
  size_t pinned_pages() const;

 private:
  friend class PageRef;

  /// Frame fields are deliberately NOT GUARDED_BY(shard mu): id/buf are
  /// read by pinned PageRefs without the shard lock (the pin count — not
  /// the mutex — is what keeps them stable), and pins/dirty are atomics.
  /// id, buf and last_used are only *mutated* under the shard lock; the
  /// buf handle is replaced by the pinning writer's first-mutation save
  /// when a snapshot reader shares it, and by every reuse of the frame
  /// (load, New) when anyone still holds it. Snapshot readers copy the
  /// handle under the shard lock, never the bytes.
  /// save_stamp marks the versioning batch whose before-image save this
  /// frame already performed (0 = none since load); it is written under
  /// the shard lock on load and by the single armed mutator otherwise.
  struct Frame {
    PageId id = kInvalidPageId;
    PageBuffer buf;
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> dirty{false};
    uint64_t last_used = 0;
    std::atomic<uint64_t> save_stamp{0};
  };

  /// try_lock attempts before a shard lock sleeps: its holders only
  /// look up, touch or swap a frame.
  static constexpr int kShardLockSpins = 100;

  struct Shard {
    mutable Mutex mu{kShardLockSpins};
    std::vector<Frame> frames;  ///< fixed at construction; see Frame note
    std::vector<uint32_t> free_frames GUARDED_BY(mu);
    std::unordered_map<PageId, uint32_t> table GUARDED_BY(mu);
    uint64_t tick GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(PageId id) {
    return shards_[static_cast<size_t>(id) & shard_mask_];
  }

  void Unpin(uint32_t shard, uint32_t frame);
  static void Touch(Shard& s, uint32_t frame) REQUIRES(s.mu) {
    s.frames[frame].last_used = ++s.tick;
  }

  /// Finds a frame to (re)use within the shard, evicting the LRU unpinned
  /// page if needed.
  Result<uint32_t> AcquireFrame(Shard& s) REQUIRES(s.mu);

  /// Reads page `id` from the pager into a fresh unpinned frame of `s`
  /// and maps it. Counts nothing; the caller sets pins before unlocking.
  Result<uint32_t> LoadFrame(Shard& s, PageId id) REQUIRES(s.mu);

  /// The bytes of frame `f` (of shard `s`), ready to be overwritten:
  /// first gives the frame a fresh buffer if anyone else holds its
  /// current one.
  char* ReusableBytes(Shard& s, Frame& f) REQUIRES(s.mu);

  /// Writes frame `f` (which must belong to shard `s`) back to the pager
  /// if dirty. The shard reference is the capability token.
  Status WriteBack(Shard& s, Frame* f) REQUIRES(s.mu);

  /// Shared body of FlushAll/FlushForCommit.
  Status FlushInternal(bool include_pinned);

  /// Charges one pool hit (and one fetched page) to the pager's
  /// per-thread hit count and to the calling thread's `tls` shadow, if
  /// any.
  void CountHit(ThreadIoStats* tls);

  /// The non-redirecting Fetch body (live frames only).
  Result<PageRef> FetchLive(PageId id);

  /// Resolves `id` at the view's pinned epoch: the chain entry if one
  /// covers the epoch, otherwise the live frame's buffer, shared. Takes
  /// one pool-shard lock, and one chain-shard lock unless no version at
  /// or after the epoch can exist; the returned ref holds no pin. See
  /// storage/snapshot.h for the protocol.
  Result<PageRef> SnapshotFetch(const SnapshotView& view, PageId id);

  /// First-mutation hook behind PageRef::mutable_data(): once per
  /// armed batch, saves the frame's bytes as the page's before-image,
  /// handing the chain the buffer itself if a snapshot reader shares it.
  void PrepareWrite(uint32_t shard, uint32_t frame);

  Pager* pager_;
  size_t capacity_;
  size_t shard_mask_;            ///< shard count - 1 (power of two)
  std::vector<Shard> shards_;
  PageVersions versions_;
  std::atomic<uint64_t> save_stamp_{0};
};

}  // namespace zdb

#endif  // ZDB_STORAGE_BUFFER_POOL_H_
