// Copyright (c) zdb authors. Licensed under the MIT license.
//
// LRU buffer pool over a Pager. Callers pin pages through RAII PageRefs;
// unpinned pages stay cached until evicted, and only pool misses and dirty
// write-backs reach the pager's I/O counters. Benches control the cache
// regime by sizing the pool (e.g. "root page only" to mirror the 1989
// experimental setups).
//
// Concurrency: the pool is safe for concurrent Fetch/New/Delete and for
// concurrent PageRef release. Frames are split into shards by page id;
// each shard has its own mutex, frames, free list and LRU clock. One
// atomic open-addressing page table maps page id to frame, a region per
// shard, written only under that shard's mutex. Pinned fetches
// (FetchLive, New) and every miss take the shard mutex. Pin counts are
// atomics released without a lock; eviction only considers frames whose
// pin count is zero *while holding the shard lock*, and new pins are
// only created under that same lock, so eviction can never race a pin.
//
// Snapshot fetches (Fetch under an installed SnapshotView) of a resident
// page take no lock, change no reference count and write no shared
// cache line: they probe the page table, announce the frame's buffer in
// a per-thread hazard slot and re-check the frame (storage/snapshot.h
// has the protocol). Their LRU stamp is approximate: a hit raises the
// frame's stamp to the shard clock only when it is behind it, and the
// clock advances on loads, New and pinned hits, so an all-resident pool
// takes no write on a snapshot hit. Hits at one clock value tie, so the
// eviction order among them is by frame, not by recency.
//
// Small pools (< 32 frames) use a single shard, so the LRU order (with
// the snapshot-hit ties above) is global to the pool.
// FlushAll/Clear lock all shards and are intended to be called from one
// thread with no concurrent mutators.

#ifndef ZDB_STORAGE_BUFFER_POOL_H_
#define ZDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_slots.h"
#include "storage/pager.h"
#include "storage/snapshot.h"

namespace zdb {

class BufferPool;

/// RAII pin on a cached page. While a PageRef is alive the frame cannot be
/// evicted and its data pointer stays valid. Move-only. A pinned PageRef
/// may be released from any thread.
///
/// A PageRef returned by Fetch under an installed SnapshotView holds no
/// pin (so it never blocks eviction, Delete or Discard) and its bytes
/// are immutable for its whole lifetime; mutable_data() aborts. It is
/// one of:
///   * a hazard ref on the live frame's buffer: one of the fetching
///     thread's hazard slots names the buffer, so the pool neither
///     reuses nor frees it. Thread-affine: releasing (or destroying) it
///     on another thread aborts.
///   * a borrowed version-chain image, kept alive by the reader's epoch
///     pin.
///   * a counted ref on the live buffer, when all the thread's hazard
///     slots are in use.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  ~PageRef() { Release(); }

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  bool valid() const { return pool_ != nullptr || bytes_ != nullptr; }
  PageId id() const;

  /// Read-only view of the page bytes.
  const char* data() const;

  /// Mutable view; automatically marks the page dirty and, when the
  /// pool's versioning is armed, first hands the page's pre-batch
  /// buffer to the version chains and moves the frame to a copy.
  char* mutable_data();

  /// Drops the pin, hazard or reference early (also done by the
  /// destructor).
  void Release();

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, uint32_t shard, uint32_t frame)
      : pool_(pool), shard_(shard), frame_(frame) {}
  PageRef(PageBuffer counted, PageId id)
      : bytes_(counted.data()), counted_(std::move(counted)), snap_id_(id) {}
  PageRef(const char* borrowed, PageId id)
      : bytes_(borrowed), snap_id_(id) {}
  PageRef(std::atomic<const char*>* hazard, const char* bytes, PageId id)
      : bytes_(bytes),
        snap_id_(id),
        hazard_(hazard),
        hazard_owner_(ThisThreadIndex()) {}

  BufferPool* pool_ = nullptr;
  uint32_t shard_ = 0;
  uint32_t frame_ = 0;
  /// Snapshot-backed and borrowed refs: the page bytes.
  const char* bytes_ = nullptr;
  PageBuffer counted_;  ///< counted refs: keeps bytes_ alive
  PageId snap_id_ = kInvalidPageId;
  /// Hazard refs: the slot announcing bytes_, and the thread owning it.
  std::atomic<const char*>* hazard_ = nullptr;
  uint32_t hazard_owner_ = 0;
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
  /// the first mutation of each page hands its current buffer to the
  /// chains tagged `stamp - 1`. Called by the index writer section,
  /// under the index's writer lock; 0 (the initial value) disarms
  /// versioning, and mutable_data() then writes in place and saves
  /// nothing.
  void ArmVersioning(uint64_t stamp) {
    save_stamp_.store(stamp, std::memory_order_release);
  }
  /// The stamp last armed (0: disarmed).
  uint64_t versioning_stamp() const {
    return save_stamp_.load(std::memory_order_acquire);
  }

  /// Number of table shards (1 for small pools).
  size_t shard_count() const { return shards_.size(); }

  /// Frames currently pinned by live PageRefs. Takes every shard lock;
  /// diagnostics use (e.g. verifying no pins remain before Checkpoint).
  size_t pinned_pages() const;

  /// Buffers taken out of frames that the latest scan of the hazard
  /// slots kept back because a slot named them. Never more than
  /// hazard_slots(), however long any reader holds its epoch pin.
  size_t held_back_buffers() const;

  /// Hazard slots allocated so far, over every thread that has fetched
  /// from this pool.
  size_t hazard_slots() const;

 private:
  friend class PageRef;

  /// Frame fields are deliberately NOT GUARDED_BY(shard mu). id, buf,
  /// bytes and last_used are *mutated* under the shard lock (the
  /// pinning writer's first-mutation swap takes it too), id and bytes
  /// only through Republish. `seq`, `id` and `bytes` form a seqlock that
  /// lock-free snapshot readers read (storage/snapshot.h); pinned
  /// PageRefs read id/buf without the lock (the pin count, not the
  /// mutex, keeps them stable), and pins/dirty are atomics. A free frame
  /// has no buffer. save_stamp marks the versioning batch whose
  /// before-image save this frame already performed (0 = none since
  /// load); it is written under the shard lock on load and by the
  /// single armed mutator otherwise.
  struct alignas(kCacheLineSize) Frame {
    std::atomic<uint64_t> seq{0};  ///< odd while id/bytes change
    std::atomic<PageId> id{kInvalidPageId};
    std::atomic<const char*> bytes{nullptr};  ///< buf.data(), published
    PageBuffer buf;
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> dirty{false};
    std::atomic<uint64_t> last_used{0};
    std::atomic<uint64_t> save_stamp{0};
  };

  /// try_lock attempts before a shard lock sleeps: its holders only
  /// look up, load or swap a frame.
  static constexpr int kShardLockSpins = 100;

  /// Shard s owns frames_[frame_base, frame_base + frame_count) and the
  /// page-table region index_[index_base, index_base + index_mask_ + 1).
  struct Shard {
    /// The LRU clock. Written under mu; read by lock-free hits, so it
    /// sits on its own cache line.
    alignas(kCacheLineSize) std::atomic<uint64_t> tick{0};
    alignas(kCacheLineSize) mutable Mutex mu{kShardLockSpins};
    uint32_t frame_base = 0;
    uint32_t frame_count = 0;
    uint32_t index_base = 0;
    std::vector<uint32_t> free_frames GUARDED_BY(mu);
  };

  /// Hazard slots per thread: the snapshot refs one thread can hold at
  /// once without falling back to a counted ref.
  static constexpr int kHazardsPerThread = 8;
  struct alignas(kCacheLineSize) HazardSlot {
    std::atomic<const char*> hazard[kHazardsPerThread] = {};
  };

  /// Retired buffers scanned against the hazard slots at once, and the
  /// most recycled buffers kept for reuse.
  static constexpr size_t kRetireBatch = 32;
  static constexpr size_t kMaxSpare = 2 * kRetireBatch;

  Shard& shard_for(PageId id) {
    return shards_[static_cast<size_t>(id) & shard_mask_];
  }

  void Unpin(uint32_t frame);

  // ----- page table (lock-free reads; writes REQUIRES the shard mutex)

  /// Home slot of `id` within its shard's region.
  uint32_t IndexHome(PageId id) const;
  /// The frame mapped to `id`, or -1. Lock-free: without the shard
  /// mutex the answer is a hint (a concurrent move may hide an entry,
  /// and a stale one is caught by the caller's re-check).
  int64_t IndexFind(const Shard& s, PageId id) const;
  void IndexInsert(Shard& s, PageId id, uint32_t frame) REQUIRES(s.mu);
  void IndexErase(Shard& s, PageId id) REQUIRES(s.mu);
  void IndexClear(Shard& s) REQUIRES(s.mu);

  // ----- frame buffers

  /// Publishes page `id` in buffer `fresh` as the frame's content,
  /// under the frame's seqlock, and retires the frame's old buffer.
  /// (kInvalidPageId, null) empties the frame.
  void Republish(Shard& s, Frame& f, PageId id, PageBuffer fresh)
      REQUIRES(s.mu);
  /// A buffer for a frame to fill: a recycled one, or a new one.
  PageBuffer SpareBuffer() EXCLUDES(recycle_mu_);
  /// Hands an unpublished buffer to the recycler: it is reused or
  /// dropped once no hazard slot names it.
  void Retire(PageBuffer buf) EXCLUDES(recycle_mu_);
  /// Moves every retired buffer no hazard slot names to the spare list
  /// (or drops it).
  void ScanRetired() REQUIRES(recycle_mu_);

  /// Finds a frame to (re)use within the shard, evicting the LRU unpinned
  /// page if needed.
  Result<uint32_t> AcquireFrame(Shard& s) REQUIRES(s.mu);

  /// Reads page `id` from the pager into a fresh unpinned frame of `s`
  /// and maps it. Counts nothing; the caller sets pins before unlocking.
  Result<uint32_t> LoadFrame(Shard& s, PageId id) REQUIRES(s.mu);

  /// Writes frame `f` (which must belong to shard `s`) back to the pager
  /// if dirty. The shard reference is the capability token.
  Status WriteBack(Shard& s, Frame* f) REQUIRES(s.mu);

  /// Shared body of FlushAll/FlushForCommit.
  Status FlushInternal(bool include_pinned);

  /// Exact LRU touch (pinned hits, loads, New): advances the clock.
  static void Touch(Shard& s, Frame& f) REQUIRES(s.mu);
  /// Approximate LRU touch (snapshot hits, no lock): raises the frame's
  /// stamp to the clock only when it is behind. A page hit again and
  /// again writes nothing shared; an exact rule (a fresh tick per hit)
  /// cost the durable_write benchmark about 12% CPU per operation in
  /// bounced cache lines.
  static void StampIfStale(const Shard& s, Frame& f);

  /// A free hazard slot of the calling thread, or nullptr when all are
  /// in use.
  std::atomic<const char*>* FreeHazard();

  /// The non-redirecting Fetch body (live frames only).
  Result<PageRef> FetchLive(PageId id);

  /// Resolves `id` at the view's pinned epoch: the chain entry if one
  /// covers the epoch, otherwise the live frame's buffer under a hazard.
  /// A resident page takes no lock; a miss takes the shard mutex and
  /// loads it. See storage/snapshot.h for the protocol.
  Result<PageRef> SnapshotFetch(const SnapshotView& view, PageId id);

  /// A snapshot ref on frame `f`'s buffer, taken under the shard mutex
  /// (so the buffer cannot be unpublished meanwhile): a hazard ref when
  /// the thread has a free slot, else a counted one.
  PageRef LiveRefLocked(Shard& s, Frame& f, PageId id) REQUIRES(s.mu);

  /// First-mutation hook behind PageRef::mutable_data(): once per
  /// armed batch, hands the frame's buffer to the chains as the page's
  /// before-image and moves the frame to a copy.
  void PrepareWrite(uint32_t shard, uint32_t frame);

  Pager* pager_;
  size_t capacity_;
  size_t shard_mask_;            ///< shard count - 1 (power of two)
  uint32_t index_mask_;          ///< per-shard page-table region size - 1
  std::vector<Shard> shards_;
  std::unique_ptr<Frame[]> frames_;
  std::unique_ptr<std::atomic<uint64_t>[]> index_;
  PageVersions versions_;
  std::atomic<uint64_t> save_stamp_{0};

  ThreadSlots<HazardSlot> hazards_;
  /// Recycler: leaf lock, taken under a shard mutex.
  mutable Mutex recycle_mu_;
  std::vector<PageBuffer> retired_ GUARDED_BY(recycle_mu_);
  std::vector<PageBuffer> spare_ GUARDED_BY(recycle_mu_);
  size_t held_back_ GUARDED_BY(recycle_mu_) = 0;
};

}  // namespace zdb

#endif  // ZDB_STORAGE_BUFFER_POOL_H_
