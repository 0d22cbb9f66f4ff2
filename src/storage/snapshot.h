// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Page-level before-image version chains and the thread-local snapshot
// view — the storage half of epoch-based snapshot reads (the pin/GC
// half lives in core/epoch.h).
//
// Model: every write batch publishes one write epoch E under the
// exclusive index latch. While the batch runs, the first mutation of a
// page through PageRef::mutable_data() appends the page's *pre-batch*
// bytes to its version chain, tagged `as_of = E-1` ("content at the end
// of epoch E-1"). A reader pinned at epoch P resolves a page by taking
// the first chain entry with `as_of >= P` (the oldest image still valid
// at P); if there is none, the live frame is current for P.
//
// Page bytes live in ref-counted PageBuffers, so nothing is copied to
// hand a page to a reader. The protocol (BufferPool::SnapshotFetch and
// BufferPool::PrepareWrite) rests on two rules:
//
//   * A reader first takes a reference to the live frame's buffer under
//     the pool-shard mutex and only then checks the chain (under the
//     chain-shard mutex). If the chain has an image for its epoch it
//     returns that; otherwise it returns the shared live buffer. It
//     holds no pin and copies nothing.
//   * The writer's first mutation of a page in a batch takes the
//     pool-shard mutex, then the chain-shard mutex. If no reader shares
//     the frame's buffer, it copies the bytes into the chain and goes on
//     mutating the buffer in place; if one does, the chain adopts that
//     buffer and the frame gets a private copy.
//
// So a buffer some reader holds is never written again: a reader that
// took its reference before the writer's first mutation is seen by the
// writer's share test, and one that took it after finds the chain
// entry the writer saved before releasing the pool-shard mutex. Later
// mutations of the same page in the same batch skip the save, and by
// then pinned readers resolve the page from its chain entry. Every
// other path that overwrites a frame (a load after a miss, New, reuse
// after eviction, Delete or Discard) replaces a shared buffer first.
//
// A reader skips the chain (and its shard mutex) when no entry with
// as_of at or above its epoch has ever been saved: the writer records
// the newest as_of it saves before the save, under the pool-shard
// mutex, and the reader tests it after taking its live reference under
// that mutex. A writer whose save came first in that mutex's order
// published the stamp before the reader's test; one that came later
// found the reader's reference and left the bytes alone.
//
// Chains are append-only per page (epochs are monotonic), so entries
// stay sorted by as_of without re-sorting. ReclaimBefore(M) drops every
// entry with as_of < M: no pin below M exists or can be created (the
// epoch manager's announce-then-validate pins, core/epoch.h), so
// nothing can look those entries up again.

#ifndef ZDB_STORAGE_SNAPSHOT_H_
#define ZDB_STORAGE_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/page.h"

namespace zdb {

/// Counters for the version-chain table. `live`/`bytes` are the current
/// footprint; `saved`/`reclaimed` are lifetime totals (their difference
/// is `live` — the GC reclamation tests assert on exactly that).
struct PageVersionStats {
  uint64_t live = 0;
  uint64_t bytes = 0;
  uint64_t saved = 0;
  uint64_t reclaimed = 0;
};

/// A page-sized byte buffer with an intrusive atomic reference count,
/// shared by a buffer-pool frame, the version chains and snapshot-backed
/// PageRefs. Copying a handle shares the bytes; the last handle frees
/// them. Bytes are written only by a holder that owns the buffer alone
/// (or, within one write batch, by the writer after its first-mutation
/// save; see the file comment), so readers need no lock.
class PageBuffer {
 public:
  PageBuffer() = default;
  /// A zero-filled buffer of `size` bytes.
  explicit PageBuffer(uint32_t size);
  /// A private copy of the `size` bytes at `data`.
  PageBuffer(const char* data, uint32_t size);

  PageBuffer(const PageBuffer& other) noexcept : rep_(other.rep_) { Ref(); }
  PageBuffer(PageBuffer&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)) {}
  PageBuffer& operator=(PageBuffer other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~PageBuffer() { Unref(); }

  explicit operator bool() const { return rep_ != nullptr; }
  const char* data() const { return BytesOf(rep_); }
  char* mutable_data() { return BytesOf(rep_); }

  /// True when another handle holds these bytes too. The count is read
  /// with acquire ordering, so a false answer synchronises with every
  /// other holder's release: their reads of the bytes happen before the
  /// caller's writes. Callers make the answer stable by excluding new
  /// handles (the pool-shard mutex guards every frame-buffer copy).
  bool shared() const {
    return rep_->refs.load(std::memory_order_acquire) > 1;
  }

 private:
  struct Rep {
    std::atomic<uint32_t> refs{1};
  };
  /// The bytes start a cache line after the count: readers of a hot
  /// page change the count on every fetch, and must not evict each
  /// other's copy of the page header with it.
  static constexpr size_t kHeader = 64;
  static_assert(sizeof(Rep) <= kHeader);

  static char* BytesOf(Rep* rep) {
    return reinterpret_cast<char*>(rep) + kHeader;
  }
  void Ref() {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  /// acq_rel: the last holder frees the bytes only after every other
  /// holder's reads of them.
  void Unref() {
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Free(rep_);
    }
  }
  static void Free(Rep* rep);

  Rep* rep_ = nullptr;
};

/// Sharded PageId -> before-image chain table. One instance per
/// BufferPool. Thread-safe; see the file comment for the protocol.
class PageVersions {
 public:
  explicit PageVersions(uint32_t page_size) : page_size_(page_size) {}
  PageVersions(const PageVersions&) = delete;
  PageVersions& operator=(const PageVersions&) = delete;

  /// Appends the pre-batch image of `page` tagged `as_of`, unless an
  /// entry for that as_of already exists — keep-first: only the batch's
  /// *first* save holds the true pre-batch bytes, and re-saves
  /// (checkpoint + batch sharing a stamp, a freed page re-deleted) must
  /// not overwrite it. The chain adopts `image` (page_size bytes);
  /// no one may write its bytes again. The caller holds the page's
  /// pool-shard mutex (MaySaveAtOrAfter's ordering rests on it).
  void SaveBeforeImage(PageId page, uint64_t as_of, PageBuffer image);

  /// First chain entry with as_of >= epoch, or a null buffer if the live
  /// frame is current for `epoch`.
  PageBuffer Lookup(PageId page, uint64_t epoch) const;

  /// False when no entry with as_of >= epoch has ever been saved, so
  /// Lookup(page, epoch) would find nothing for any page. Ordered
  /// against saves by the caller (see the file comment).
  bool MaySaveAtOrAfter(uint64_t epoch) const {
    return as_of_bound_.load(std::memory_order_acquire) > epoch;
  }

  /// Drops every entry with as_of < min_epoch. Called by the GC thread
  /// once no pin at or below those epochs can exist.
  void ReclaimBefore(uint64_t min_epoch);

  /// Drops everything (index shutdown / reload with no pins).
  void Clear();

  PageVersionStats stats() const;
  uint32_t page_size() const { return page_size_; }

 private:
  struct Entry {
    uint64_t as_of;
    PageBuffer data;
  };
  struct Shard {
    mutable Mutex mu;
    std::map<PageId, std::vector<Entry>> chains GUARDED_BY(mu);
  };
  static constexpr size_t kShards = 16;

  Shard& shard_for(PageId page) { return shards_[page % kShards]; }
  const Shard& shard_for(PageId page) const { return shards_[page % kShards]; }

  const uint32_t page_size_;
  std::array<Shard, kShards> shards_;
  /// One past the highest as_of ever saved (0: nothing saved yet).
  std::atomic<uint64_t> as_of_bound_{0};
  std::atomic<uint64_t> live_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> saved_{0};
  std::atomic<uint64_t> reclaimed_{0};
};

/// The non-page index state a pinned reader needs, captured by the
/// writer under the exclusive latch at every publish. Everything here
/// is a value copy or a shared immutable page buffer — a reader holding
/// the meta shares nothing mutable with later writers.
struct SnapshotMeta {
  PageId btree_root = kInvalidPageId;
  uint32_t btree_height = 1;
  /// The B+-tree's upper two levels at this epoch: the root page, and
  /// (when the root is internal) child i of the root at index i. Taken
  /// from the resident frames' buffers, which writers no longer mutate
  /// once this meta shares them. A null buffer (page not resident at
  /// capture) sends the read through the pool.
  PageBuffer btree_root_page;
  std::vector<PageBuffer> btree_root_children;
  uint32_t obj_next_oid = 0;
  std::vector<PageId> obj_pages;
  std::vector<PageId> poly_pages;
  uint64_t level_mask = 0;
  uint64_t live_objects = 0;
};

/// A thread-local redirection record: while installed (via
/// SnapshotScope), reads through the tagged components resolve at
/// `epoch` instead of the live state. BufferPool::Fetch matches `pool`,
/// BTree matches `btree`, the stores match `objects`/`polygons`, and
/// SpatialIndex matches `owner` (level mask / live-object count). Tags
/// are opaque pointers so storage/ stays ignorant of core/ types.
///
/// Views form a per-thread stack (nested queries — e.g. kNN issuing
/// window sweeps — reuse the installed view; an executor worker
/// installs its own). Lookups walk the stack and match the *innermost*
/// view for the component.
struct SnapshotView {
  uint64_t epoch = 0;
  PageVersions* versions = nullptr;
  const void* pool = nullptr;
  const void* owner = nullptr;
  const void* btree = nullptr;
  const void* objects = nullptr;
  const void* polygons = nullptr;
  /// The pinned epoch's meta; the pin keeps it alive.
  const SnapshotMeta* meta = nullptr;
  const SnapshotView* prev = nullptr;

  static const SnapshotView* FindPool(const void* pool);
  static const SnapshotView* FindOwner(const void* owner);
  static const SnapshotView* FindBTree(const void* btree);
  static const SnapshotView* FindObjects(const void* objects);
  static const SnapshotView* FindPolygons(const void* polygons);
};

/// RAII installer for a SnapshotView on the current thread. The view is
/// copied in; the scope must be destroyed on the thread that created it
/// (strictly nested, like any TLS stack).
class SnapshotScope {
 public:
  explicit SnapshotScope(SnapshotView view);
  ~SnapshotScope();
  SnapshotScope(const SnapshotScope&) = delete;
  SnapshotScope& operator=(const SnapshotScope&) = delete;

 private:
  SnapshotView view_;
};

}  // namespace zdb

#endif  // ZDB_STORAGE_SNAPSHOT_H_
