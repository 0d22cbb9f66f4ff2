// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Page-level before-image version chains and the thread-local snapshot
// view — the storage half of epoch-based snapshot reads (the pin/GC
// half lives in core/epoch.h).
//
// Model: every write batch publishes one write epoch E under the
// index's writer lock. While the batch runs, the first mutation of a
// page through PageRef::mutable_data() appends the page's *pre-batch*
// bytes to its version chain, tagged `as_of = E-1` ("content at the end
// of epoch E-1"). A reader pinned at epoch P resolves a page by taking
// the first chain entry with `as_of >= P` (the oldest image still valid
// at P); if there is none, the live frame is current for P.
//
// Page bytes live in PageBuffers, so nothing is copied to hand a page
// to a reader. A reader holds no lock, no pin and no reference count on
// the live page it reads; the protocol (BufferPool::SnapshotFetch and
// BufferPool::PrepareWrite) rests on three rules:
//
//   * Hazards. A frame publishes its page id and buffer under a
//     sequence count (a seqlock: odd while the writer changes them). A
//     reader reads the count, the page id and the buffer, announces the
//     buffer in one of its thread's hazard slots (seq_cst), and re-reads
//     the count (seq_cst): unchanged and even means the buffer was that
//     page's live bytes at that moment. Every path that takes a buffer
//     out of a frame first makes the count odd (seq_cst) and later hands
//     the buffer to the pool's retired list; a retired buffer is reused
//     or freed only once a scan of every hazard slot (seq_cst loads)
//     finds no slot naming it. The two seq_cst pairs are Dekker's:
//     either the scan sees the announce, or the reader's re-read sees
//     the count move and retries. The id and buffer are stored with
//     release after the odd count and loaded with acquire before the
//     re-read, so a reader that loads a new id or buffer also sees the
//     odd count (it happened before the store it read) and retries,
//     and its re-read cannot be hoisted above those loads. This is the
//     seqlock's ordering carried by the atomics themselves: no
//     standalone fence is needed, ThreadSanitizer models every edge
//     (it does not model std::atomic_thread_fence), and on x86 the
//     release stores and acquire loads are the plain moves that the
//     fences compiled to.
//   * Always swap. The writer's first mutation of a page in a batch
//     hands the frame's buffer to the version chain (tagged as below)
//     and mutates a copy, published only after the save. So a buffer a
//     reader may hold is never written again: later mutations in the
//     batch land on the copy, and a reader that finds the copy also
//     finds the chain entry (the save happens before the copy's
//     publication). The chain keeps the buffer until the GC reclaims
//     the entry, which waits for every pin at or below its as_of, and
//     any reader that took that buffer from the frame is pinned at or
//     below it. A chain that already has an entry for the batch
//     (keep-first) gives the buffer back and it is retired.
//   * Read the chain after the live buffer. If the chain has an image
//     for the reader's epoch it returns that (borrowed: the reader's
//     pin keeps the entry), otherwise the live buffer.
//
// A reader skips the chain (and its shard mutex) when no entry with
// as_of at or above its epoch has ever been saved: the writer raises
// that bound before its save, and the save comes before the copy's
// publication. A reader that took the old buffer before the swap may
// miss the bound, and then returns the pre-batch bytes, which are
// exactly its epoch's; one that took the copy sees the bound.
//
// Held-back buffers are bounded: a scan keeps only retired buffers some
// slot names, at most one per slot, however long a reader's epoch pin
// lasts. Pages written while versioning is disarmed (checkpoint
// metadata: the B+-tree meta page, directory chains, the master page)
// are mutated in place; no snapshot read reaches them, which debug
// builds check (PrepareWrite aborts on a disarmed write to a buffer a
// snapshot read was handed).
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
/// shared by a buffer-pool frame, the version chains and snapshot metas.
/// Copying a handle shares the bytes; the last handle frees them. Bytes
/// are written only by a holder no reader can have seen them through
/// (see the file comment), so readers need no lock.
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
  /// handles.
  bool shared() const {
    return rep_->refs.load(std::memory_order_acquire) > 1;
  }

#ifndef NDEBUG
  /// Debug builds: marks the buffer at `bytes` as handed to a snapshot
  /// reader, and reads that mark back (BufferPool::PrepareWrite checks
  /// it). A buffer the pool recycles gets the mark cleared.
  static void NoteSnapshotRead(const char* bytes) {
    RepOf(bytes)->snapshot_read.store(true, std::memory_order_relaxed);
  }
  bool snapshot_read() const {
    return rep_->snapshot_read.load(std::memory_order_relaxed);
  }
  void clear_snapshot_read() {
    rep_->snapshot_read.store(false, std::memory_order_relaxed);
  }
#endif

 private:
  struct Rep {
    std::atomic<uint32_t> refs{1};
#ifndef NDEBUG
    std::atomic<bool> snapshot_read{false};
#endif
  };
  /// The bytes start a cache line after the header, so they keep the
  /// page's own cache-line alignment.
  static constexpr size_t kHeader = 64;
  static_assert(sizeof(Rep) <= kHeader);

  static char* BytesOf(Rep* rep) {
    return reinterpret_cast<char*>(rep) + kHeader;
  }
#ifndef NDEBUG
  static Rep* RepOf(const char* bytes) {
    return reinterpret_cast<Rep*>(const_cast<char*>(bytes) - kHeader);
  }
#endif
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
  /// *first* save holds the true pre-batch bytes, and a re-save (a page
  /// reloaded after eviction, a freed page re-deleted) must not
  /// overwrite it. The chain adopts `image` (page_size bytes) and no one
  /// may write its bytes again; a rejected image is handed back. The
  /// caller holds the page's pool-shard mutex.
  [[nodiscard]] PageBuffer SaveBeforeImage(PageId page, uint64_t as_of,
                                           PageBuffer image);

  /// The bytes of the first chain entry with as_of >= epoch, or nullptr
  /// if the live frame is current for `epoch`. The bytes stay valid
  /// while a pin at or below `epoch` is held (ReclaimBefore waits for
  /// it).
  const char* Lookup(PageId page, uint64_t epoch) const;

  /// False when no entry with as_of >= epoch has ever been saved, so
  /// Lookup(page, epoch) would find nothing for any page. Ordered
  /// against saves by the publication of the frame's next buffer (see
  /// the file comment).
  bool MaySaveAtOrAfter(uint64_t epoch) const {
    return as_of_bound_.load(std::memory_order_acquire) > epoch;
  }

  /// Drops every entry with as_of < min_epoch. Called by the GC thread
  /// once no pin at or below those epochs can exist.
  void ReclaimBefore(uint64_t min_epoch);

  /// Drops everything and forgets every as_of saved so far. Only with
  /// no reader of the chains left (index shutdown).
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
/// writer at every publish. Everything here is a value copy — a reader
/// holding the meta shares nothing mutable with later writers. Every page, the B+-tree root included, is read
/// through the buffer pool, so a pinned read counts the same page
/// accesses as any other.
struct SnapshotMeta {
  PageId btree_root = kInvalidPageId;
  uint32_t btree_height = 1;
  uint32_t obj_next_oid = 0;
  std::vector<PageId> obj_pages;
  std::vector<PageId> poly_pages;
  uint64_t level_mask = 0;
  uint64_t live_objects = 0;
  /// Build counters (the index's IndexBuildStats), for monitor reads.
  uint64_t objects = 0;
  uint64_t index_entries = 0;
  double total_error = 0.0;
};

/// A thread-local redirection record: while installed (via
/// SnapshotScope), reads through the tagged components resolve at
/// `epoch` instead of the live state. BufferPool::Fetch matches `pool`,
/// BTree matches `btree`, the stores match `objects`/`polygons`, and
/// SpatialIndex matches `owner` (level mask / live-object count). Tags
/// are opaque pointers so storage/ stays ignorant of core/ types.
///
/// Views form a per-thread stack (a scope opened inside another pushes
/// its own view; each thread that opens a scope under a shared pin
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
