// Copyright (c) zdb authors. Licensed under the MIT license.

#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

namespace zdb {

namespace {

/// Shards are only worth their capacity fragmentation for pools large
/// enough that per-shard LRU behaves like global LRU. Below 2 * 16 frames
/// a single shard keeps the exact historical semantics.
constexpr size_t kMinFramesPerShard = 16;
constexpr size_t kMaxShards = 16;

size_t PickShardCount(size_t capacity) {
  size_t n = 1;
  while (n * 2 <= kMaxShards && capacity / (n * 2) >= kMinFramesPerShard) {
    n *= 2;
  }
  return n;
}

/// A page-table entry: page id in the high half, frame in the low half.
/// Page 0 is the pager's header and never cached, so 0 is "empty".
uint64_t IndexEntry(PageId id, uint32_t frame) {
  return (static_cast<uint64_t>(id) << 32) | frame;
}
PageId EntryPage(uint64_t e) { return static_cast<PageId>(e >> 32); }
uint32_t EntryFrame(uint64_t e) { return static_cast<uint32_t>(e); }

}  // namespace

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    shard_ = other.shard_;
    frame_ = other.frame_;
    bytes_ = other.bytes_;
    counted_ = std::move(other.counted_);
    snap_id_ = other.snap_id_;
    hazard_ = other.hazard_;
    hazard_owner_ = other.hazard_owner_;
    other.pool_ = nullptr;
    other.bytes_ = nullptr;
    other.hazard_ = nullptr;
  }
  return *this;
}

PageId PageRef::id() const {
  assert(valid());
  if (bytes_ != nullptr) return snap_id_;
  return pool_->frames_[frame_].id.load(std::memory_order_relaxed);
}

const char* PageRef::data() const {
  assert(valid());
  if (bytes_ != nullptr) return bytes_;
  return pool_->frames_[frame_].buf.data();
}

char* PageRef::mutable_data() {
  assert(valid());
  if (bytes_ != nullptr) {
    internal::LockAssertFail("mutable_data() on a snapshot-backed page");
  }
  pool_->PrepareWrite(shard_, frame_);
  BufferPool::Frame& f = pool_->frames_[frame_];
  f.dirty.store(true, std::memory_order_relaxed);
  return f.buf.mutable_data();
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
  if (hazard_ != nullptr) {
    if (hazard_owner_ != ThisThreadIndex()) {
      internal::LockAssertFail(
          "snapshot PageRef released on a thread other than the fetching "
          "one (its hazard slot belongs to that thread)");
    }
    // Release: the reads of the bytes happen before a scan that finds
    // the slot empty and reuses the buffer.
    hazard_->store(nullptr, std::memory_order_release);
    hazard_ = nullptr;
  }
  bytes_ = nullptr;
  counted_ = PageBuffer();
}

BufferPool::BufferPool(Pager* pager, size_t capacity)
    : pager_(pager),
      capacity_(capacity),
      shards_(PickShardCount(capacity)),
      frames_(new Frame[capacity]),
      versions_(pager->page_size()) {
  assert(capacity >= 1);
  shard_mask_ = shards_.size() - 1;
  // Distribute frames so every shard gets within one frame of
  // capacity / shards; each shard's page-table region is at least
  // twice its frame count, so probes stay short.
  const size_t per_shard = (capacity + shards_.size() - 1) / shards_.size();
  uint32_t region = 4;
  while (region < 2 * per_shard) region *= 2;
  index_mask_ = region - 1;
  index_.reset(new std::atomic<uint64_t>[region * shards_.size()]);
  for (size_t i = 0; i < region * shards_.size(); ++i) {
    index_[i].store(0, std::memory_order_relaxed);
  }
  uint32_t base = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const size_t n =
        capacity / shards_.size() + (s < capacity % shards_.size() ? 1 : 0);
    Shard& sh = shards_[s];
    MutexLock lock(sh.mu);  // uncontended; free_frames is GUARDED_BY
    sh.frame_base = base;
    sh.frame_count = static_cast<uint32_t>(n);
    sh.index_base = static_cast<uint32_t>(s) * region;
    sh.free_frames.reserve(n);
    for (size_t i = n; i > 0; --i) {
      sh.free_frames.push_back(base + static_cast<uint32_t>(i - 1));
    }
    base += static_cast<uint32_t>(n);
  }
}

BufferPool::~BufferPool() {
  // Best effort write-back; errors here have nowhere to go.
  (void)FlushAll();
}

void BufferPool::Unpin(uint32_t frame) {
  Frame& f = frames_[frame];
  // Release order: pairs with the acquire load in AcquireFrame so an
  // evictor that observes pins == 0 also observes this pin's page writes.
  const uint32_t prev = f.pins.fetch_sub(1, std::memory_order_release);
  assert(prev > 0);
  (void)prev;
}

// ------------------------------------------------------------ page table

uint32_t BufferPool::IndexHome(PageId id) const {
  // Ids within a shard share their low bits; hash the rest.
  const uint64_t key = static_cast<uint64_t>(id) >> __builtin_ctzll(
                           static_cast<uint64_t>(shard_mask_) + 1);
  return static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
         index_mask_;
}

int64_t BufferPool::IndexFind(const Shard& s, PageId id) const {
  const std::atomic<uint64_t>* region = &index_[s.index_base];
  uint32_t i = IndexHome(id);
  for (uint32_t n = 0; n <= index_mask_; ++n, i = (i + 1) & index_mask_) {
    const uint64_t e = region[i].load(std::memory_order_acquire);
    if (e == 0) return -1;
    if (EntryPage(e) == id) return EntryFrame(e);
  }
  return -1;
}

void BufferPool::IndexInsert(Shard& s, PageId id, uint32_t frame) {
  std::atomic<uint64_t>* region = &index_[s.index_base];
  uint32_t i = IndexHome(id);
  while (region[i].load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & index_mask_;
  }
  // Release: a reader that finds the entry sees the frame's page.
  region[i].store(IndexEntry(id, frame), std::memory_order_release);
}

void BufferPool::IndexErase(Shard& s, PageId id) {
  std::atomic<uint64_t>* region = &index_[s.index_base];
  uint32_t hole = IndexHome(id);
  while (EntryPage(region[hole].load(std::memory_order_relaxed)) != id) {
    assert(region[hole].load(std::memory_order_relaxed) != 0);
    hole = (hole + 1) & index_mask_;
  }
  // Backward-shift deletion: pull later entries of the probe run into
  // the hole, so no tombstones build up. Each move writes the entry's
  // new slot before clearing its old one; a lock-free reader racing it
  // may miss the entry and take the locked path, but never finds a
  // wrong frame for a page.
  for (uint32_t j = (hole + 1) & index_mask_;; j = (j + 1) & index_mask_) {
    const uint64_t e = region[j].load(std::memory_order_relaxed);
    if (e == 0) break;
    const uint32_t home = IndexHome(EntryPage(e));
    // Move e unless its home lies cyclically in (hole, j].
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (stays) continue;
    region[hole].store(e, std::memory_order_release);
    hole = j;
  }
  region[hole].store(0, std::memory_order_release);
}

void BufferPool::IndexClear(Shard& s) {
  for (uint32_t i = 0; i <= index_mask_; ++i) {
    index_[s.index_base + i].store(0, std::memory_order_release);
  }
}

// --------------------------------------------------------- frame buffers

void BufferPool::Republish(Shard& s, Frame& f, PageId id,
                           PageBuffer fresh) {
  (void)s;  // capability token: proves the frame's shard lock is held
  const uint64_t seq = f.seq.load(std::memory_order_relaxed);
  // seq_cst: the unpublish half of the hazard handshake (see
  // storage/snapshot.h); a reader re-checking the count after this
  // store retries, and the retired buffer's scan comes later still.
  f.seq.store(seq + 1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_release);
#ifndef NDEBUG
  if (fresh) fresh.clear_snapshot_read();
#endif
  PageBuffer old = std::exchange(f.buf, std::move(fresh));
  f.id.store(id, std::memory_order_relaxed);
  f.bytes.store(f.buf ? f.buf.data() : nullptr, std::memory_order_relaxed);
  // Release: a reader that reads this count sees the buffer's bytes.
  f.seq.store(seq + 2, std::memory_order_release);
  if (old) Retire(std::move(old));
}

PageBuffer BufferPool::SpareBuffer() {
  {
    MutexLock lock(recycle_mu_);
    if (!spare_.empty()) {
      PageBuffer b = std::move(spare_.back());
      spare_.pop_back();
      return b;
    }
  }
  return PageBuffer(pager_->page_size());
}

void BufferPool::Retire(PageBuffer buf) {
  MutexLock lock(recycle_mu_);
  retired_.push_back(std::move(buf));
  if (retired_.size() >= held_back_ + kRetireBatch) ScanRetired();
}

void BufferPool::ScanRetired() {
  std::vector<const char*> named;
  hazards_.ForEach([&named](const HazardSlot& slot) {
    for (const auto& h : slot.hazard) {
      if (const char* p = h.load(std::memory_order_seq_cst)) {
        named.push_back(p);
      }
    }
  });
  std::sort(named.begin(), named.end());
  size_t kept = 0;
  for (PageBuffer& b : retired_) {
    if (std::binary_search(named.begin(), named.end(), b.data())) {
      std::swap(retired_[kept++], b);
    } else if (!b.shared() && spare_.size() < kMaxSpare) {
      spare_.push_back(std::move(b));
    }
    // Otherwise the handle drops here: another holder (a chain entry,
    // a snapshot meta, a counted ref) keeps the bytes, or they are freed.
  }
  retired_.resize(kept);
  held_back_ = kept;
}

size_t BufferPool::held_back_buffers() const {
  MutexLock lock(recycle_mu_);
  return held_back_;
}

size_t BufferPool::hazard_slots() const {
  size_t n = 0;
  hazards_.ForEach([&n](const HazardSlot&) { n += kHazardsPerThread; });
  return n;
}

// ------------------------------------------------------------ frame I/O

Status BufferPool::WriteBack(Shard& s, Frame* f) {
  (void)s;  // capability token: proves the frame's shard lock is held
  if (!f->dirty.load(std::memory_order_relaxed)) return Status::OK();
  ZDB_RETURN_IF_ERROR(
      pager_->WritePage(f->id.load(std::memory_order_relaxed), f->buf.data()));
  f->dirty.store(false, std::memory_order_relaxed);
  return Status::OK();
}

void BufferPool::Touch(Shard& s, Frame& f) {
  const uint64_t t = s.tick.load(std::memory_order_relaxed) + 1;
  s.tick.store(t, std::memory_order_relaxed);
  f.last_used.store(t, std::memory_order_relaxed);
}

Result<uint32_t> BufferPool::AcquireFrame(Shard& s) {
  if (!s.free_frames.empty()) {
    uint32_t idx = s.free_frames.back();
    s.free_frames.pop_back();
    return idx;
  }
  // Evict the least-recently-used unpinned frame of this shard.
  const uint32_t end = s.frame_base + s.frame_count;
  uint32_t victim = end;
  uint64_t best = UINT64_MAX;
  for (uint32_t i = s.frame_base; i < end; ++i) {
    const Frame& f = frames_[i];
    const uint64_t used = f.last_used.load(std::memory_order_relaxed);
    if (f.pins.load(std::memory_order_acquire) == 0 && used < best) {
      best = used;
      victim = i;
    }
  }
  if (victim == end) {
    return Status::NoSpace("buffer pool exhausted: all pages pinned");
  }
  Frame& f = frames_[victim];
  ZDB_RETURN_IF_ERROR(WriteBack(s, &f));
  ++pager_->mutable_io_stats()->pool_evictions;
  IndexErase(s, f.id.load(std::memory_order_relaxed));
  Republish(s, f, kInvalidPageId, PageBuffer());
  return victim;
}

Result<uint32_t> BufferPool::LoadFrame(Shard& s, PageId id) {
  uint32_t idx;
  ZDB_ASSIGN_OR_RETURN(idx, AcquireFrame(s));
  Frame& f = frames_[idx];
  PageBuffer fresh = SpareBuffer();
  Status st = pager_->ReadPage(id, fresh.mutable_data());
  if (!st.ok()) {
    s.free_frames.push_back(idx);
    return st;
  }
  f.dirty.store(false, std::memory_order_relaxed);
  // Freshly loaded bytes may be the pre-batch image (or a mid-batch
  // re-load after eviction): force the next mutation through the save
  // path and let keep-first dedup sort out which case it was.
  f.save_stamp.store(0, std::memory_order_relaxed);
  Republish(s, f, id, std::move(fresh));
  Touch(s, f);
  IndexInsert(s, id, idx);
  return idx;
}

void BufferPool::PrepareWrite(uint32_t shard, uint32_t frame) {
  // Only the single armed mutator (index writer lock) reaches here
  // with a nonzero stamp, so the stamp comparison cannot race another
  // writer; the frame stays mapped under the mutator's own pin.
  const uint64_t stamp = save_stamp_.load(std::memory_order_acquire);
  Frame& f = frames_[frame];
  if (stamp == 0) {
#ifndef NDEBUG
    // Disarmed writes (checkpoint metadata) go in place, which is only
    // sound for pages no snapshot read reaches.
    if (f.buf.snapshot_read()) {
      internal::LockAssertFail(
          "unversioned write to a page a snapshot read was handed");
    }
#endif
    return;
  }
  if (f.save_stamp.load(std::memory_order_relaxed) == stamp) return;
  Shard& s = shards_[shard];
  PageBuffer copy = SpareBuffer();
  std::memcpy(copy.mutable_data(), f.buf.data(), pager_->page_size());
  const PageId id = f.id.load(std::memory_order_relaxed);
  // Lock order: pool shard, then chain shard (as in Delete). The save
  // precedes the copy's publication, so a reader that finds the copy
  // also finds the chain entry.
  MutexLock lock(s.mu);
  PageBuffer rejected =
      versions_.SaveBeforeImage(id, stamp - 1, std::move(f.buf));
  Republish(s, f, id, std::move(copy));
  if (rejected) Retire(std::move(rejected));
  f.save_stamp.store(stamp, std::memory_order_relaxed);
}

// -------------------------------------------------------------- fetches

std::atomic<const char*>* BufferPool::FreeHazard() {
  for (auto& h : hazards_.Local().hazard) {
    if (h.load(std::memory_order_relaxed) == nullptr) return &h;
  }
  return nullptr;
}

void BufferPool::StampIfStale(const Shard& s, Frame& f) {
  const uint64_t tick = s.tick.load(std::memory_order_relaxed);
  if (f.last_used.load(std::memory_order_relaxed) < tick) {
    f.last_used.store(tick, std::memory_order_relaxed);
  }
}

PageRef BufferPool::LiveRefLocked(Shard& s, Frame& f, PageId id) {
  (void)s;  // capability token: the buffer cannot be unpublished
#ifndef NDEBUG
  PageBuffer::NoteSnapshotRead(f.buf.data());
#endif
  if (std::atomic<const char*>* hazard = FreeHazard()) {
    hazard->store(f.buf.data(), std::memory_order_seq_cst);
    return PageRef(hazard, f.buf.data(), id);
  }
  return PageRef(f.buf, id);
}

Result<PageRef> BufferPool::SnapshotFetch(const SnapshotView& view,
                                          PageId id) {
  Shard& s = shard_for(id);
  // Lock-free hit: probe, announce, re-check (storage/snapshot.h).
  std::atomic<const char*>* hazard = FreeHazard();
  for (int64_t fi; hazard != nullptr && (fi = IndexFind(s, id)) >= 0;) {
    Frame& f = frames_[fi];
    const uint64_t seq = f.seq.load(std::memory_order_acquire);
    const PageId page = f.id.load(std::memory_order_relaxed);
    const char* bytes = f.bytes.load(std::memory_order_relaxed);
    if ((seq & 1) != 0) continue;  // a writer is republishing the frame
    if (page != id || bytes == nullptr) break;  // stale probe: lock
    hazard->store(bytes, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (f.seq.load(std::memory_order_seq_cst) != seq) continue;
    // `bytes` were page `id`'s published buffer after the announce, so
    // no scan can reuse them now. The chain comes next (see the live
    // ref comment below).
    if (versions_.MaySaveAtOrAfter(view.epoch)) {
      if (const char* image = versions_.Lookup(id, view.epoch)) {
        hazard->store(nullptr, std::memory_order_release);
        pager_->CountPoolHit();
        return PageRef(image, id);
      }
    }
#ifndef NDEBUG
    PageBuffer::NoteSnapshotRead(bytes);
#endif
    StampIfStale(s, f);
    pager_->CountPoolHit();
    return PageRef(hazard, bytes, id);
  }
  if (hazard != nullptr) hazard->store(nullptr, std::memory_order_release);

  PageRef live;
  {
    MutexLock lock(s.mu);
    const int64_t fi = IndexFind(s, id);
    if (fi < 0) {
      // Check the chain before loading, still under the shard lock: a
      // page this batch freed has only its chain image, and no writer
      // can load and save the page in between.
      if (versions_.MaySaveAtOrAfter(view.epoch)) {
        if (const char* image = versions_.Lookup(id, view.epoch)) {
          pager_->CountPoolHit();
          return PageRef(image, id);
        }
      }
      ++pager_->mutable_io_stats()->pool_misses;
      uint32_t idx;
      ZDB_ASSIGN_OR_RETURN(idx, LoadFrame(s, id));
      return LiveRefLocked(s, frames_[idx], id);
    }
    Frame& f = frames_[fi];
    StampIfStale(s, f);
    pager_->CountPoolHit();
    live = LiveRefLocked(s, f, id);
  }
  // The live buffer is held before the chain is checked: a writer whose
  // first mutation comes later hands that very buffer to the chain and
  // never writes it; one that came earlier saved the chain image before
  // publishing the copy, and raised the bound first.
  if (versions_.MaySaveAtOrAfter(view.epoch)) {
    if (const char* image = versions_.Lookup(id, view.epoch)) {
      return PageRef(image, id);
    }
  }
  return live;
}

Result<PageRef> BufferPool::Fetch(PageId id) {
  if (const SnapshotView* v = SnapshotView::FindPool(this)) {
    return SnapshotFetch(*v, id);
  }
  return FetchLive(id);
}

Result<PageRef> BufferPool::FetchLive(PageId id) {
  const uint32_t sidx = static_cast<uint32_t>(id) & shard_mask_;
  Shard& s = shards_[sidx];
  MutexLock lock(s.mu);
  const int64_t fi = IndexFind(s, id);
  if (fi >= 0) {
    pager_->CountPoolHit();
    Frame& f = frames_[fi];
    f.pins.fetch_add(1, std::memory_order_relaxed);
    Touch(s, f);
    return PageRef(this, sidx, static_cast<uint32_t>(fi));
  }
  ++pager_->mutable_io_stats()->pool_misses;
  uint32_t idx;
  ZDB_ASSIGN_OR_RETURN(idx, LoadFrame(s, id));
  frames_[idx].pins.store(1, std::memory_order_relaxed);
  return PageRef(this, sidx, idx);
}

Result<PageRef> BufferPool::New() {
  PageId id;
  ZDB_ASSIGN_OR_RETURN(id, pager_->Allocate());
  const uint32_t sidx = static_cast<uint32_t>(id) & shard_mask_;
  Shard& s = shards_[sidx];
  MutexLock lock(s.mu);
  uint32_t idx;
  {
    auto r = AcquireFrame(s);
    if (!r.ok()) {
      // Undo the allocation so the pager does not leak the page.
      (void)pager_->Free(id);
      return r.status();
    }
    idx = r.value();
  }
  Frame& f = frames_[idx];
  PageBuffer fresh = SpareBuffer();
  std::memset(fresh.mutable_data(), 0, pager_->page_size());
  Republish(s, f, id, std::move(fresh));
  f.pins.store(1, std::memory_order_relaxed);
  f.dirty.store(true, std::memory_order_relaxed);
  // A fresh page has no pre-batch content to preserve (if the id was
  // freed earlier in this batch, the Delete hook already saved it).
  f.save_stamp.store(save_stamp_.load(std::memory_order_acquire),
                     std::memory_order_relaxed);
  Touch(s, f);
  IndexInsert(s, id, idx);
  return PageRef(this, sidx, idx);
}

Status BufferPool::Delete(PageId id) {
  const uint64_t stamp = save_stamp_.load(std::memory_order_acquire);
  Shard& s = shard_for(id);
  {
    MutexLock lock(s.mu);
    const int64_t fi = IndexFind(s, id);
    if (fi >= 0) {
      Frame& f = frames_[fi];
      if (f.pins.load(std::memory_order_acquire) > 0) {
        return Status::InvalidArgument("deleting a pinned page");
      }
      // A pinned reader may still need this page at an older epoch:
      // hand its pre-batch buffer to the chain before the id is
      // recycled. If this batch already mutated the page, the true
      // pre-batch bytes are in the chain and keep-first gives the
      // buffer back, to be retired with the frame's.
      PageBuffer rejected;
      if (stamp != 0 && f.save_stamp.load(std::memory_order_relaxed) !=
                            stamp) {
        rejected = versions_.SaveBeforeImage(id, stamp - 1, std::move(f.buf));
      }
      IndexErase(s, id);
      // Contents are garbage now; never write back.
      f.dirty.store(false, std::memory_order_relaxed);
      Republish(s, f, kInvalidPageId, PageBuffer());
      if (rejected) Retire(std::move(rejected));
      s.free_frames.push_back(static_cast<uint32_t>(fi));
    } else if (stamp != 0) {
      // Uncached: the disk image is the pre-batch image unless this
      // batch mutated the page and it was evicted — in which case the
      // chain already holds the true one and keep-first skips the save.
      PageBuffer image(pager_->page_size());
      ZDB_RETURN_IF_ERROR(pager_->ReadPage(id, image.mutable_data()));
      (void)versions_.SaveBeforeImage(id, stamp - 1, std::move(image));
    }
  }
  return pager_->Free(id);
}

Status BufferPool::FlushAll() { return FlushInternal(false); }

Status BufferPool::FlushForCommit() { return FlushInternal(true); }

Status BufferPool::FlushInternal(bool include_pinned) {
  // First pass: write back everything writable. Collect what is blocked
  // instead of failing midway, so the caller never gets a silent partial
  // flush — all flushable pages are durable and the error says exactly
  // what remains. With include_pinned (group-commit mode, writers
  // excluded by the caller) reader pins don't block: the bytes are
  // stable, so a pinned frame is written in place and stays cached.
  size_t blocked = 0;
  PageId first_blocked = kInvalidPageId;
  for (auto& s : shards_) {
    MutexLock lock(s.mu);
    for (uint32_t i = s.frame_base; i < s.frame_base + s.frame_count; ++i) {
      Frame& f = frames_[i];
      const PageId id = f.id.load(std::memory_order_relaxed);
      if (id == kInvalidPageId ||
          !f.dirty.load(std::memory_order_relaxed)) {
        continue;
      }
      if (!include_pinned && f.pins.load(std::memory_order_acquire) > 0) {
        ++blocked;
        if (first_blocked == kInvalidPageId) first_blocked = id;
        continue;
      }
      ZDB_RETURN_IF_ERROR(WriteBack(s, &f));
    }
  }
  if (blocked > 0) {
    return Status::InvalidArgument(
        "cannot flush " + std::to_string(blocked) +
        " dirty page(s) still pinned (e.g. page " +
        std::to_string(first_blocked) +
        "); release all PageRefs/cursors and retry");
  }
  return Status::OK();
}

Status BufferPool::Clear() {
  ZDB_RETURN_IF_ERROR(FlushAll());
  for (auto& s : shards_) {
    MutexLock lock(s.mu);
    for (uint32_t i = s.frame_base; i < s.frame_base + s.frame_count; ++i) {
      if (frames_[i].pins.load(std::memory_order_acquire) > 0 &&
          frames_[i].id.load(std::memory_order_relaxed) != kInvalidPageId) {
        return Status::InvalidArgument("clearing pinned page");
      }
    }
    IndexClear(s);
    for (uint32_t i = s.frame_base; i < s.frame_base + s.frame_count; ++i) {
      Frame& f = frames_[i];
      if (f.id.load(std::memory_order_relaxed) != kInvalidPageId) {
        Republish(s, f, kInvalidPageId, PageBuffer());
        s.free_frames.push_back(i);
      }
    }
  }
  return Status::OK();
}

Status BufferPool::Discard() {
  // Two passes so a pinned frame fails the whole call before anything
  // is dropped (a half-discarded cache would be worse than either
  // outcome).
  for (auto& s : shards_) {
    MutexLock lock(s.mu);
    for (uint32_t i = s.frame_base; i < s.frame_base + s.frame_count; ++i) {
      const Frame& f = frames_[i];
      const PageId id = f.id.load(std::memory_order_relaxed);
      if (id != kInvalidPageId && f.pins.load(std::memory_order_acquire) > 0) {
        return Status::InvalidArgument("discarding pinned page " +
                                       std::to_string(id));
      }
    }
  }
  for (auto& s : shards_) {
    MutexLock lock(s.mu);
    IndexClear(s);
    for (uint32_t i = s.frame_base; i < s.frame_base + s.frame_count; ++i) {
      Frame& f = frames_[i];
      if (f.id.load(std::memory_order_relaxed) != kInvalidPageId) {
        f.dirty.store(false, std::memory_order_relaxed);
        Republish(s, f, kInvalidPageId, PageBuffer());
        s.free_frames.push_back(i);
      }
    }
  }
  return Status::OK();
}

size_t BufferPool::pinned_pages() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s.mu);
    for (uint32_t i = s.frame_base; i < s.frame_base + s.frame_count; ++i) {
      const Frame& f = frames_[i];
      if (f.id.load(std::memory_order_relaxed) != kInvalidPageId &&
          f.pins.load(std::memory_order_acquire) > 0) {
        ++n;
      }
    }
  }
  return n;
}

}  // namespace zdb
