// Copyright (c) zdb authors. Licensed under the MIT license.

#include "storage/buffer_pool.h"

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

}  // namespace

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    shard_ = other.shard_;
    frame_ = other.frame_;
    bytes_ = other.bytes_;
    snap_ = std::move(other.snap_);
    snap_id_ = other.snap_id_;
    other.pool_ = nullptr;
    other.bytes_ = nullptr;
  }
  return *this;
}

PageId PageRef::id() const {
  assert(valid());
  if (bytes_ != nullptr) return snap_id_;
  return pool_->shards_[shard_].frames[frame_].id;
}

const char* PageRef::data() const {
  assert(valid());
  if (bytes_ != nullptr) return bytes_;
  return pool_->shards_[shard_].frames[frame_].buf.data();
}

char* PageRef::mutable_data() {
  assert(valid());
  if (bytes_ != nullptr) {
    internal::LockAssertFail("mutable_data() on a snapshot-backed page");
  }
  pool_->PrepareWrite(shard_, frame_);
  BufferPool::Frame& f = pool_->shards_[shard_].frames[frame_];
  f.dirty.store(true, std::memory_order_relaxed);
  return f.buf.mutable_data();
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(shard_, frame_);
    pool_ = nullptr;
  }
  bytes_ = nullptr;
  snap_ = PageBuffer();
}

BufferPool::BufferPool(Pager* pager, size_t capacity)
    : pager_(pager),
      capacity_(capacity),
      shards_(PickShardCount(capacity)),
      versions_(pager->page_size()) {
  assert(capacity >= 1);
  shard_mask_ = shards_.size() - 1;
  // Distribute frames round-robin so every shard gets within one frame of
  // capacity / shards.
  for (size_t s = 0; s < shards_.size(); ++s) {
    const size_t n =
        capacity / shards_.size() + (s < capacity % shards_.size() ? 1 : 0);
    Shard& sh = shards_[s];
    sh.frames = std::vector<Frame>(n);
    for (auto& f : sh.frames) f.buf = PageBuffer(pager_->page_size());
    sh.free_frames.reserve(n);
    for (size_t i = n; i > 0; --i) {
      sh.free_frames.push_back(static_cast<uint32_t>(i - 1));
    }
  }
}

BufferPool::~BufferPool() {
  // Best effort write-back; errors here have nowhere to go.
  (void)FlushAll();
}

void BufferPool::Unpin(uint32_t shard, uint32_t frame) {
  Frame& f = shards_[shard].frames[frame];
  // Release order: pairs with the acquire load in AcquireFrame so an
  // evictor that observes pins == 0 also observes this pin's page writes.
  const uint32_t prev = f.pins.fetch_sub(1, std::memory_order_release);
  assert(prev > 0);
  (void)prev;
}

Status BufferPool::WriteBack(Shard& s, Frame* f) {
  (void)s;  // capability token: proves the frame's shard lock is held
  if (!f->dirty.load(std::memory_order_relaxed)) return Status::OK();
  ZDB_RETURN_IF_ERROR(pager_->WritePage(f->id, f->buf.data()));
  f->dirty.store(false, std::memory_order_relaxed);
  return Status::OK();
}

Result<uint32_t> BufferPool::AcquireFrame(Shard& s) {
  if (!s.free_frames.empty()) {
    uint32_t idx = s.free_frames.back();
    s.free_frames.pop_back();
    return idx;
  }
  // Evict the least-recently-used unpinned frame of this shard.
  uint32_t victim = static_cast<uint32_t>(s.frames.size());
  uint64_t best = UINT64_MAX;
  for (uint32_t i = 0; i < s.frames.size(); ++i) {
    const Frame& f = s.frames[i];
    if (f.pins.load(std::memory_order_acquire) == 0 && f.last_used < best) {
      best = f.last_used;
      victim = i;
    }
  }
  if (victim == s.frames.size()) {
    return Status::NoSpace("buffer pool exhausted: all pages pinned");
  }
  Frame& f = s.frames[victim];
  ZDB_RETURN_IF_ERROR(WriteBack(s, &f));
  ++pager_->mutable_io_stats()->pool_evictions;
  s.table.erase(f.id);
  f.id = kInvalidPageId;
  return victim;
}

Result<uint32_t> BufferPool::LoadFrame(Shard& s, PageId id) {
  uint32_t idx;
  ZDB_ASSIGN_OR_RETURN(idx, AcquireFrame(s));
  Frame& f = s.frames[idx];
  Status st = pager_->ReadPage(id, ReusableBytes(s, f));
  if (!st.ok()) {
    s.free_frames.push_back(idx);
    return st;
  }
  f.id = id;
  f.dirty.store(false, std::memory_order_relaxed);
  // Freshly loaded bytes may be the pre-batch image (or a mid-batch
  // re-load after eviction): force the next mutation through the save
  // path and let keep-first dedup sort out which case it was.
  f.save_stamp.store(0, std::memory_order_relaxed);
  s.table[id] = idx;
  Touch(s, idx);
  return idx;
}

char* BufferPool::ReusableBytes(Shard& s, Frame& f) {
  (void)s;  // capability token: proves the frame's shard lock is held
  // A snapshot reader or a version chain may still hold the old bytes;
  // they are immutable, so the frame moves on to a buffer of its own.
  if (!f.buf || f.buf.shared()) f.buf = PageBuffer(pager_->page_size());
  return f.buf.mutable_data();
}

void BufferPool::PrepareWrite(uint32_t shard, uint32_t frame) {
  // Only the single armed mutator (exclusive index latch) reaches here
  // with a nonzero stamp, so the stamp comparison cannot race another
  // writer; the frame stays mapped under the mutator's own pin.
  const uint64_t stamp = save_stamp_.load(std::memory_order_acquire);
  if (stamp == 0) return;
  Shard& s = shards_[shard];
  Frame& f = s.frames[frame];
  if (f.save_stamp.load(std::memory_order_relaxed) == stamp) return;
  // The shard lock keeps snapshot readers from taking a new reference
  // while the share test and the save run (lock order: pool shard, then
  // chain shard, as in Delete).
  MutexLock lock(s.mu);
  PageBuffer image(f.buf.data(), pager_->page_size());
  // A reader holds the current bytes: they become the chain image and
  // the frame mutates the copy.
  if (f.buf.shared()) std::swap(image, f.buf);
  versions_.SaveBeforeImage(f.id, stamp - 1, std::move(image));
  f.save_stamp.store(stamp, std::memory_order_relaxed);
}

void BufferPool::CountHit(ThreadIoStats* tls) {
  pager_->CountPoolHit();
  if (tls != nullptr) {
    ++tls->pool_hits;
    ++tls->pages_pinned;
  }
}

Result<PageRef> BufferPool::SnapshotFetch(const SnapshotView& view,
                                          PageId id) {
  const uint32_t sidx = static_cast<uint32_t>(id) & shard_mask_;
  Shard& s = shards_[sidx];
  ThreadIoStats* tls = GetThreadIoStats();
  PageBuffer live;
  {
    MutexLock lock(s.mu);
    auto it = s.table.find(id);
    if (it == s.table.end()) {
      // Check the chain before loading, still under the shard lock: a
      // page this batch freed has only its chain image, and no writer
      // can load and save the page in between.
      if (versions_.MaySaveAtOrAfter(view.epoch)) {
        if (PageBuffer image = versions_.Lookup(id, view.epoch)) {
          CountHit(tls);
          return PageRef(std::move(image), id);
        }
      }
      ++pager_->mutable_io_stats()->pool_misses;
      if (tls != nullptr) ++tls->pool_misses;
      uint32_t idx;
      ZDB_ASSIGN_OR_RETURN(idx, LoadFrame(s, id));
      if (tls != nullptr) ++tls->pages_pinned;
      return PageRef(s.frames[idx].buf, id);
    }
    CountHit(tls);
    live = s.frames[it->second].buf;
    Touch(s, it->second);
  }
  // The live reference is held before the chain is checked: a writer
  // whose first mutation comes later sees the buffer shared and leaves
  // its bytes alone; one that came earlier has already saved the chain
  // image found here, and raised the bound the skip test reads.
  if (versions_.MaySaveAtOrAfter(view.epoch)) {
    if (PageBuffer image = versions_.Lookup(id, view.epoch)) {
      return PageRef(std::move(image), id);
    }
  }
  return PageRef(std::move(live), id);
}

PageRef BufferPool::FetchHeld(PageId id, const PageBuffer& held) {
  CountHit(GetThreadIoStats());
  return PageRef::Borrowed(held, id);
}

PageBuffer BufferPool::ResidentBuffer(PageId id) {
  Shard& s = shard_for(id);
  MutexLock lock(s.mu);
  auto it = s.table.find(id);
  return it == s.table.end() ? PageBuffer() : s.frames[it->second].buf;
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
  ThreadIoStats* tls = GetThreadIoStats();
  auto it = s.table.find(id);
  if (it != s.table.end()) {
    CountHit(tls);
    Frame& f = s.frames[it->second];
    f.pins.fetch_add(1, std::memory_order_relaxed);
    Touch(s, it->second);
    return PageRef(this, sidx, it->second);
  }
  ++pager_->mutable_io_stats()->pool_misses;
  if (tls != nullptr) ++tls->pool_misses;
  uint32_t idx;
  ZDB_ASSIGN_OR_RETURN(idx, LoadFrame(s, id));
  s.frames[idx].pins.store(1, std::memory_order_relaxed);
  if (tls != nullptr) ++tls->pages_pinned;
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
  Frame& f = s.frames[idx];
  std::memset(ReusableBytes(s, f), 0, pager_->page_size());
  f.id = id;
  f.pins.store(1, std::memory_order_relaxed);
  f.dirty.store(true, std::memory_order_relaxed);
  // A fresh page has no pre-batch content to preserve (if the id was
  // freed earlier in this batch, the Delete hook already saved it).
  f.save_stamp.store(save_stamp_.load(std::memory_order_acquire),
                     std::memory_order_relaxed);
  s.table[id] = idx;
  Touch(s, idx);
  ThreadIoStats* tls = GetThreadIoStats();
  if (tls != nullptr) ++tls->pages_pinned;
  return PageRef(this, sidx, idx);
}

Status BufferPool::Delete(PageId id) {
  const uint64_t stamp = save_stamp_.load(std::memory_order_acquire);
  Shard& s = shard_for(id);
  {
    MutexLock lock(s.mu);
    auto it = s.table.find(id);
    if (it != s.table.end()) {
      Frame& f = s.frames[it->second];
      if (f.pins.load(std::memory_order_acquire) > 0) {
        return Status::InvalidArgument("deleting a pinned page");
      }
      // A pinned reader may still need this page at an older epoch:
      // preserve its pre-batch image before the id is recycled. The
      // chain adopts the frame's buffer (the frame's next use allocates
      // a fresh one). If this batch already mutated the page, the true
      // pre-batch bytes are in the chain and keep-first makes this a
      // no-op.
      if (stamp != 0 && f.save_stamp.load(std::memory_order_relaxed) !=
                            stamp) {
        versions_.SaveBeforeImage(id, stamp - 1, std::move(f.buf));
      }
      // Contents are garbage now; never write back.
      f.dirty.store(false, std::memory_order_relaxed);
      f.id = kInvalidPageId;
      s.free_frames.push_back(it->second);
      s.table.erase(it);
    } else if (stamp != 0) {
      // Uncached: the disk image is the pre-batch image unless this
      // batch mutated the page and it was evicted — in which case the
      // chain already holds the true one and keep-first skips the save.
      PageBuffer image(pager_->page_size());
      ZDB_RETURN_IF_ERROR(pager_->ReadPage(id, image.mutable_data()));
      versions_.SaveBeforeImage(id, stamp - 1, std::move(image));
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
    for (auto& f : s.frames) {
      if (f.id == kInvalidPageId ||
          !f.dirty.load(std::memory_order_relaxed)) {
        continue;
      }
      if (!include_pinned && f.pins.load(std::memory_order_acquire) > 0) {
        ++blocked;
        if (first_blocked == kInvalidPageId) first_blocked = f.id;
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
    for (uint32_t i = 0; i < s.frames.size(); ++i) {
      Frame& f = s.frames[i];
      if (f.id != kInvalidPageId) {
        if (f.pins.load(std::memory_order_acquire) > 0) {
          return Status::InvalidArgument("clearing pinned page");
        }
        f.id = kInvalidPageId;
        s.free_frames.push_back(i);
      }
    }
    s.table.clear();
  }
  return Status::OK();
}

Status BufferPool::Discard() {
  // Two passes so a pinned frame fails the whole call before anything
  // is dropped (a half-discarded cache would be worse than either
  // outcome).
  for (auto& s : shards_) {
    MutexLock lock(s.mu);
    for (const auto& f : s.frames) {
      if (f.id != kInvalidPageId &&
          f.pins.load(std::memory_order_acquire) > 0) {
        return Status::InvalidArgument("discarding pinned page " +
                                       std::to_string(f.id));
      }
    }
  }
  for (auto& s : shards_) {
    MutexLock lock(s.mu);
    for (uint32_t i = 0; i < s.frames.size(); ++i) {
      Frame& f = s.frames[i];
      if (f.id != kInvalidPageId) {
        f.dirty.store(false, std::memory_order_relaxed);
        f.id = kInvalidPageId;
        s.free_frames.push_back(i);
      }
    }
    s.table.clear();
  }
  return Status::OK();
}

size_t BufferPool::cached_pages() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s.mu);
    n += s.table.size();
  }
  return n;
}

size_t BufferPool::pinned_pages() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s.mu);
    for (const auto& f : s.frames) {
      if (f.id != kInvalidPageId &&
          f.pins.load(std::memory_order_acquire) > 0) {
        ++n;
      }
    }
  }
  return n;
}

}  // namespace zdb
