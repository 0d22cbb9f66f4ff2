// Copyright (c) zdb authors. Licensed under the MIT license.

#include "storage/snapshot.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace zdb {

namespace {

/// Innermost installed view for this thread, or nullptr.
thread_local const SnapshotView* t_view_top = nullptr;

}  // namespace

PageBuffer::PageBuffer(uint32_t size)
    : rep_(new (::operator new(kHeader + size)) Rep) {
  std::memset(mutable_data(), 0, size);
}

PageBuffer::PageBuffer(const char* data, uint32_t size)
    : rep_(new (::operator new(kHeader + size)) Rep) {
  std::memcpy(mutable_data(), data, size);
}

void PageBuffer::Free(Rep* rep) {
  rep->~Rep();
  ::operator delete(rep);
}

PageBuffer PageVersions::SaveBeforeImage(PageId page, uint64_t as_of,
                                         PageBuffer image) {
  // Raised before the entry is added, and both before the frame
  // publishes the page's next buffer: a reader that took that buffer
  // sees the bound (see the file comment).
  uint64_t bound = as_of_bound_.load(std::memory_order_relaxed);
  while (bound < as_of + 1 &&
         !as_of_bound_.compare_exchange_weak(bound, as_of + 1,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
  }
  Shard& s = shard_for(page);
  MutexLock lock(s.mu);
  std::vector<Entry>& chain = s.chains[page];
  // Epochs are monotonic, so an entry for this as_of — if any — is the
  // last one. Keep-first: it already holds the true pre-batch bytes.
  if (!chain.empty() && chain.back().as_of >= as_of) return image;
  chain.push_back(Entry{as_of, std::move(image)});
  live_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(page_size_, std::memory_order_relaxed);
  saved_.fetch_add(1, std::memory_order_relaxed);
  return PageBuffer();
}

const char* PageVersions::Lookup(PageId page, uint64_t epoch) const {
  const Shard& s = shard_for(page);
  MutexLock lock(s.mu);
  auto it = s.chains.find(page);
  if (it == s.chains.end()) return nullptr;
  const std::vector<Entry>& chain = it->second;
  auto e = std::lower_bound(
      chain.begin(), chain.end(), epoch,
      [](const Entry& entry, uint64_t ep) { return entry.as_of < ep; });
  if (e == chain.end()) return nullptr;
  return e->data.data();
}

void PageVersions::ReclaimBefore(uint64_t min_epoch) {
  for (Shard& s : shards_) {
    MutexLock lock(s.mu);
    for (auto it = s.chains.begin(); it != s.chains.end();) {
      std::vector<Entry>& chain = it->second;
      auto keep = std::lower_bound(
          chain.begin(), chain.end(), min_epoch,
          [](const Entry& entry, uint64_t ep) { return entry.as_of < ep; });
      const size_t dropped = static_cast<size_t>(keep - chain.begin());
      if (dropped > 0) {
        chain.erase(chain.begin(), keep);
        live_.fetch_sub(dropped, std::memory_order_relaxed);
        bytes_.fetch_sub(dropped * page_size_, std::memory_order_relaxed);
        reclaimed_.fetch_add(dropped, std::memory_order_relaxed);
      }
      it = chain.empty() ? s.chains.erase(it) : std::next(it);
    }
  }
}

void PageVersions::Clear() {
  for (Shard& s : shards_) {
    MutexLock lock(s.mu);
    for (auto& [page, chain] : s.chains) {
      live_.fetch_sub(chain.size(), std::memory_order_relaxed);
      bytes_.fetch_sub(chain.size() * page_size_, std::memory_order_relaxed);
      reclaimed_.fetch_add(chain.size(), std::memory_order_relaxed);
    }
    s.chains.clear();
  }
}

PageVersionStats PageVersions::stats() const {
  PageVersionStats st;
  st.live = live_.load(std::memory_order_relaxed);
  st.bytes = bytes_.load(std::memory_order_relaxed);
  st.saved = saved_.load(std::memory_order_relaxed);
  st.reclaimed = reclaimed_.load(std::memory_order_relaxed);
  return st;
}

namespace {

template <const void* SnapshotView::* Tag>
const SnapshotView* FindByTag(const void* p) {
  for (const SnapshotView* v = t_view_top; v != nullptr; v = v->prev) {
    if (v->*Tag == p) return v;
  }
  return nullptr;
}

}  // namespace

const SnapshotView* SnapshotView::FindPool(const void* pool) {
  return FindByTag<&SnapshotView::pool>(pool);
}
const SnapshotView* SnapshotView::FindOwner(const void* owner) {
  return FindByTag<&SnapshotView::owner>(owner);
}
const SnapshotView* SnapshotView::FindBTree(const void* btree) {
  return FindByTag<&SnapshotView::btree>(btree);
}
const SnapshotView* SnapshotView::FindObjects(const void* objects) {
  return FindByTag<&SnapshotView::objects>(objects);
}
const SnapshotView* SnapshotView::FindPolygons(const void* polygons) {
  return FindByTag<&SnapshotView::polygons>(polygons);
}

SnapshotScope::SnapshotScope(SnapshotView view) : view_(std::move(view)) {
  view_.prev = t_view_top;
  t_view_top = &view_;
}

SnapshotScope::~SnapshotScope() { t_view_top = view_.prev; }

}  // namespace zdb
