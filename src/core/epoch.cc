// Copyright (c) zdb authors. Licensed under the MIT license.

#include "core/epoch.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace zdb {

EpochPin& EpochPin::operator=(EpochPin&& other) noexcept {
  if (this != &other) {
    if (mgr_ != nullptr) Release();
    mgr_ = other.mgr_;
    slot_ = other.slot_;
    epoch_ = other.epoch_;
    record_ = other.record_;
    owner_ = other.owner_;
    other.mgr_ = nullptr;
  }
  return *this;
}

EpochPin::~EpochPin() {
  if (mgr_ != nullptr) Release();
}

void EpochPin::Release() {
  if (mgr_ == nullptr) {
    internal::LockAssertFail("EpochPin released twice (or never pinned)");
  }
  if (owner_ != std::this_thread::get_id()) {
    internal::LockAssertFail(
        "EpochPin released on a thread other than the pinning one");
  }
  mgr_->Unpin(slot_, epoch_);
  mgr_ = nullptr;
}

EpochManager::EpochManager(const std::atomic<uint64_t>* epoch,
                           PageVersions* versions)
    : epoch_(epoch), versions_(versions) {}

EpochManager::~EpochManager() {
  StopGc();
  bool outstanding = false;
  slots_.ForEach([&outstanding](const EpochSlot& s) {
    if (s.pinned.load(std::memory_order_acquire) != 0) outstanding = true;
  });
  if (outstanding) {
    internal::LockAssertFail("EpochPin outlives its EpochManager");
  }
}

EpochPin EpochManager::Pin() {
  EpochSlot& slot = slots_.Local();
  uint64_t e = epoch_->load(std::memory_order_acquire);
  if (slot.held.empty()) {
    // Announce, then validate (the file comment has the argument).
    for (;;) {
      slot.announced.store(e, std::memory_order_seq_cst);
      const uint64_t now = epoch_->load(std::memory_order_seq_cst);
      if (now == e) break;
      e = now;
    }
  }
  slot.held.push_back(e);
  slot.pinned.store(static_cast<uint32_t>(slot.held.size()),
                    std::memory_order_relaxed);
  slot.taken.store(slot.taken.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  // RecordMeta(e) happened before the epoch reached e, and records at
  // or above the floor (<= e) are never freed: the walk is safe.
  const EpochRecord* rec = latest_.load(std::memory_order_acquire);
  while (rec != nullptr && rec->epoch > e) {
    rec = rec->prev.load(std::memory_order_acquire);
  }
  if (rec != nullptr && rec->epoch != e) rec = nullptr;
  return EpochPin(this, &slot, e, rec);
}

void EpochManager::Unpin(EpochSlot* slot, uint64_t epoch) {
  std::vector<uint64_t>& held = slot->held;
  auto it = std::find(held.begin(), held.end(), epoch);
  if (it == held.end()) {
    internal::LockAssertFail("EpochPin release for an unknown epoch");
  }
  *it = held.back();
  held.pop_back();
  // Release order: the GC frees what this pin protected only after it
  // reads the new value, so this thread's reads happen before the free.
  const uint64_t low =
      held.empty() ? EpochSlot::kIdle
                   : *std::min_element(held.begin(), held.end());
  if (low != slot->announced.load(std::memory_order_relaxed)) {
    slot->announced.store(low, std::memory_order_release);
  }
  slot->pinned.store(static_cast<uint32_t>(held.size()),
                     std::memory_order_release);
}

void EpochManager::RecordMeta(uint64_t epoch, SnapshotMeta meta) {
  auto rec = std::make_unique<EpochRecord>();
  rec->epoch = epoch;
  rec->meta = std::move(meta);
  MutexLock lock(gc_mu_);
  rec->prev.store(latest_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  latest_.store(rec.get(), std::memory_order_release);
  records_[epoch] = std::move(rec);
}

void EpochManager::InvalidateRange(uint64_t lo, uint64_t hi, Status cause) {
  if (hi <= lo) return;
  MutexLock lock(gc_mu_);
  // The rolled-back epochs must not serve queries (the live state they
  // described was reloaded away).
  for (auto it = records_.upper_bound(lo);
       it != records_.end() && it->first <= hi; ++it) {
    EpochRecord& r = *it->second;
    if (r.rolled_back.load(std::memory_order_relaxed)) continue;
    r.cause = cause;
    r.rolled_back.store(true, std::memory_order_release);
  }
}

Result<const SnapshotMeta*> EpochManager::MetaAt(const EpochPin& pin) const {
  if (pin.mgr_ != this) {
    return Status::InvalidArgument("pin does not belong to this index");
  }
  const EpochRecord* rec = pin.record_;
  if (rec == nullptr) {
    return Status::Internal("no snapshot meta recorded for epoch " +
                            std::to_string(pin.epoch()));
  }
  if (rec->rolled_back.load(std::memory_order_acquire)) {
    return Status::Aborted("snapshot epoch " + std::to_string(rec->epoch) +
                           " was rolled back: " + rec->cause.ToString());
  }
  return &rec->meta;
}

void EpochManager::EnterRead() {
  EpochSlot& slot = slots_.Local();
  const uint32_t n = slot.reads.load(std::memory_order_relaxed);
  if (n > 0) {  // nested: the outer read already holds off the reload
    slot.reads.store(n + 1, std::memory_order_relaxed);
    return;
  }
  for (;;) {
    // Announce, then test the barrier; BeginQuiesce does the mirror
    // image, so one of the two always sees the other (all seq_cst).
    slot.reads.store(1, std::memory_order_seq_cst);
    if (!quiescing_.load(std::memory_order_seq_cst)) return;
    slot.reads.store(0, std::memory_order_release);
    MutexLock lock(quiesce_mu_);
    while (quiescing_.load(std::memory_order_relaxed)) {
      quiesce_cv_.Wait(quiesce_mu_);
    }
  }
}

void EpochManager::LeaveRead() {
  EpochSlot& slot = slots_.Local();
  // Release: the reload that sees 0 happens after this read's accesses.
  slot.reads.store(slot.reads.load(std::memory_order_relaxed) - 1,
                   std::memory_order_release);
}

void EpochManager::BeginQuiesce() {
  {
    MutexLock lock(quiesce_mu_);
    quiescing_.store(true, std::memory_order_seq_cst);
  }
  for (;;) {
    bool busy = false;
    slots_.ForEach([&busy](const EpochSlot& s) {
      if (s.reads.load(std::memory_order_seq_cst) != 0) busy = true;
    });
    if (!busy) return;
    // Reads in flight are short (one query); a reload is the rare
    // failure path, so polling keeps the read side free of wakeups.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void EpochManager::EndQuiesce() {
  MutexLock lock(quiesce_mu_);
  quiescing_.store(false, std::memory_order_seq_cst);
  quiesce_cv_.NotifyAll();
}

void EpochManager::StartGc() {
  {
    MutexLock lock(gc_mu_);
    if (gc_running_) return;
    gc_stop_ = false;
    gc_running_ = true;
  }
  gc_thread_ = std::thread(&EpochManager::GcLoop, this);
}

void EpochManager::StopGc() {
  {
    MutexLock lock(gc_mu_);
    if (!gc_running_) return;
    gc_stop_ = true;
    gc_cv_.NotifyAll();
  }
  if (gc_thread_.joinable()) gc_thread_.join();
  MutexLock lock(gc_mu_);
  gc_running_ = false;
}

uint64_t EpochManager::MinAnnounced() const {
  uint64_t low = EpochSlot::kIdle;
  slots_.ForEach([&low](const EpochSlot& s) {
    low = std::min(low, s.announced.load(std::memory_order_seq_cst));
  });
  return low;
}

void EpochManager::RunGcCycle() {
  uint64_t floor;
  {
    FloorScan scan(this);
    floor = std::min(scan.epoch(), MinAnnounced());
  }
  // Entries with as_of < floor can only be resolved by pins below the
  // floor — none exist, and Pin()'s validation can never create one.
  versions_->ReclaimBefore(floor);
  MutexLock lock(gc_mu_);
  auto keep = records_.lower_bound(floor);
  // The newest record stays whatever the floor: latest_ points at it.
  if (keep == records_.end() && keep != records_.begin()) --keep;
  if (keep != records_.begin()) {
    keep->second->prev.store(nullptr, std::memory_order_relaxed);
    records_.erase(records_.begin(), keep);
  }
  ++gc_cycles_;
  gc_floor_ = floor;
}

void EpochManager::GcLoop() {
  for (;;) {
    {
      MutexLock lock(gc_mu_);
      if (gc_stop_) return;
      // Periodic wakeup is the only trigger: unpinning notifies no one,
      // so a reclaimable version waits at most this long.
      (void)gc_cv_.WaitFor(gc_mu_, std::chrono::milliseconds(10));
      if (gc_stop_) return;
    }
    RunGcCycle();
  }
}

EpochStats EpochManager::stats() const {
  EpochStats st;
  slots_.ForEach([&st](const EpochSlot& s) {
    st.pinned += s.pinned.load(std::memory_order_relaxed);
    st.pins_taken += s.taken.load(std::memory_order_relaxed);
  });
  {
    FloorScan scan(this);
    const uint64_t low = MinAnnounced();
    st.min_pinned = low == EpochSlot::kIdle ? 0 : low;
  }
  MutexLock lock(gc_mu_);
  st.gc_cycles = gc_cycles_;
  st.gc_floor = gc_floor_;
  return st;
}

}  // namespace zdb
