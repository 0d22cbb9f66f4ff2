// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Per-thread slots: state that every thread updates on a hot path and
// some other thread occasionally sums or scans.
//
// ThisThreadIndex() gives every live thread a small dense index. It is
// taken on the thread's first call and handed back when the thread
// exits, so the next new thread reuses it (lowest free index first).
// ThreadSlots<Slot> keeps one Slot per index, in chunks that are
// allocated on first use and never move or shrink, so a thread reaches
// its own slot with two dependent loads and no lock. Slots are meant to
// fill a cache line each (alignas(kCacheLineSize)): a thread writing its
// own slot never touches a line another thread writes.
//
// Ownership: a slot is written only by the thread holding its index;
// readers on other threads use atomic loads. An index changes hands
// through the registry mutex, so a thread that inherits an index sees
// every write its previous holder made to the slots. Fields that only
// the holder ever reads may therefore be plain (non-atomic) members.

#ifndef ZDB_COMMON_THREAD_SLOTS_H_
#define ZDB_COMMON_THREAD_SLOTS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace zdb {

inline constexpr size_t kCacheLineSize = 64;

/// Slots per chunk and chunks per table: the index space is 4096 live
/// threads. ThisThreadIndex() aborts if more threads are alive at once.
inline constexpr uint32_t kThreadSlotsPerChunk = 64;
inline constexpr uint32_t kThreadSlotChunks = 64;
inline constexpr uint32_t kMaxThreadIndex =
    kThreadSlotsPerChunk * kThreadSlotChunks;

namespace internal {
uint32_t AcquireThreadIndex();
inline constinit thread_local uint32_t t_thread_index = kMaxThreadIndex;
}  // namespace internal

/// The calling thread's dense index, unique among live threads.
inline uint32_t ThisThreadIndex() {
  const uint32_t i = internal::t_thread_index;
  return i != kMaxThreadIndex ? i : internal::AcquireThreadIndex();
}

/// A table of one `Slot` per thread index. `Slot` must be default-
/// constructible; see the file comment for who may write what.
template <typename Slot>
class ThreadSlots {
 public:
  ThreadSlots() = default;
  ~ThreadSlots() {
    for (auto& c : chunks_) delete c.load(std::memory_order_relaxed);
  }
  ThreadSlots(const ThreadSlots&) = delete;
  ThreadSlots& operator=(const ThreadSlots&) = delete;

  /// The calling thread's slot, allocating its chunk on first use.
  Slot& Local() {
    const uint32_t i = ThisThreadIndex();
    std::atomic<Chunk*>& cell = chunks_[i / kThreadSlotsPerChunk];
    Chunk* c = cell.load(std::memory_order_acquire);
    if (c == nullptr) c = Grow(&cell);
    return c->slots[i % kThreadSlotsPerChunk];
  }

  /// Calls `fn(const Slot&)` for every slot allocated so far (slots of
  /// threads that never called Local() included, default-constructed).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& cell : chunks_) {
      const Chunk* c = cell.load(std::memory_order_acquire);
      if (c == nullptr) continue;
      for (const Slot& s : c->slots) fn(s);
    }
  }

 private:
  struct Chunk {
    std::array<Slot, kThreadSlotsPerChunk> slots;
  };

  static Chunk* Grow(std::atomic<Chunk*>* cell) {
    Chunk* fresh = new Chunk();
    Chunk* seen = nullptr;
    if (cell->compare_exchange_strong(seen, fresh, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      return fresh;
    }
    delete fresh;  // another thread of the same chunk won the race
    return seen;
  }

  std::array<std::atomic<Chunk*>, kThreadSlotChunks> chunks_{};
};

/// A monotonic event counter kept per thread: Add() writes only the
/// calling thread's cache line, with no read-modify-write; Sum() adds
/// every thread's count. Once the counting threads have been joined (or
/// otherwise synchronised with), Sum() is exact.
class ThreadCounter {
 public:
  void Add(uint64_t n = 1) {
    std::atomic<uint64_t>& v = slots_.Local().value;
    v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  uint64_t Sum() const {
    uint64_t total = 0;
    slots_.ForEach([&total](const Slot& s) {
      total += s.value.load(std::memory_order_relaxed);
    });
    return total;
  }

 private:
  struct alignas(kCacheLineSize) Slot {
    std::atomic<uint64_t> value{0};
  };
  ThreadSlots<Slot> slots_;
};

}  // namespace zdb

#endif  // ZDB_COMMON_THREAD_SLOTS_H_
