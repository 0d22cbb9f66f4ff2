// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Epoch pinning and version GC — the lifecycle half of snapshot reads
// (the version chains themselves live in storage/snapshot.h).
//
// A reader calls EpochManager::Pin() and gets back an RAII EpochPin on
// the current write epoch. While any pin at or below epoch E is held,
// the GC thread will not reclaim version-chain entries or snapshot
// metas that a reader at E could still resolve.
//
// Pins are announced in per-thread slots (common/thread_slots.h), one
// cache line per thread, so pinning shares no lock and no written cache
// line with other readers. A slot announces the lowest epoch among its
// thread's pins. Pin() announces, then validates:
//
//   reader: e = epoch; slot = e (seq_cst); if epoch (seq_cst) != e, retry
//   GC:     E = epoch (seq_cst); floor = min(E, every slot (seq_cst))
//
// All four accesses are seq_cst, so they fall in one total order. If
// the GC's load of the slot comes after the reader's announce, it sees
// e (or a later value the reader stored once it was done). Otherwise
// the GC's epoch load precedes the reader's validating load, which
// therefore reads an epoch >= E; validation passed, so E <= e. Either
// way floor <= e: a validated pin is never below a floor the GC uses.
// Nested pins on one thread need no announce — the outer pin already
// announces an epoch no higher than theirs (epochs only grow).
//
// Each published epoch has an EpochRecord: its SnapshotMeta and whether
// a failed group commit rolled it back. A pin carries a pointer to its
// record and the GC frees records only below the floor, so a query
// reaches its meta with no lock and no reference count. Unpinning wakes
// nobody: the GC runs on a 10 ms timer.
//
// The slots also count in-flight snapshot reads for the reload quiesce
// barrier (EnterRead/LeaveRead against BeginQuiesce/EndQuiesce), again
// one seq_cst store per side with no lock on the read path.
//
// Lock order (extends the index's commit_mu_ -> gc_mu_ discipline):
// the writer calls RecordMeta/InvalidateRange and the quiesce brackets
// while holding the index's commit_mu_, so commit_mu_ -> manager gc_mu_
// and commit_mu_ -> quiesce_mu_ are part of the order; the manager
// never acquires any index lock.
//
// EpochPin misuse is a programming error and aborts loudly rather than
// corrupting the pin accounting: double release, release (or
// destruction) on a thread other than the pinning one, release of an
// epoch the thread does not hold, and a pin outliving its manager all
// call LockAssertFail. The pin may be freely *read* (epoch()) from
// other threads — threads that each open a snapshot scope under one
// pin (SpatialIndex::OpenSnapshot) share it by const reference.

#ifndef ZDB_CORE_EPOCH_H_
#define ZDB_CORE_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_slots.h"
#include "storage/snapshot.h"

namespace zdb {

class EpochManager;

/// One thread's pin state in one EpochManager. The atomics are read by
/// other threads (GC, stats, reload); `held` is read and written only
/// by the owning thread (see thread_slots.h).
struct alignas(kCacheLineSize) EpochSlot {
  static constexpr uint64_t kIdle = UINT64_MAX;

  std::atomic<uint64_t> announced{kIdle};  ///< min epoch of `held`
  std::atomic<uint32_t> reads{0};   ///< snapshot reads in flight
  std::atomic<uint32_t> pinned{0};  ///< held.size(), for stats
  std::atomic<uint64_t> taken{0};   ///< lifetime pins, for stats
  std::vector<uint64_t> held;       ///< epochs of this thread's pins
};

/// The reader-visible state of one published epoch. Owned by the
/// manager; pins at `epoch` keep it alive.
struct EpochRecord {
  uint64_t epoch = 0;
  SnapshotMeta meta;
  /// The next older record (null once that one is reclaimed).
  std::atomic<const EpochRecord*> prev{nullptr};
  /// Set by InvalidateRange, after `cause`: queries at this epoch fail.
  std::atomic<bool> rolled_back{false};
  Status cause;
};

/// RAII handle on a pinned epoch. Move-only; see the misuse contract in
/// the file comment.
class EpochPin {
 public:
  EpochPin() = default;
  EpochPin(EpochPin&& other) noexcept { *this = std::move(other); }
  EpochPin& operator=(EpochPin&& other) noexcept;
  ~EpochPin();

  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;

  bool valid() const { return mgr_ != nullptr; }
  uint64_t epoch() const { return epoch_; }

  /// Unpins. Aborts on double release, on a default-constructed pin,
  /// and when called from a thread other than the pinning one.
  void Release();

 private:
  friend class EpochManager;
  EpochPin(EpochManager* mgr, EpochSlot* slot, uint64_t epoch,
           const EpochRecord* record)
      : mgr_(mgr),
        slot_(slot),
        epoch_(epoch),
        record_(record),
        owner_(std::this_thread::get_id()) {}

  EpochManager* mgr_ = nullptr;
  EpochSlot* slot_ = nullptr;
  uint64_t epoch_ = 0;
  const EpochRecord* record_ = nullptr;
  std::thread::id owner_{};
};

/// Snapshot counters surfaced through SpatialIndex/DB stats.
struct EpochStats {
  uint64_t pinned = 0;       ///< pins currently held
  uint64_t min_pinned = 0;   ///< lowest pinned epoch (0 if none)
  uint64_t pins_taken = 0;   ///< lifetime pin count
  uint64_t gc_cycles = 0;    ///< reclamation passes run
  uint64_t gc_floor = 0;     ///< floor of the latest pass (0 before any)
};

/// Tracks pinned epochs, stores per-epoch snapshot metas, and runs the
/// reclamation thread. One instance per snapshot-enabled SpatialIndex.
class EpochManager {
 public:
  /// `epoch` is the index's write-epoch counter; `versions` the buffer
  /// pool's chain table. Both must outlive the manager.
  EpochManager(const std::atomic<uint64_t>* epoch, PageVersions* versions);

  /// Stops the GC thread. Aborts if any EpochPin is still outstanding —
  /// a pin outliving its manager would be a dangling reference.
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Pins the current write epoch.
  EpochPin Pin();

  /// Writer side (called under the index's commit_mu_, before the
  /// epoch counter is bumped to `epoch`): stores the meta readers pinned
  /// at `epoch` resolve non-page state through.
  void RecordMeta(uint64_t epoch, SnapshotMeta meta) EXCLUDES(gc_mu_);

  /// Writer side, on group rollback: epochs in (lo, hi] never became
  /// durable and their published state was reloaded away; queries at a
  /// pin in that range fail with Aborted carrying `cause`.
  void InvalidateRange(uint64_t lo, uint64_t hi, Status cause)
      EXCLUDES(gc_mu_);

  /// Reader side: the meta of a pin taken from this manager. Aborted if
  /// the epoch was rolled back; InvalidArgument for a foreign or empty
  /// pin; Internal if no meta was recorded (a bug). Lock-free: the pin
  /// keeps its record alive.
  Result<const SnapshotMeta*> MetaAt(const EpochPin& pin) const;

  /// Counts a snapshot read in flight on the calling thread. Waits
  /// while a reload quiesce is in progress, unless this thread already
  /// has a read in flight (a nested read is part of the outer one).
  void EnterRead() EXCLUDES(quiesce_mu_);
  void LeaveRead();

  /// Raises the reload barrier and waits until no snapshot read is in
  /// flight / lowers it again. The caller holds the index's commit_mu_,
  /// so no writer runs meanwhile.
  void BeginQuiesce() EXCLUDES(quiesce_mu_);
  void EndQuiesce() EXCLUDES(quiesce_mu_);

  /// Starts / stops the background reclamation thread. Start is
  /// idempotent; Stop is also called by the destructor.
  void StartGc();
  void StopGc();

  /// One synchronous reclamation pass (what the GC thread runs each
  /// wakeup). Exposed so tests can make reclamation deterministic.
  void RunGcCycle() EXCLUDES(gc_mu_);

  EpochStats stats() const EXCLUDES(gc_mu_);

 private:
  friend class EpochPin;

  /// Capability token for reading the pin slots' announced epochs. It
  /// guards no data and is not a lock: only FloorScan holds it, and
  /// FloorScan loads the write epoch before its holder scans the slots
  /// — the order the file comment's argument rests on.
  class CAPABILITY("pin-slot scan") SlotScan {};

  /// Scoped floor computation: loads the epoch (seq_cst) on entry.
  class SCOPED_CAPABILITY FloorScan {
   public:
    explicit FloorScan(const EpochManager* mgr) ACQUIRE_SHARED(mgr->scan_)
        : epoch_(mgr->epoch_->load(std::memory_order_seq_cst)) {}
    ~FloorScan() RELEASE() {}
    FloorScan(const FloorScan&) = delete;
    FloorScan& operator=(const FloorScan&) = delete;
    uint64_t epoch() const { return epoch_; }

   private:
    const uint64_t epoch_;
  };

  /// Lowest announced epoch over all slots (EpochSlot::kIdle if none).
  uint64_t MinAnnounced() const REQUIRES_SHARED(scan_);

  void Unpin(EpochSlot* slot, uint64_t epoch);
  void GcLoop();

  const std::atomic<uint64_t>* epoch_;
  PageVersions* versions_;
  ThreadSlots<EpochSlot> slots_;
  SlotScan scan_;

  /// Newest record; readers walk `prev` from here to their epoch.
  std::atomic<const EpochRecord*> latest_{nullptr};

  mutable Mutex gc_mu_;
  /// Owner of every live record, by epoch.
  std::map<uint64_t, std::unique_ptr<EpochRecord>> records_
      GUARDED_BY(gc_mu_);
  CondVar gc_cv_;
  bool gc_stop_ GUARDED_BY(gc_mu_) = false;
  bool gc_running_ GUARDED_BY(gc_mu_) = false;
  uint64_t gc_cycles_ GUARDED_BY(gc_mu_) = 0;
  uint64_t gc_floor_ GUARDED_BY(gc_mu_) = 0;
  std::thread gc_thread_;

  /// Reload barrier. Readers test `quiescing_` lock-free and take
  /// quiesce_mu_ only to wait while it is up.
  std::atomic<bool> quiescing_{false};
  Mutex quiesce_mu_;
  CondVar quiesce_cv_;
};

}  // namespace zdb

#endif  // ZDB_CORE_EPOCH_H_
