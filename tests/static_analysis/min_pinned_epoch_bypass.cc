// FAIL case: reading the minimum announced pin epoch outside the
// ordered floor scan. Mirrors EpochManager's floor computation
// (core/epoch.h): pins are announced in per-thread slots, and the GC
// floor is min(current epoch, every announced epoch) where the current
// epoch must be loaded BEFORE the slots are scanned — the
// announce-then-validate argument rests on that order. The slot scan
// therefore requires the `scan` capability, which only the scoped
// FloorScan (whose constructor loads the epoch first) acquires. A GC
// cycle that reads the slots without it reintroduces the race in which
// a new pin slips below the floor; the analysis must reject the bypass.

#include <atomic>
#include <cstdint>

#include "common/thread_annotations.h"

class CAPABILITY("pin-slot scan") SlotScan {};

struct PinSlots {
  std::atomic<uint64_t> epoch{9};
  std::atomic<uint64_t> announced[4] = {UINT64_MAX, UINT64_MAX, UINT64_MAX,
                                        UINT64_MAX};
  SlotScan scan;

  class SCOPED_CAPABILITY FloorScan {
   public:
    explicit FloorScan(PinSlots* s) ACQUIRE_SHARED(s->scan)
        : epoch_(s->epoch.load(std::memory_order_seq_cst)) {}
    ~FloorScan() RELEASE() {}
    uint64_t epoch() const { return epoch_; }

   private:
    const uint64_t epoch_;
  };

  uint64_t MinAnnounced() const REQUIRES_SHARED(scan) {
    uint64_t low = UINT64_MAX;
    for (const auto& a : announced) {
      const uint64_t v = a.load(std::memory_order_seq_cst);
      if (v < low) low = v;
    }
    return low;
  }

  // The racy GC cycle: scans the slots first and loads the epoch after,
  // without the FloorScan. Must be rejected.
  uint64_t ReclamationFloor() {
    const uint64_t low = MinAnnounced();
    const uint64_t e = epoch.load(std::memory_order_seq_cst);
    return low < e ? low : e;
  }
};

int main() {
  PinSlots t;
  t.announced[1].store(3);
  return static_cast<int>(t.ReclamationFloor() == 3 ? 0 : 1);
}
