// PASS control: the disciplined versions of every FAIL case. These must
// compile warning-clean, proving the suite's flags reject the violations
// and not the annotation vocabulary itself.

#include <cstdint>

#include "common/mutex.h"
#include "common/thread_annotations.h"

struct Disciplined {
  zdb::Mutex mu;
  zdb::CondVar cv;
  int value GUARDED_BY(mu) = 0;
  bool open GUARDED_BY(mu) = false;

  zdb::SharedMutex latch;
  int entries GUARDED_BY(latch) = 0;

  // guarded_by_unlocked_write.cc, done right.
  void Bump() EXCLUDES(mu) {
    zdb::MutexLock lock(mu);
    ++value;
  }

  // requires_not_held.cc, done right.
  void InsertLocked() REQUIRES(mu) { ++value; }
  void Insert() EXCLUDES(mu) {
    zdb::MutexLock lock(mu);
    InsertLocked();
  }

  // shared_write_under_reader.cc, done right: shared hold for the read,
  // exclusive hold for the write.
  int Read() EXCLUDES(latch) {
    zdb::ReaderLock lock(latch);
    return entries;
  }
  void Mutate() EXCLUDES(latch) {
    zdb::WriterLock lock(latch);
    ++entries;
  }

  // missing_release.cc, done right: every path releases.
  int Pop() EXCLUDES(mu) {
    mu.Lock();
    if (value == 0) {
      mu.Unlock();
      return -1;
    }
    --value;
    const int left = value;
    mu.Unlock();
    return left;
  }

  // condvar_wait_unheld.cc, done right: wait under the lock.
  void Await() EXCLUDES(mu) {
    zdb::MutexLock lock(mu);
    while (!open) cv.Wait(mu);
  }
  void Open() EXCLUDES(mu) {
    {
      zdb::MutexLock lock(mu);
      open = true;
    }
    cv.NotifyAll();
  }
};

// min_pinned_epoch_bypass.cc, done right: the slot scan runs inside the
// scoped FloorScan, which loads the epoch first.
class CAPABILITY("pin-slot scan") SlotScan {};

struct OrderedFloor {
  uint64_t epoch = 9;
  uint64_t announced = 3;
  SlotScan scan;

  class SCOPED_CAPABILITY FloorScan {
   public:
    explicit FloorScan(OrderedFloor* f) ACQUIRE_SHARED(f->scan)
        : epoch_(f->epoch) {}
    ~FloorScan() RELEASE() {}
    uint64_t epoch() const { return epoch_; }

   private:
    const uint64_t epoch_;
  };

  uint64_t MinAnnounced() const REQUIRES_SHARED(scan) { return announced; }

  uint64_t ReclamationFloor() {
    FloorScan fs(this);
    const uint64_t low = MinAnnounced();
    return low < fs.epoch() ? low : fs.epoch();
  }
};

int main() {
  OrderedFloor f;
  (void)f.ReclamationFloor();
  Disciplined d;
  d.Bump();
  d.Insert();
  (void)d.Read();
  d.Mutate();
  (void)d.Pop();
  d.Open();
  d.Await();
  return 0;
}
