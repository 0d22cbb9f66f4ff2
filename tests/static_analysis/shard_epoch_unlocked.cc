// FAIL case: reading the DB's per-shard epoch vector without holding
// epoch_mu. Mirrors zdb::DB's discipline (zdb/db.h, "Writes and
// locking"): the per-shard durable-epoch snapshot is shared between the
// write fan-out (publishing under the write mutex, here router_mu, then
// epoch_mu, in that ACQUIRED_AFTER order) and WaitDurable's cross-shard
// gather — every read of the vector must hold epoch_mu, and a "fast
// path" that peeks at another shard's epoch lock-free is exactly the
// race the annotations exist to catch. The analysis must reject the
// unlocked scan.

#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

struct RouterEpochs {
  zdb::Mutex router_mu;
  zdb::Mutex epoch_mu ACQUIRED_AFTER(router_mu);
  std::vector<uint64_t> shard_epochs GUARDED_BY(epoch_mu);

  // A durability gather that forgot the epoch mutex: the cross-shard
  // minimum must be taken under epoch_mu (the writer publishes there).
  uint64_t MinDurableEpoch() const {
    uint64_t lo = ~0ULL;
    for (uint64_t e : shard_epochs) {  // no lock held
      if (e < lo) lo = e;
    }
    return lo;
  }
};

int main() {
  RouterEpochs r;
  r.shard_epochs.resize(4);  // no lock held either
  return r.MinDurableEpoch() == 0 ? 0 : 1;
}
