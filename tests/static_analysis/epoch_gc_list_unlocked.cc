// FAIL case: touching the epoch manager's GC-owned lists without
// holding gc_mu_. Mirrors EpochManager's metas_/aborted_ discipline
// (core/epoch.h): the meta map and the aborted-range list are shared
// between the writer (RecordMeta/InvalidateRange under the index
// commit_mu_), readers (MetaAt) and the reclamation thread — every access
// must hold gc_mu_. The analysis must reject the unlocked prune.

#include <cstdint>
#include <map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

struct GcLists {
  zdb::Mutex gc_mu;
  std::map<uint64_t, int> metas GUARDED_BY(gc_mu);
  std::vector<uint64_t> aborted GUARDED_BY(gc_mu);

  // A "reclamation pass" that forgot the mutex: both touches must be
  // flagged.
  void PruneBelow(uint64_t floor) {
    metas.erase(metas.begin(), metas.lower_bound(floor));  // no lock held
    aborted.clear();                                       // no lock held
  }
};

int main() {
  GcLists g;
  g.PruneBelow(7);
  return 0;
}
