// Copyright (c) zdb authors. Licensed under the MIT license.

#include "common/thread_slots.h"

#include <set>

#include "common/mutex.h"

namespace zdb {
namespace internal {

namespace {

/// Free and in-use thread indices. Leaked on purpose: thread-exit
/// handlers of threads outliving static destruction still release into
/// it.
struct IndexRegistry {
  Mutex mu;
  std::set<uint32_t> free GUARDED_BY(mu);
  uint32_t next GUARDED_BY(mu) = 0;
};

IndexRegistry& Registry() {
  static IndexRegistry* registry = new IndexRegistry;
  return *registry;
}

/// Hands the calling thread's index back when the thread exits.
struct IndexReleaser {
  ~IndexReleaser() {
    if (t_thread_index == kMaxThreadIndex) return;
    IndexRegistry& r = Registry();
    MutexLock lock(r.mu);
    r.free.insert(t_thread_index);
    t_thread_index = kMaxThreadIndex;
  }
};

}  // namespace

uint32_t AcquireThreadIndex() {
  static thread_local IndexReleaser releaser;
  (void)releaser;  // odr-use: registers the thread-exit release
  IndexRegistry& r = Registry();
  MutexLock lock(r.mu);
  uint32_t i;
  if (!r.free.empty()) {
    i = *r.free.begin();
    r.free.erase(r.free.begin());
  } else if (r.next < kMaxThreadIndex) {
    i = r.next++;
  } else {
    LockAssertFail("more live threads than per-thread slot indices");
  }
  t_thread_index = i;
  return i;
}

}  // namespace internal
}  // namespace zdb
