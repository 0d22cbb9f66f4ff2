// Seeded violation: the GC cycle holds gc_mu_ and calls into another TU
// that takes the writer lock commit_mu_ — inverting the declared
// commit_mu_ -> gc_mu_ order. Each TU is locally consistent; only the
// call-graph propagation sees the inversion. zdb_lint must reject this
// with [lock-order].

namespace zdb {

class SpatialIndex {
 public:
  void GcCycle();
  void Reindex();  // defined in src/core/reindex.cc

 private:
  Mutex commit_mu_;
  Mutex gc_mu_ ACQUIRED_AFTER(commit_mu_);
};

void SpatialIndex::GcCycle() {
  MutexLock g(gc_mu_);
  Reindex();  // acquires commit_mu_ while gc_mu_ is held
}

}  // namespace zdb
