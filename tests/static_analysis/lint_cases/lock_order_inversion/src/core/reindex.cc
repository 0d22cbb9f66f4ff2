// The other half of the seeded inversion: Reindex takes the writer
// lock. On its own this is fine — the violation is the caller in gc.cc
// that enters with gc_mu_ held.

namespace zdb {

void SpatialIndex::Reindex() {
  MutexLock commit(commit_mu_);
  WriterSection section(this);
}

}  // namespace zdb
