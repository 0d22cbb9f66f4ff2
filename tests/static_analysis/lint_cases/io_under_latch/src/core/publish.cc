// Seeded violation: a publish function calls into the durability tail
// inside its writer section, the publish half that must stay I/O-free
// (commit_mu_ alone may be held across the flush, the section may not).
// The sink (fsync) lives two hops away in another TU — only the
// interprocedural search can see it. zdb_lint must reject this with
// [io-under-latch].

namespace zdb {

void FlushTail();  // defined in src/storage/tail.cc

class SpatialIndex {
 public:
  void Publish();

 private:
  Mutex commit_mu_;
};

void SpatialIndex::Publish() {
  MutexLock commit(commit_mu_);
  WriterSection section(this);
  FlushTail();  // I/O before the section ends
}

}  // namespace zdb
