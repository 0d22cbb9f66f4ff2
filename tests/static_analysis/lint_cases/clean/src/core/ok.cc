// Positive control: the disciplined versions of every seeded pattern.
// Writer sections stay in-memory (the durability tail runs after End()),
// the lock order follows the declared commit_mu_ -> gc_mu_ chain, and
// pins stay on the stack. zdb_lint must run this tree clean — proving
// the FAIL fixtures fail for the right reason, not because the tool
// rejects everything.

namespace zdb {

class EpochPin {};
class EpochManager {
 public:
  EpochPin Pin();
};

class SpatialIndex {
 public:
  void Write();
  void ReadSnapshot();

 private:
  void MutateInMemory();
  void CommitGroup();
  Mutex commit_mu_;
  Mutex gc_mu_ ACQUIRED_AFTER(commit_mu_);
  EpochManager* mgr_ = nullptr;
};

void SpatialIndex::Write() {
  MutexLock commit(commit_mu_);
  WriterSection section(this);
  MutateInMemory();  // publish: no I/O inside the section
  section.End();
  CommitGroup();  // durability after the section, commit_mu_ still held
}

void SpatialIndex::MutateInMemory() {}

void SpatialIndex::CommitGroup() {
  MutexLock g(gc_mu_);
  fsync(3);
}

void SpatialIndex::ReadSnapshot() {
  EpochPin pin = mgr_->Pin();  // stack-scoped, dies in this frame
  (void)pin;
}

}  // namespace zdb
