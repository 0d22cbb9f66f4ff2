// Seeded violation: a miss path maps a freshly loaded page into the
// lock-free page table without holding the shard mutex that serializes
// the table's writers. zdb_lint must reject this with [requires-held].
// The operator= defined first must not hide the functions after it.

namespace zdb {

class PageRef {
 public:
  PageRef& operator=(PageRef&& other) noexcept;
};

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  return *this;
}

class BufferPool {
 public:
  void LoadUnlocked(Shard& s, PageId id, uint32_t frame);

 private:
  struct Shard {
    Mutex mu;
  };
  void IndexInsert(Shard& s, PageId id, uint32_t frame) REQUIRES(s.mu);
};

void BufferPool::LoadUnlocked(Shard& s, PageId id, uint32_t frame) {
  IndexInsert(s, id, frame);  // no MutexLock on s.mu
}

}  // namespace zdb
