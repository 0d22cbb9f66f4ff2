// Positive control for [requires-held]: page-table writes under a guard
// on the shard mutex, or inside a helper whose own contract requires it.

namespace zdb {

class BufferPool {
 public:
  void Load(Shard& s, PageId id, uint32_t frame);

 private:
  struct Shard {
    Mutex mu;
  };
  void Map(Shard& s, PageId id, uint32_t frame) REQUIRES(s.mu);
  void IndexInsert(Shard& s, PageId id, uint32_t frame) REQUIRES(s.mu);
};

void BufferPool::Load(Shard& s, PageId id, uint32_t frame) {
  MutexLock lock(s.mu);
  Map(s, id, frame);
}

void BufferPool::Map(Shard& s, PageId id, uint32_t frame) {
  IndexInsert(s, id, frame);
}

}  // namespace zdb
