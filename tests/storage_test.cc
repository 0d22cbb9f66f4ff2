// Copyright (c) zdb authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>

#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/pager.h"
#include "storage/snapshot.h"

namespace zdb {
namespace {

// ------------------------------------------------------------------ files

TEST(MemFile, ZeroFillsPastEof) {
  MemFile f;
  ASSERT_TRUE(f.Write(0, "abc", 3).ok());
  char buf[8];
  std::memset(buf, 'x', sizeof(buf));
  ASSERT_TRUE(f.Read(1, 6, buf).ok());
  EXPECT_EQ(buf[0], 'b');
  EXPECT_EQ(buf[1], 'c');
  EXPECT_EQ(buf[2], 0);
  EXPECT_EQ(buf[5], 0);
  EXPECT_EQ(f.Size(), 3u);
}

TEST(MemFile, SparseWriteExtends) {
  MemFile f;
  ASSERT_TRUE(f.Write(100, "z", 1).ok());
  EXPECT_EQ(f.Size(), 101u);
  char c = 'x';
  ASSERT_TRUE(f.Read(50, 1, &c).ok());
  EXPECT_EQ(c, 0);
}

TEST(PosixFile, RoundTrip) {
  char path[] = "/tmp/zdb_file_test_XXXXXX";
  int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);
  {
    auto f = PosixFile::Open(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Write(4096, "hello", 5).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    EXPECT_EQ((*f)->Size(), 4101u);
  }
  {
    auto f = PosixFile::Open(path);
    ASSERT_TRUE(f.ok());
    char buf[5];
    ASSERT_TRUE((*f)->Read(4096, 5, buf).ok());
    EXPECT_EQ(std::string(buf, 5), "hello");
    // Reads past EOF zero-fill.
    char past[3];
    ASSERT_TRUE((*f)->Read(10000, 3, past).ok());
    EXPECT_EQ(past[0], 0);
  }
  std::remove(path);
}

// ------------------------------------------------------------------ pager

TEST(Pager, RejectsBadPageSize) {
  EXPECT_FALSE(Pager::Open(std::make_unique<MemFile>(), 100).ok());
  EXPECT_FALSE(Pager::Open(std::make_unique<MemFile>(), 1000).ok());
  EXPECT_FALSE(Pager::Open(std::make_unique<MemFile>(), 1 << 20).ok());
  EXPECT_TRUE(Pager::Open(std::make_unique<MemFile>(), 256).ok());
}

TEST(Pager, AllocateReadWrite) {
  auto pager = Pager::OpenInMemory(512);
  auto p1 = pager->Allocate();
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, 1u);  // page 0 is the header
  std::vector<char> buf(512, 'a');
  ASSERT_TRUE(pager->WritePage(*p1, buf.data()).ok());
  std::vector<char> got(512);
  ASSERT_TRUE(pager->ReadPage(*p1, got.data()).ok());
  EXPECT_EQ(got, buf);
  EXPECT_EQ(pager->io_stats().page_reads, 1u);
  EXPECT_EQ(pager->io_stats().page_writes, 1u);
  EXPECT_EQ(pager->live_page_count(), 1u);
}

TEST(Pager, FreeListRecycles) {
  auto pager = Pager::OpenInMemory(512);
  const PageId a = pager->Allocate().value();
  const PageId b = pager->Allocate().value();
  EXPECT_EQ(pager->live_page_count(), 2u);
  ASSERT_TRUE(pager->Free(a).ok());
  ASSERT_TRUE(pager->Free(b).ok());
  EXPECT_EQ(pager->live_page_count(), 0u);
  // LIFO recycling.
  EXPECT_EQ(pager->Allocate().value(), b);
  EXPECT_EQ(pager->Allocate().value(), a);
  // No new pages were created.
  EXPECT_EQ(pager->page_count(), 3u);
}

TEST(Pager, RejectsInvalidIds) {
  auto pager = Pager::OpenInMemory(512);
  std::vector<char> buf(512);
  EXPECT_FALSE(pager->ReadPage(kInvalidPageId, buf.data()).ok());
  EXPECT_FALSE(pager->ReadPage(99, buf.data()).ok());
  EXPECT_FALSE(pager->WritePage(99, buf.data()).ok());
  EXPECT_FALSE(pager->Free(99).ok());
}

TEST(Pager, PersistsAcrossReopen) {
  auto file = std::make_unique<MemFile>();
  MemFile* raw = file.get();
  PageId page;
  {
    auto pager = Pager::Open(std::move(file), 512).value();
    page = pager->Allocate().value();
    std::vector<char> buf(512, 'q');
    ASSERT_TRUE(pager->WritePage(page, buf.data()).ok());
    ASSERT_TRUE(pager->Sync().ok());
    // Hand the file back for "reopen" (MemFile has no real identity; we
    // copy its contents into a fresh one).
    file = std::make_unique<MemFile>();
    std::vector<char> all(raw->Size());
    ASSERT_TRUE(raw->Read(0, all.size(), all.data()).ok());
    ASSERT_TRUE(file->Write(0, all.data(), all.size()).ok());
  }
  auto pager = Pager::Open(std::move(file), 512);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->live_page_count(), 1u);
  std::vector<char> got(512);
  ASSERT_TRUE((*pager)->ReadPage(page, got.data()).ok());
  EXPECT_EQ(got[0], 'q');
}

TEST(Pager, ReopenRejectsWrongPageSize) {
  auto file = std::make_unique<MemFile>();
  MemFile* raw = file.get();
  {
    auto pager = Pager::Open(std::move(file), 512).value();
    ASSERT_TRUE(pager->Sync().ok());
    file = std::make_unique<MemFile>();
    std::vector<char> all(raw->Size());
    ASSERT_TRUE(raw->Read(0, all.size(), all.data()).ok());
    ASSERT_TRUE(file->Write(0, all.data(), all.size()).ok());
  }
  EXPECT_FALSE(Pager::Open(std::move(file), 1024).ok());
}

/// A MemFile whose Sync blocks until release() is called, reporting
/// that it was entered.
class BlockingSyncFile : public MemFile {
 public:
  Status Sync() override {
    entered_.set_value();
    release_.get_future().wait();
    return Status::OK();
  }
  std::future<void> entered() { return entered_.get_future(); }
  void release() { release_.set_value(); }

 private:
  std::promise<void> entered_;
  std::promise<void> release_;
};

// A pool miss reads without the pager mutex, so it completes while
// another thread's CommitBatch holds that mutex across its sync.
TEST(Pager, ReadCompletesWhileCommitSyncs) {
  auto file = std::make_unique<BlockingSyncFile>();
  BlockingSyncFile* blocking = file.get();
  auto pager =
      Pager::Open(std::move(file), std::make_unique<MemFile>(), 512).value();
  const PageId id = pager->Allocate().value();
  std::vector<char> page(512, 'r');
  ASSERT_TRUE(pager->WritePage(id, page.data()).ok());
  ASSERT_TRUE(pager->BeginBatch().ok());

  std::future<void> entered = blocking->entered();
  std::thread committer([&] { EXPECT_TRUE(pager->CommitBatch().ok()); });
  entered.wait();  // CommitBatch now holds the pager mutex inside Sync
  std::vector<char> got(512);
  EXPECT_TRUE(pager->ReadPage(id, got.data()).ok());
  EXPECT_EQ(got, page);
  blocking->release();
  committer.join();
}

// ------------------------------------------------------------ buffer pool

TEST(BufferPool, HitAndMissAccounting) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 4);
  PageId id;
  {
    auto ref = pool.New().value();
    id = ref.id();
    ref.mutable_data()[0] = 'z';
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.Clear().ok());

  const IoStats before = pager->io_stats();
  {
    auto ref = pool.Fetch(id).value();  // miss
    EXPECT_EQ(ref.data()[0], 'z');
  }
  {
    auto ref = pool.Fetch(id).value();  // hit
    (void)ref;
  }
  const IoStats d = pager->io_stats().Since(before);
  EXPECT_EQ(d.pool_misses, 1u);
  EXPECT_EQ(d.pool_hits, 1u);
  EXPECT_EQ(d.page_reads, 1u);
}

TEST(BufferPool, EvictsLeastRecentlyUsed) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 2);
  const PageId a = pool.New().value().id();
  const PageId b = pool.New().value().id();
  ASSERT_TRUE(pool.FlushAll().ok());

  // Touch a, then fetch a third page: b must be evicted.
  (void)pool.Fetch(a).value();
  const PageId c = pool.New().value().id();
  (void)c;
  const IoStats before = pager->io_stats();
  (void)pool.Fetch(a).value();  // still cached -> hit
  EXPECT_EQ(pager->io_stats().Since(before).pool_hits, 1u);
  const IoStats before_b = pager->io_stats();
  (void)pool.Fetch(b).value();  // evicted -> miss
  EXPECT_EQ(pager->io_stats().Since(before_b).pool_misses, 1u);
}

// Snapshot hits stamp a frame only when its LRU stamp is behind the
// shard clock, which advances on loads: a page kept hot by snapshot hits
// alone survives a scan of many cold pages through a small pool.
TEST(BufferPool, SnapshotHitsKeepAPageHotThroughAColdScan) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 8);
  const PageId hot = pool.New().value().id();
  std::vector<PageId> cold;
  for (int i = 0; i < 100; ++i) cold.push_back(pool.New().value().id());
  ASSERT_TRUE(pool.FlushAll().ok());

  SnapshotView view;
  view.epoch = 1;
  view.versions = pool.versions();
  view.pool = &pool;
  SnapshotScope scope(view);
  (void)pool.Fetch(hot).value();
  const IoStats before = pager->io_stats();
  for (PageId id : cold) {
    (void)pool.Fetch(id).value();
    (void)pool.Fetch(hot).value();
  }
  const IoStats d = pager->io_stats().Since(before);
  EXPECT_EQ(d.pool_misses.load(), cold.size()) << "the hot page was evicted";
  EXPECT_EQ(d.pool_hits.load(), cold.size());
}

TEST(BufferPool, PinnedPagesAreNotEvicted) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 2);
  auto pin1 = pool.New().value();
  auto pin2 = pool.New().value();
  // Pool full of pins: a third page must fail.
  auto third = pool.New();
  EXPECT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsNoSpace());
  pin1.Release();
  EXPECT_TRUE(pool.New().ok());
}

TEST(BufferPool, DirtyPagesAreWrittenBackOnEviction) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 1);
  PageId id;
  {
    auto ref = pool.New().value();
    id = ref.id();
    ref.mutable_data()[7] = 'd';
  }
  // Evict by fetching another page.
  const PageId other = pager->Allocate().value();
  std::vector<char> zero(512, 0);
  ASSERT_TRUE(pager->WritePage(other, zero.data()).ok());
  (void)pool.Fetch(other).value();
  // The dirty page reached the file.
  std::vector<char> got(512);
  ASSERT_TRUE(pager->ReadPage(id, got.data()).ok());
  EXPECT_EQ(got[7], 'd');
  EXPECT_GE(pager->io_stats().pool_evictions, 1u);
}

TEST(BufferPool, DeleteDropsPage) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 4);
  PageId id;
  {
    auto ref = pool.New().value();
    id = ref.id();
  }
  ASSERT_TRUE(pool.Delete(id).ok());
  EXPECT_EQ(pager->live_page_count(), 0u);
  // Freed page is recycled by the next New().
  EXPECT_EQ(pool.New().value().id(), id);
}

TEST(BufferPool, DeletePinnedFails) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 4);
  auto ref = pool.New().value();
  EXPECT_FALSE(pool.Delete(ref.id()).ok());
}

TEST(BufferPool, MoveSemanticsOfPageRef) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 2);
  auto a = pool.New().value();
  const PageId id = a.id();
  PageRef b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.id(), id);
  b.Release();
  EXPECT_FALSE(b.valid());
}

// ------------------------------------------- snapshot-backed page refs

constexpr uint32_t kSmallPage = 256;

/// Fetches `id` as a pinned reader at `epoch` would: through a
/// SnapshotView, so the ref shares a page buffer and holds no pin.
PageRef SnapshotRef(BufferPool* pool, PageId id, uint64_t epoch) {
  SnapshotView view;
  view.epoch = epoch;
  view.versions = pool->versions();
  view.pool = pool;
  SnapshotScope scope(view);
  return pool->Fetch(id).value();
}

std::string Bytes(const PageRef& ref) {
  return std::string(ref.data(), kSmallPage);
}

/// A new page filled with `c`, released (cached, dirty, unpinned).
PageId NewFilled(BufferPool* pool, char c) {
  PageRef ref = pool->New().value();
  std::memset(ref.mutable_data(), c, kSmallPage);
  return ref.id();
}

// The writer's first mutation of a page in a batch, and every later
// one, leave a snapshot ref's bytes alone: a shared buffer moves into
// the version chain and the frame mutates a copy. An unshared buffer is
// copied into the chain and mutated in place.
TEST(BufferPool, SnapshotRefSurvivesWriterMutations) {
  auto pager = Pager::OpenInMemory(kSmallPage);
  BufferPool pool(pager.get(), 8);
  const PageId shared = NewFilled(&pool, 'a');
  const PageId unshared = NewFilled(&pool, 'u');
  pool.ArmVersioning(2);  // the batch that will publish epoch 2

  PageRef snap = SnapshotRef(&pool, shared, 1);
  const char* bytes = snap.data();
  const std::string before = Bytes(snap);
  EXPECT_EQ(before, std::string(kSmallPage, 'a'));
  EXPECT_EQ(pool.pinned_pages(), 0u);
  {
    PageRef live = pool.Fetch(shared).value();
    std::memset(live.mutable_data(), 'b', kSmallPage);  // first mutation
    EXPECT_EQ(snap.data(), bytes);
    EXPECT_EQ(Bytes(snap), before);
    std::memset(live.mutable_data(), 'c', kSmallPage);  // later mutation
    EXPECT_EQ(Bytes(snap), before);
    EXPECT_EQ(Bytes(live), std::string(kSmallPage, 'c'));
    PageRef other = pool.Fetch(unshared).value();
    std::memset(other.mutable_data(), 'v', kSmallPage);
    std::memset(other.mutable_data(), 'w', kSmallPage);
  }
  EXPECT_EQ(snap.data(), bytes);
  EXPECT_EQ(Bytes(snap), before);
  // Epoch 1 resolves to the saved images, epoch 2 to the live bytes.
  EXPECT_EQ(Bytes(SnapshotRef(&pool, shared, 1)), before);
  EXPECT_EQ(Bytes(SnapshotRef(&pool, shared, 2)),
            std::string(kSmallPage, 'c'));
  EXPECT_EQ(Bytes(SnapshotRef(&pool, unshared, 1)),
            std::string(kSmallPage, 'u'));
  EXPECT_EQ(Bytes(SnapshotRef(&pool, unshared, 2)),
            std::string(kSmallPage, 'w'));
}

// Evicting the page a snapshot ref came from, reusing its frame for
// other pages and reloading and mutating the page leave the ref alone.
TEST(BufferPool, SnapshotRefSurvivesEvictionAndReload) {
  auto pager = Pager::OpenInMemory(kSmallPage);
  BufferPool pool(pager.get(), 2);  // one shard: exact LRU
  ASSERT_EQ(pool.shard_count(), 1u);
  const PageId p = NewFilled(&pool, 'p');
  const PageId q = NewFilled(&pool, 'q');
  const PageId r = NewFilled(&pool, 'r');  // evicts p, writing it back

  PageRef snap = SnapshotRef(&pool, p, 1);  // pool miss: loads p
  const std::string before = Bytes(snap);
  EXPECT_EQ(before, std::string(kSmallPage, 'p'));
  const uint64_t evictions = pager->io_stats().pool_evictions;
  (void)pool.Fetch(q).value();
  (void)pool.Fetch(r).value();  // p is least recently used: evicted
  EXPECT_GT(pager->io_stats().pool_evictions, evictions);
  EXPECT_EQ(Bytes(snap), before);
  {
    PageRef live = pool.Fetch(p).value();  // reload into a reused frame
    std::memset(live.mutable_data(), 'x', kSmallPage);
  }
  (void)pool.Fetch(q).value();
  EXPECT_EQ(Bytes(snap), before);
  EXPECT_EQ(Bytes(pool.Fetch(p).value()), std::string(kSmallPage, 'x'));
}

// A snapshot ref pins nothing, so Delete succeeds under it; the New
// that reuses the freed frame zero-fills a fresh buffer, not the ref's.
TEST(BufferPool, SnapshotRefSurvivesDeleteAndFrameReuse) {
  auto pager = Pager::OpenInMemory(kSmallPage);
  BufferPool pool(pager.get(), 4);
  const PageId p = NewFilled(&pool, 'd');
  PageRef snap = SnapshotRef(&pool, p, 1);
  const std::string before = Bytes(snap);

  ASSERT_TRUE(pool.Delete(p).ok());
  EXPECT_EQ(Bytes(snap), before);
  PageRef fresh = pool.New().value();
  ASSERT_EQ(fresh.id(), p);  // same id, same (free-listed) frame
  EXPECT_EQ(Bytes(fresh), std::string(kSmallPage, '\0'));
  std::memset(fresh.mutable_data(), 'n', kSmallPage);
  EXPECT_EQ(Bytes(snap), before);
}

// Discard drops every frame without waiting on snapshot refs; reloading
// the page from disk into a reused frame leaves the ref's bytes alone.
TEST(BufferPool, SnapshotRefSurvivesDiscard) {
  auto pager = Pager::OpenInMemory(kSmallPage);
  BufferPool pool(pager.get(), 4);
  const PageId p = NewFilled(&pool, 'o');
  ASSERT_TRUE(pool.FlushAll().ok());
  {
    PageRef live = pool.Fetch(p).value();
    std::memset(live.mutable_data(), 'm', kSmallPage);  // dirty, unflushed
  }
  PageRef snap = SnapshotRef(&pool, p, 1);
  const std::string before = Bytes(snap);
  EXPECT_EQ(before, std::string(kSmallPage, 'm'));

  ASSERT_TRUE(pool.Discard().ok());
  EXPECT_EQ(Bytes(snap), before);
  EXPECT_EQ(Bytes(pool.Fetch(p).value()), std::string(kSmallPage, 'o'));
  EXPECT_EQ(Bytes(snap), before);
}

}  // namespace
}  // namespace zdb
