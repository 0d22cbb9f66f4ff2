// Copyright (c) zdb authors. Licensed under the MIT license.

#include "storage/pager.h"

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/coding.h"

namespace zdb {

namespace {
constexpr uint32_t kMagic = 0x7a646231;  // "zdb1"
constexpr size_t kHeaderMagicOff = 0;
constexpr size_t kHeaderPageSizeOff = 4;
constexpr size_t kHeaderPageCountOff = 8;
constexpr size_t kHeaderFreelistOff = 12;
constexpr size_t kHeaderLivePagesOff = 16;

// Rollback-journal layout: a 16-byte header followed by entries of
// [page id u32 | page image]. `entry count` is written only after the
// entry bytes it covers, so a torn final entry is never replayed.
constexpr uint32_t kJournalMagic = 0x7a6a6e31;  // "zjn1"
constexpr size_t kJournalMagicOff = 0;
constexpr size_t kJournalPageCountOff = 4;  // db pages at BeginBatch
constexpr size_t kJournalEntriesOff = 8;
constexpr size_t kJournalHeaderSize = 16;
}  // namespace

Result<std::unique_ptr<Pager>> Pager::Open(std::unique_ptr<File> file,
                                           uint32_t page_size) {
  if (page_size < kMinPageSize || page_size > kMaxPageSize ||
      (page_size & (page_size - 1)) != 0) {
    return Status::InvalidArgument("page size must be a power of two in [" +
                                   std::to_string(kMinPageSize) + ", " +
                                   std::to_string(kMaxPageSize) + "]");
  }
  std::unique_ptr<Pager> pager(new Pager(std::move(file), page_size));
  {
    // Uncontended (the pager is not published yet), but LoadHeader and
    // StoreHeader carry REQUIRES(mu_), so take it for real.
    MutexLock lock(pager->mu_);
    if (pager->file_->Size() == 0) {
      ZDB_RETURN_IF_ERROR(pager->StoreHeader());
    } else {
      ZDB_RETURN_IF_ERROR(pager->LoadHeader());
    }
  }
  return pager;
}

Result<std::unique_ptr<Pager>> Pager::Open(std::unique_ptr<File> file,
                                           std::unique_ptr<File> journal,
                                           uint32_t page_size) {
  std::unique_ptr<Pager> pager;
  // A pending rollback must run before the header is trusted: recover on
  // the raw files first, then open normally.
  {
    std::unique_ptr<Pager> probe(new Pager(std::move(file), page_size));
    probe->journal_ = std::move(journal);
    {
      MutexLock lock(probe->mu_);
      ZDB_RETURN_IF_ERROR(probe->Rollback());
    }
    file = std::move(probe->file_);
    journal = std::move(probe->journal_);
  }
  ZDB_ASSIGN_OR_RETURN(pager, Open(std::move(file), page_size));
  pager->journal_ = std::move(journal);
  return pager;
}

Status Pager::Rollback() {
  if (journal_ == nullptr || journal_->Size() < kJournalHeaderSize) {
    return Status::OK();  // no batch in flight
  }
  ZDB_RETURN_IF_ERROR(ReplayJournal());
  ZDB_RETURN_IF_ERROR(journal_->Truncate(0));
  return journal_->Sync();
}

Status Pager::ReplayJournal() {
  char header[kJournalHeaderSize];
  ZDB_RETURN_IF_ERROR(journal_->Read(0, kJournalHeaderSize, header));
  if (DecodeFixed32(header + kJournalMagicOff) != kJournalMagic) {
    return Status::Corruption("bad journal magic");
  }
  const uint32_t old_pages = DecodeFixed32(header + kJournalPageCountOff);
  const uint32_t entries = DecodeFixed32(header + kJournalEntriesOff);

  std::vector<char> buf(page_size_);
  for (uint32_t i = 0; i < entries; ++i) {
    const uint64_t off =
        kJournalHeaderSize + static_cast<uint64_t>(i) * (4 + page_size_);
    char idbuf[4];
    ZDB_RETURN_IF_ERROR(journal_->Read(off, 4, idbuf));
    const PageId id = DecodeFixed32(idbuf);
    ZDB_RETURN_IF_ERROR(journal_->Read(off + 4, page_size_, buf.data()));
    ZDB_RETURN_IF_ERROR(
        file_->Write(static_cast<uint64_t>(id) * page_size_, buf.data(),
                     page_size_));
  }
  // Drop pages allocated inside the aborted batch.
  ZDB_RETURN_IF_ERROR(
      file_->Truncate(static_cast<uint64_t>(old_pages) * page_size_));
  return file_->Sync();
}

Status Pager::AbortBatch() {
  MutexLock lock(mu_);
  if (!in_batch_) return Status::InvalidArgument("no active batch");
  // Reads wait out the restore: none may see a half-replayed file or
  // pass its bounds check against the page count being rolled back.
  WriterLock exclusive(file_mu_);
  // Until every step below succeeds the batch stays active and the
  // journal stays intact, so a failed abort still recovers on reopen.
  ZDB_RETURN_IF_ERROR(ReplayJournal());
  // Restore the allocation state snapshotted at BeginBatch and persist
  // it: the replayed page-0 image may predate header changes that were
  // never synced, so the snapshot is authoritative.
  page_count_.store(batch_page_count_, std::memory_order_release);
  freelist_head_ = batch_freelist_head_;
  live_pages_ = batch_live_pages_;
  ZDB_RETURN_IF_ERROR(StoreHeader());
  ZDB_RETURN_IF_ERROR(file_->Sync());
  // The database is back to its pre-batch state; retiring the journal
  // completes the abort.
  ZDB_RETURN_IF_ERROR(journal_->Truncate(0));
  ZDB_RETURN_IF_ERROR(journal_->Sync());
  in_batch_ = false;
  journaled_.clear();
  journal_entries_ = 0;
  return Status::OK();
}

Status Pager::BeginBatch() {
  MutexLock lock(mu_);
  if (journal_ == nullptr) {
    return Status::InvalidArgument("pager opened without a journal");
  }
  if (in_batch_) return Status::InvalidArgument("batch already active");
  ZDB_RETURN_IF_ERROR(journal_->Truncate(0));
  char header[kJournalHeaderSize] = {0};
  EncodeFixed32(header + kJournalMagicOff, kJournalMagic);
  EncodeFixed32(header + kJournalPageCountOff, page_count());
  EncodeFixed32(header + kJournalEntriesOff, 0);
  ZDB_RETURN_IF_ERROR(journal_->Write(0, header, kJournalHeaderSize));
  ZDB_RETURN_IF_ERROR(journal_->Sync());
  in_batch_ = true;
  batch_page_count_ = page_count();
  batch_freelist_head_ = freelist_head_;
  batch_live_pages_ = live_pages_;
  journal_entries_ = 0;
  journaled_.clear();
  // Page 0 (the header) changes through StoreHeader, not WritePage:
  // journal it up front so a rollback restores the allocation state.
  return JournalBeforeImage(0);
}

Status Pager::JournalBeforeImage(PageId id) {
  if (id >= batch_page_count_) return Status::OK();  // born in this batch
  if (!journaled_.insert(id).second) return Status::OK();
  std::vector<char> buf(page_size_);
  ZDB_RETURN_IF_ERROR(
      file_->Read(static_cast<uint64_t>(id) * page_size_, page_size_,
                  buf.data()));
  const uint64_t off = kJournalHeaderSize +
                       static_cast<uint64_t>(journal_entries_) *
                           (4 + page_size_);
  char idbuf[4];
  EncodeFixed32(idbuf, id);
  ZDB_RETURN_IF_ERROR(journal_->Write(off, idbuf, 4));
  ZDB_RETURN_IF_ERROR(journal_->Write(off + 4, buf.data(), page_size_));
  // The count is bumped only after the entry is fully on disk.
  ++journal_entries_;
  char cnt[4];
  EncodeFixed32(cnt, journal_entries_);
  ZDB_RETURN_IF_ERROR(journal_->Write(kJournalEntriesOff, cnt, 4));
  return Status::OK();
}

Status Pager::CommitBatch() {
  MutexLock lock(mu_);
  if (!in_batch_) return Status::InvalidArgument("no active batch");
  ZDB_RETURN_IF_ERROR(StoreHeader());
  ZDB_RETURN_IF_ERROR(file_->Sync());
  // The database is durable; retiring the journal commits the batch.
  ZDB_RETURN_IF_ERROR(journal_->Truncate(0));
  ZDB_RETURN_IF_ERROR(journal_->Sync());
  in_batch_ = false;
  journaled_.clear();
  journal_entries_ = 0;
  commit_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::unique_ptr<Pager> Pager::OpenInMemory(uint32_t page_size) {
  auto r = Open(std::make_unique<MemFile>(), page_size);
  // A fresh MemFile cannot fail to format unless the page size is invalid,
  // which is a programming error here.
  return std::move(r).value();
}

Status Pager::LoadHeader() {
  std::vector<char> buf(page_size_);
  // Header reads/writes are bookkeeping, not data accesses: don't count.
  ZDB_RETURN_IF_ERROR(file_->Read(0, page_size_, buf.data()));
  if (DecodeFixed32(buf.data() + kHeaderMagicOff) != kMagic) {
    return Status::Corruption("bad pager magic");
  }
  const uint32_t stored = DecodeFixed32(buf.data() + kHeaderPageSizeOff);
  if (stored != page_size_) {
    return Status::InvalidArgument("page size mismatch: file has " +
                                   std::to_string(stored));
  }
  page_count_.store(DecodeFixed32(buf.data() + kHeaderPageCountOff),
                    std::memory_order_release);
  freelist_head_ = DecodeFixed32(buf.data() + kHeaderFreelistOff);
  live_pages_ = DecodeFixed32(buf.data() + kHeaderLivePagesOff);
  return Status::OK();
}

Status Pager::StoreHeader() {
  std::vector<char> buf(page_size_, 0);
  EncodeFixed32(buf.data() + kHeaderMagicOff, kMagic);
  EncodeFixed32(buf.data() + kHeaderPageSizeOff, page_size_);
  EncodeFixed32(buf.data() + kHeaderPageCountOff, page_count());
  EncodeFixed32(buf.data() + kHeaderFreelistOff, freelist_head_);
  EncodeFixed32(buf.data() + kHeaderLivePagesOff, live_pages_);
  return file_->Write(0, buf.data(), page_size_);
}

Result<PageId> Pager::Allocate() {
  MutexLock lock(mu_);
  if (freelist_head_ != kInvalidPageId) {
    const PageId id = freelist_head_;
    std::vector<char> buf(page_size_);
    // Free-list maintenance is charged as a read: the link lives on disk.
    ZDB_RETURN_IF_ERROR(ReadPageInternal(id, buf.data()));
    freelist_head_ = DecodeFixed32(buf.data());
    ++live_pages_;
    return id;
  }
  const PageId id = page_count();
  if (id == UINT32_MAX) return Status::NoSpace("page ids exhausted");
  page_count_.store(id + 1, std::memory_order_release);
  ++live_pages_;
  return id;
}

Status Pager::Free(PageId id) {
  MutexLock lock(mu_);
  if (id == kInvalidPageId || id >= page_count()) {
    return Status::InvalidArgument("free of invalid page " +
                                   std::to_string(id));
  }
  std::vector<char> buf(page_size_, 0);
  EncodeFixed32(buf.data(), freelist_head_);
  ZDB_RETURN_IF_ERROR(WritePageInternal(id, buf.data()));
  freelist_head_ = id;
  --live_pages_;
  return Status::OK();
}

Status Pager::ReadPage(PageId id, char* buf) {
  const uint32_t latency = sim_read_latency_us_.load(std::memory_order_relaxed);
  if (latency != 0) {
    // Before the lock: concurrent misses overlap their device stalls.
    std::this_thread::sleep_for(std::chrono::microseconds(latency));
  }
  ReaderLock shared(file_mu_);
  return ReadPageInternal(id, buf);
}

Status Pager::ReadPageInternal(PageId id, char* buf) {
  if (id == kInvalidPageId || id >= page_count()) {
    return Status::InvalidArgument("read of invalid page " +
                                   std::to_string(id));
  }
  ++io_.page_reads;
  return file_->Read(static_cast<uint64_t>(id) * page_size_, page_size_, buf);
}

Status Pager::WritePage(PageId id, const char* buf) {
  MutexLock lock(mu_);
  return WritePageInternal(id, buf);
}

Status Pager::WritePageInternal(PageId id, const char* buf) {
  if (id == kInvalidPageId || id >= page_count()) {
    return Status::InvalidArgument("write of invalid page " +
                                   std::to_string(id));
  }
  if (in_batch_) {
    ZDB_RETURN_IF_ERROR(JournalBeforeImage(id));
  }
  ++io_.page_writes;
  return file_->Write(static_cast<uint64_t>(id) * page_size_, buf,
                      page_size_);
}

Status Pager::Sync() {
  MutexLock lock(mu_);
  ZDB_RETURN_IF_ERROR(StoreHeader());
  return file_->Sync();
}

}  // namespace zdb
