// Copyright (c) zdb authors. Licensed under the MIT license.

#include "shard/engine.h"

#include <cstring>
#include <utility>

#include "storage/file.h"

namespace zdb {
namespace shard {

namespace {

/// First page allocated after formatting: the engine's one-page catalog,
/// holding the spatial index's master page id at offset 0. Reserving it
/// up front pins it at a well-known id so Open never needs a directory.
constexpr PageId kCatalogPage = 1;

bool IsMemoryPath(const std::string& path) {
  return path.empty() || path == ":memory:";
}

}  // namespace

ShardEngine::~ShardEngine() {
  // The index owns the group-commit thread; destroy it (draining
  // durability) before the pool/pager it writes through.
  index_.reset();
  pool_.reset();
  pager_.reset();
}

Result<std::unique_ptr<ShardEngine>> ShardEngine::Open(
    const std::string& path, const ShardEngineOptions& options) {
  std::unique_ptr<File> file, journal;
  if (IsMemoryPath(path)) {
    file = std::make_unique<MemFile>();
    if (options.memory_journal) journal = std::make_unique<MemFile>();
  } else {
    ZDB_ASSIGN_OR_RETURN(file, PosixFile::Open(path));
    ZDB_ASSIGN_OR_RETURN(journal, PosixFile::Open(path + "-journal"));
  }
  return Open(std::move(file), std::move(journal), options);
}

Result<std::unique_ptr<ShardEngine>> ShardEngine::Open(
    std::unique_ptr<File> file, std::unique_ptr<File> journal,
    const ShardEngineOptions& options) {
  if (options.cache_pages == 0) {
    return Status::InvalidArgument("cache_pages must be >= 1");
  }
  std::unique_ptr<ShardEngine> eng(new ShardEngine());
  const bool fresh = file->Size() == 0;
  eng->journaled_ = journal != nullptr;

  // Pager::Open with a journal runs crash recovery: a batch interrupted
  // before its commit — including a group of published-but-not-durable
  // write batches — is rolled back here, as a unit.
  if (journal != nullptr) {
    ZDB_ASSIGN_OR_RETURN(
        eng->pager_,
        Pager::Open(std::move(file), std::move(journal), options.page_size));
  } else {
    ZDB_ASSIGN_OR_RETURN(eng->pager_,
                         Pager::Open(std::move(file), options.page_size));
  }
  Pager* pager = eng->pager_.get();
  eng->pool_ = std::make_unique<BufferPool>(pager, options.cache_pages);
  BufferPool* pool = eng->pool_.get();

  if (fresh) {
    // Create: reserve the catalog page, build an empty index, and make
    // the formatted state durable as one atomic batch (journaled
    // engines).
    const bool batch = eng->journaled_;
    if (batch) ZDB_RETURN_IF_ERROR(pager->BeginBatch());
    {
      PageRef catalog;
      ZDB_ASSIGN_OR_RETURN(catalog, pool->New());
      if (catalog.id() != kCatalogPage) {
        return Status::Corruption("catalog page landed at page " +
                                  std::to_string(catalog.id()));
      }
      std::memset(catalog.mutable_data(), 0, sizeof(PageId));
    }
    ZDB_ASSIGN_OR_RETURN(eng->index_,
                         SpatialIndex::Create(pool, options.index));
    PageId master;
    ZDB_ASSIGN_OR_RETURN(master, eng->index_->Checkpoint());
    {
      PageRef catalog;
      ZDB_ASSIGN_OR_RETURN(catalog, pool->Fetch(kCatalogPage));
      std::memcpy(catalog.mutable_data(), &master, sizeof(master));
    }
    ZDB_RETURN_IF_ERROR(pool->FlushAll());
    ZDB_RETURN_IF_ERROR(batch ? pager->CommitBatch() : pager->Sync());
  } else {
    PageId master = kInvalidPageId;
    {
      PageRef catalog;
      ZDB_ASSIGN_OR_RETURN(catalog, pool->Fetch(kCatalogPage));
      std::memcpy(&master, catalog.data(), sizeof(master));
    }
    ZDB_ASSIGN_OR_RETURN(eng->index_, SpatialIndex::Open(pool, master));
  }

  if (eng->journaled_) {
    ZDB_RETURN_IF_ERROR(eng->index_->StartGroupCommit(options.group_commit));
  }
  return eng;
}

Status ShardEngine::Checkpoint() {
  if (journaled_) {
    // Everything written is already published; durability is the
    // commit path's job — just wait it out.
    return index_->WaitDurable(index_->write_epoch());
  }
  ZDB_RETURN_IF_ERROR(index_->Checkpoint().status());
  ZDB_RETURN_IF_ERROR(pool_->FlushAll());
  return pager_->Sync();
}

}  // namespace shard
}  // namespace zdb
