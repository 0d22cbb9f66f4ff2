// Copyright (c) zdb authors. Licensed under the MIT license.
//
// ShardEngine: one complete, self-contained engine stack — file,
// rollback journal, Pager, BufferPool, SpatialIndex, group-commit
// pipeline, epoch manager. zdb::DB always runs on ShardEngines: a
// single-shard DB owns exactly one (today's one-file layout, unchanged),
// a sharded DB owns N of them, each with its own file pair, fsync
// pipeline and epoch domain. Every shard file is a standalone database
// file: the catalog-page format is byte-identical to a single-shard
// DB's, so a shard can be opened and inspected as an ordinary DB.

#ifndef ZDB_SHARD_ENGINE_H_
#define ZDB_SHARD_ENGINE_H_

#include <memory>
#include <string>

#include "core/spatial_index.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "zdb/options.h"

namespace zdb {
namespace shard {

class ShardEngine {
 public:
  /// Opens (or creates) one engine stack. An empty path or ":memory:"
  /// is an in-memory engine (journaled only with memory_journal);
  /// anything else is a file whose rollback journal lives at
  /// `path + "-journal"` — crash recovery for this shard runs here,
  /// independent of every other shard. Every DBOptions field but
  /// `shards` configures the engine; the DB opens one per shard.
  static Result<std::unique_ptr<ShardEngine>> Open(
      const std::string& path, const DBOptions& options);

  /// Opens (or creates, if `file` is empty) one engine stack over the
  /// given files; a null `journal` gives an unjournaled engine and
  /// `options.memory_journal` is not consulted. For callers that bring
  /// their own File, such as a failure-injecting one in tests.
  static Result<std::unique_ptr<ShardEngine>> Open(
      std::unique_ptr<File> file, std::unique_ptr<File> journal,
      const DBOptions& options);

  /// Stops the group-commit pipeline before the storage stack goes.
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  SpatialIndex* index() const { return index_.get(); }
  Pager* pager() const { return pager_.get(); }
  BufferPool* pool() const { return pool_.get(); }
  bool journaled() const { return journaled_; }

  /// Makes everything written to this engine durable: waits out the
  /// journaled commit path, or checkpoints + flushes + syncs an
  /// unjournaled engine.
  Status Checkpoint();

 private:
  ShardEngine() = default;

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<SpatialIndex> index_;
  bool journaled_ = false;
};

}  // namespace shard
}  // namespace zdb

#endif  // ZDB_SHARD_ENGINE_H_
