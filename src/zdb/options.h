// Copyright (c) zdb authors. Licensed under the MIT license.
//
// DBOptions: the configuration of zdb::DB::Open, and of every shard
// engine it opens (shard::ShardEngine::Open takes the same struct, so
// the engine stack is configured by exactly the fields a DB exposes).

#ifndef ZDB_ZDB_OPTIONS_H_
#define ZDB_ZDB_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/options.h"
#include "shard/routing.h"
#include "storage/page.h"

namespace zdb {

/// Configuration of DB::Open. The defaults give a 4 KiB-page, 256-frame
/// cache with the paper's size-bound-4 decomposition.
struct DBOptions {
  /// Index configuration (decomposition policies, grid, ablations).
  /// Used when creating; a reopened DB restores its stored options.
  SpatialIndexOptions index;

  /// Page size of a newly created database file.
  uint32_t page_size = kDefaultPageSize;

  /// Buffer-pool capacity in frames (per shard engine).
  size_t cache_pages = 256;

  /// Give an in-memory DB a (memory-backed) rollback journal, enabling
  /// crash-atomic batches and the group-commit pipeline without a disk
  /// file. File-backed DBs always have a journal.
  bool memory_journal = false;

  /// How a journaled DB commits (see spatial_index.h "group commit").
  /// true: a pipeline thread coalesces published batches into one
  /// journal commit, and readers never wait out the fsync. false: every
  /// batch is a group of one that the writer commits, after its publish,
  /// before its call returns — the same commit, without the thread.
  bool group_commit = true;

  /// Queries always read epoch-pinned snapshots (see the "snapshot
  /// reads" section of spatial_index.h); this is not a setting. The
  /// constant remains only because the service benchmark prints it: a
  /// benchmark change that drops that print deletes it.
  static constexpr bool snapshot_reads = true;

  /// Number of z-prefix shard engines, 1..64. Used when creating; a
  /// reopened DB keeps its stored shard layout. 1 (the default) is the
  /// classic single-engine DB.
  uint32_t shards = 1;

  /// Typed rejection of every statically invalid knob combination
  /// (cache_pages == 0, shards outside [1, 64], ...). DB::Open and
  /// ShardEngine::Open call this first, so invalid options yield this
  /// exact Status instead of a partially opened stack; callers building
  /// configuration surfaces (servers, tools) can validate without
  /// opening anything.
  [[nodiscard]] Status Validate() const {
    if (cache_pages == 0) {
      return Status::InvalidArgument("cache_pages must be >= 1");
    }
    if (shards < 1 || shards > shard::kMaxShards) {
      return Status::InvalidArgument(
          "shards must be in [1, " + std::to_string(shard::kMaxShards) + "]");
    }
    return Status::OK();
  }
};

}  // namespace zdb

#endif  // ZDB_ZDB_OPTIONS_H_
