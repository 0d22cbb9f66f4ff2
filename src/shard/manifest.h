// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The on-disk shard layout of a file DB. When a DB is created with
// DBOptions::shards > 1 on a file path, the main path holds only this
// 16-byte manifest —
//
//   bytes 0..3   magic "zshm"
//   bytes 4..7   format version (little-endian u32, currently 1)
//   bytes 8..11  shard count (little-endian u32, 2..kMaxShards)
//   bytes 12..15 reserved, zero
//
// — and shard i's standalone engine file lives at `path + ".shard<i>"`
// (with its rollback journal at the usual `<shard path>-journal`).
// ShardPaths sniffs the magic before the file reaches a pager, so a
// sharded DB reopens as sharded regardless of the options passed (the
// stored layout wins, exactly like stored index options). A one-shard
// DB is one classic engine file with no manifest: its first page is
// pager-owned and never begins with the manifest magic.

#ifndef ZDB_SHARD_MANIFEST_H_
#define ZDB_SHARD_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace zdb {
namespace shard {

/// The engine file paths, in shard order, of the file DB at `path`. A
/// manifest gives its stored count and any other non-empty file is one
/// classic engine file; only a fresh (empty) file takes `requested`,
/// and gets a manifest if `requested` > 1.
Result<std::vector<std::string>> ShardPaths(const std::string& path,
                                            uint32_t requested);

/// Engine file path of one shard of a sharded DB at `path`.
std::string ShardFilePath(const std::string& path, uint32_t shard);

}  // namespace shard
}  // namespace zdb

#endif  // ZDB_SHARD_MANIFEST_H_
