// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Scatter-gather queries over a set of shard engines, run by the
// ShardRouter (serial queries through zdb::DB). QueryExecutor's
// ParallelWindowQuery gathers windows with the same semantics:
//
//   * window/containment scatter only to the shards whose prefix region
//     intersects the query rect, gather the per-shard sorted id lists
//     and dedup by oid (a straddling object answers from every owning
//     shard with the same global oid);
//   * point queries route to exactly one shard (a grid cell has one
//     owner and any object containing the point is replicated there);
//   * kNN runs a best-first frontier over the shards ordered by mindist
//     to their prefix regions — shards provably farther than the k-th
//     candidate are never opened.
//
// Each per-shard query is individually consistent (epoch-pinned
// inside that engine); the gathered answer spans one
// consistent state per shard, not one global state. See DESIGN.md
// "Sharded partitions" for the cross-shard consistency contract.

#ifndef ZDB_SHARD_SCATTER_H_
#define ZDB_SHARD_SCATTER_H_

#include <utility>
#include <vector>

#include "core/spatial_index.h"
#include "shard/routing.h"

namespace zdb {
namespace shard {

Result<std::vector<ObjectId>> ScatterWindow(
    const std::vector<SpatialIndex*>& indexes, const ShardRouting& routing,
    const Rect& window, QueryStats* stats = nullptr);

Result<std::vector<ObjectId>> ScatterPoint(
    const std::vector<SpatialIndex*>& indexes, const ShardRouting& routing,
    const Point& p, QueryStats* stats = nullptr);

Result<std::vector<ObjectId>> ScatterContainment(
    const std::vector<SpatialIndex*>& indexes, const ShardRouting& routing,
    const Rect& window, QueryStats* stats = nullptr);

Result<std::vector<std::pair<ObjectId, double>>> ScatterNearest(
    const std::vector<SpatialIndex*>& indexes, const ShardRouting& routing,
    const Point& p, size_t k, QueryStats* stats = nullptr);

/// Merges per-shard sorted-by-oid result lists into one sorted,
/// oid-deduplicated list (the gather half of window/containment).
std::vector<ObjectId> MergeIdLists(std::vector<std::vector<ObjectId>> lists);

}  // namespace shard
}  // namespace zdb

#endif  // ZDB_SHARD_SCATTER_H_
