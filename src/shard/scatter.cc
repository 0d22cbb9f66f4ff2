// Copyright (c) zdb authors. Licensed under the MIT license.

#include "shard/scatter.h"

#include <algorithm>
#include <numeric>

namespace zdb {
namespace shard {

namespace {

/// Iterates the set bits of a shard mask.
template <typename Fn>
Status ForEachShard(uint64_t mask, Fn fn) {
  while (mask != 0) {
    const uint32_t s = static_cast<uint32_t>(__builtin_ctzll(mask));
    mask &= mask - 1;
    ZDB_RETURN_IF_ERROR(fn(s));
  }
  return Status::OK();
}

}  // namespace

std::vector<ObjectId> MergeIdLists(std::vector<std::vector<ObjectId>> lists) {
  if (lists.size() == 1) return std::move(lists[0]);
  size_t total = 0;
  for (const auto& l : lists) total += l.size();
  std::vector<ObjectId> merged;
  merged.reserve(total);
  for (auto& l : lists) {
    merged.insert(merged.end(), l.begin(), l.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

namespace {

/// The window-shaped scatter: runs `query(index, stats)` on every shard
/// whose prefix region `window` overlaps and gathers the id lists.
template <typename Query>
Result<std::vector<ObjectId>> ScatterRect(
    const std::vector<SpatialIndex*>& indexes, const ShardRouting& routing,
    const Rect& window, QueryStats* stats, Query query) {
  std::vector<std::vector<ObjectId>> lists;
  ZDB_RETURN_IF_ERROR(
      ForEachShard(routing.MaskForRect(window), [&](uint32_t s) -> Status {
        QueryStats local;
        std::vector<ObjectId> ids;
        ZDB_ASSIGN_OR_RETURN(ids, query(indexes[s], &local));
        if (stats != nullptr) stats->Add(local);
        lists.push_back(std::move(ids));
        return Status::OK();
      }));
  auto merged = MergeIdLists(std::move(lists));
  // Per-shard `results` counted replicated hits; report the deduped
  // answer the caller actually gets.
  if (stats != nullptr && routing.shards() > 1) {
    stats->results = merged.size();
  }
  return merged;
}

}  // namespace

Result<std::vector<ObjectId>> ScatterWindow(
    const std::vector<SpatialIndex*>& indexes, const ShardRouting& routing,
    const Rect& window, QueryStats* stats) {
  return ScatterRect(indexes, routing, window, stats,
                     [&](SpatialIndex* ix, QueryStats* qs) {
                       return ix->WindowQuery(window, qs);
                     });
}

Result<std::vector<ObjectId>> ScatterPoint(
    const std::vector<SpatialIndex*>& indexes, const ShardRouting& routing,
    const Point& p, QueryStats* stats) {
  // A NaN coordinate has no grid cell, hence no shard.
  if (!IsFinite(p)) return Status::InvalidArgument("non-finite query point");
  const SpaceMapper& m = routing.mapper();
  const uint32_t s = routing.ShardForCell(m.ToGridX(p.x), m.ToGridY(p.y));
  return indexes[s]->PointQuery(p, stats);
}

Result<std::vector<ObjectId>> ScatterContainment(
    const std::vector<SpatialIndex*>& indexes, const ShardRouting& routing,
    const Rect& window, QueryStats* stats) {
  return ScatterRect(indexes, routing, window, stats,
                     [&](SpatialIndex* ix, QueryStats* qs) {
                       return ix->ContainmentQuery(window, qs);
                     });
}

Result<std::vector<std::pair<ObjectId, double>>> ScatterNearest(
    const std::vector<SpatialIndex*>& indexes, const ShardRouting& routing,
    const Point& p, size_t k, QueryStats* stats) {
  // Checked before the shard order is sorted by NaN distances.
  if (!IsFinite(p)) return Status::InvalidArgument("non-finite query point");
  std::vector<std::pair<ObjectId, double>> best;
  if (k == 0 || indexes.empty()) return best;
  if (indexes.size() == 1) return indexes[0]->NearestNeighbors(p, k, stats);

  // Frontier order: shards by mindist from p to their prefix regions.
  // The bound "every object in shard s is at least MinDistance(s, p)
  // away" holds for query points inside the world rect (geometry is
  // clamped onto the grid, and for an inside point the nearest point of
  // any object's MBR lies inside its clamped grid rect). For an outside
  // point an object overhanging the world border can undercut the
  // bound, so pruning is disabled and every shard is visited.
  const bool prune = routing.mapper().world().Contains(p);
  std::vector<uint32_t> order(routing.shards());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<double> mindist(routing.shards());
  for (uint32_t s = 0; s < routing.shards(); ++s) {
    mindist[s] = routing.MinDistance(s, p);
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (mindist[a] != mindist[b]) return mindist[a] < mindist[b];
    return a < b;
  });

  for (const uint32_t s : order) {
    // Strict inequality: a shard whose mindist ties the k-th distance
    // may still hold an equally distant object with a smaller oid (the
    // tie-break is (distance, oid) ascending).
    if (prune && best.size() >= k && best[k - 1].second < mindist[s]) break;
    QueryStats local;
    std::vector<std::pair<ObjectId, double>> part;
    ZDB_ASSIGN_OR_RETURN(part, indexes[s]->NearestNeighbors(p, k, &local));
    if (stats != nullptr) stats->Add(local);
    best.insert(best.end(), part.begin(), part.end());
    std::sort(best.begin(), best.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
    // Dedup replicated objects (identical exact distance on every
    // owning shard, so duplicates are adjacent after the sort).
    best.erase(std::unique(best.begin(), best.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               best.end());
    if (best.size() > k) best.resize(k);
  }
  if (stats != nullptr && routing.shards() > 1) {
    stats->results = best.size();
  }
  return best;
}

}  // namespace shard
}  // namespace zdb
