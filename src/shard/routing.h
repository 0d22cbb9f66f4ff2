// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Z-prefix shard routing: the pure-math half of the sharding subsystem.
// The z-order keyspace is split on its top `prefix_bits` Morton bits
// into 2^prefix_bits contiguous z-intervals ("prefix regions" — each a
// rectangle of grid cells, exactly like a level-prefix_bits ZElement),
// and prefixes are dealt round-robin onto N shards. Because the paper's
// redundant decomposition already splits an object's z-elements on
// prefix boundaries, a boundary-straddling object simply belongs to
// every shard whose prefix region its MBR's grid rectangle intersects;
// the router replicates the whole object into each of those engines
// under its global oid and queries dedup by oid at gather time.
//
// Everything here is immutable after construction and safe to share
// across threads without locks.

#ifndef ZDB_SHARD_ROUTING_H_
#define ZDB_SHARD_ROUTING_H_

#include <cstdint>
#include <vector>

#include "geom/grid.h"
#include "geom/point.h"
#include "geom/rect.h"

namespace zdb {
namespace shard {

/// Shard masks are uint64_t bitmaps, which caps the fan-out.
inline constexpr uint32_t kMaxShards = 64;

class ShardRouting {
 public:
  /// `shards` in [1, kMaxShards]. The world/grid pair must match the
  /// engines' SpatialIndexOptions — routing and decomposition have to
  /// agree on the grid for "straddles a prefix boundary" to mean the
  /// same thing on both sides.
  ShardRouting(uint32_t shards, const Rect& world, uint32_t grid_bits);

  uint32_t shards() const { return shards_; }
  uint32_t prefix_bits() const { return prefix_bits_; }
  uint32_t prefixes() const { return 1u << prefix_bits_; }
  const SpaceMapper& mapper() const { return mapper_; }

  uint32_t ShardForPrefix(uint32_t prefix) const { return prefix % shards_; }

  /// The shard owning one full-resolution grid cell (point queries hit
  /// exactly this shard).
  uint32_t ShardForCell(GridCoord gx, GridCoord gy) const;

  /// Bitmap of shards whose prefix region intersects `g`. Never zero:
  /// the prefix regions partition the grid.
  uint64_t MaskForGridRect(const GridRect& g) const;

  /// As above for a world-space rect (clamped onto the grid like every
  /// other geometry in the engine).
  uint64_t MaskForRect(const Rect& r) const {
    return MaskForGridRect(mapper_.ToGrid(r));
  }

  uint64_t AllShardsMask() const {
    return shards_ == 64 ? ~0ULL : (1ULL << shards_) - 1;
  }

  /// Minimum world-space distance from `p` to any region of `shard` —
  /// a lower bound on the distance to any object routed to the shard,
  /// provided `p` lies inside the world rect (an object overhanging the
  /// world border is clamped to border cells, so for an outside query
  /// point the bound does not hold; see ScatterNearest).
  double MinDistance(uint32_t shard, const Point& p) const;

 private:
  uint32_t shards_;
  uint32_t prefix_bits_;
  SpaceMapper mapper_;
  std::vector<GridRect> prefix_regions_;      ///< per prefix
  std::vector<std::vector<Rect>> shard_world_;  ///< per shard
};

}  // namespace shard
}  // namespace zdb

#endif  // ZDB_SHARD_ROUTING_H_
