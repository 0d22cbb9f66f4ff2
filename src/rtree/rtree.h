// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Disk-based R-tree (Guttman, SIGMOD 1984): the baseline spatial access
// method of the reproduction's comparison experiments. Minimal bounding
// rectangles live in the leaves, so the filter step is exact for
// rectangle data — the economics the 1989 comparisons granted the R-tree.
// Supports quadratic and linear node splits, deletion with tree
// condensation and reinsertion, and window/point queries.

#ifndef ZDB_RTREE_RTREE_H_
#define ZDB_RTREE_RTREE_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "storage/buffer_pool.h"
#include "zorder/zkey.h"

namespace zdb {

/// One slot of an R-tree node: a rectangle plus a child page (internal)
/// or an object id (leaf).
struct REntry {
  Rect rect;
  uint32_t ref = 0;

  static constexpr size_t kEncodedSize = 40;
};

struct RTreeOptions {
  enum class Split { kQuadratic, kLinear, kRStar };

  Split split = Split::kQuadratic;

  /// Minimum node occupancy as a fraction of capacity. Guttman used 0.5;
  /// Greene (1989) found ~0.3 best for search; 0.4 is the middle ground.
  double min_fill = 0.4;
};

/// Statistics of one R-tree query.
struct RQueryStats {
  uint64_t nodes_visited = 0;
  uint64_t leaf_entries_tested = 0;
  uint64_t results = 0;
};

class RTree {
 public:
  static Result<std::unique_ptr<RTree>> Create(BufferPool* pool,
                                               const RTreeOptions& options);

  /// Re-attaches to an existing tree in the same paged file (e.g. after
  /// swapping buffer pools). `root`, `height` and `count` must be the
  /// values of the tree previously built there.
  static Result<std::unique_ptr<RTree>> Attach(BufferPool* pool,
                                               const RTreeOptions& options,
                                               PageId root, uint32_t height,
                                               uint64_t count);

  PageId root() const { return root_; }

  /// Inserts (mbr, oid). Object ids are caller-assigned.
  Status Insert(const Rect& mbr, ObjectId oid);

  /// Removes the entry with exactly this (mbr, oid); NotFound otherwise.
  Status Delete(const Rect& mbr, ObjectId oid);

  /// Object ids whose MBR intersects the window.
  Result<std::vector<ObjectId>> WindowQuery(const Rect& window,
                                            RQueryStats* stats = nullptr);

  /// Object ids whose MBR contains the point.
  Result<std::vector<ObjectId>> PointQuery(const Point& p,
                                           RQueryStats* stats = nullptr);

  /// Object ids whose MBR lies fully inside the window.
  Result<std::vector<ObjectId>> ContainmentQuery(const Rect& window,
                                                 RQueryStats* stats = nullptr);

  /// Object ids whose MBR encloses the window.
  Result<std::vector<ObjectId>> EnclosureQuery(const Rect& window,
                                               RQueryStats* stats = nullptr);

  /// The k nearest entries to `p` by MBR distance, closest first —
  /// best-first traversal over a MINDIST priority queue (Hjaltason &
  /// Samet), the classic R-tree NN baseline.
  Result<std::vector<std::pair<ObjectId, double>>> NearestNeighbors(
      const Point& p, size_t k, RQueryStats* stats = nullptr);

  uint64_t size() const { return count_; }
  uint32_t height() const { return height_; }

  /// Structural audit: MBR containment, occupancy, uniform leaf depth.
  Status CheckInvariants() const;

  uint32_t capacity() const { return capacity_; }
  uint32_t min_entries() const { return min_entries_; }

 private:
  RTree(BufferPool* pool, const RTreeOptions& options);

  struct SplitOut {
    bool split = false;
    Rect rect;          ///< MBR of the new right node
    PageId right = kInvalidPageId;
  };

  /// Inserts `entry` at `target_level` below the root (0 = leaf level),
  /// used both by Insert and by CondenseTree reinsertion.
  Status InsertAtLevel(const REntry& entry, uint32_t target_level);

  Status InsertRec(PageId page, uint32_t level, const REntry& entry,
                   uint32_t target_level, SplitOut* out, Rect* new_mbr);

  Status DeleteRec(PageId page, uint32_t level, const Rect& mbr,
                   ObjectId oid, bool* found, bool* removed_page,
                   Rect* new_mbr,
                   std::vector<std::pair<REntry, uint32_t>>* orphans);

  template <typename NodePred, typename LeafPred>
  Status QueryRec(PageId page, const NodePred& node_pred,
                  const LeafPred& leaf_pred, std::vector<ObjectId>* out,
                  RQueryStats* stats) const;

  Status CheckRec(PageId page, uint32_t level, const Rect* bound,
                  uint32_t* leaf_depth, uint64_t* entries) const;

  /// Runs the configured split algorithm on an overflowed entry set.
  void DispatchSplit(const std::vector<REntry>& entries,
                     std::vector<REntry>* ga, std::vector<REntry>* gb) const;

  BufferPool* pool_;
  RTreeOptions options_;
  uint32_t capacity_;
  uint32_t min_entries_;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 1;  ///< levels; 1 == root is a leaf
  uint64_t count_ = 0;
};

}  // namespace zdb

#endif  // ZDB_RTREE_RTREE_H_
