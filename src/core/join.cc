// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Spatial join by synchronized z-order merge (Orenstein). Both indexes'
// entry streams are consumed in canonical key order while two enclosure
// stacks hold, per stream, the chain of elements whose z-interval
// contains the current merge position. When an entry arrives, it pairs
// with every stacked entry of the other stream — exactly the element
// pairs where one contains the other, i.e. the intersecting pairs of the
// two approximations. Candidate pairs are de-duplicated and refined
// against the exact MBRs.

#include <algorithm>
#include <unordered_set>

#include "btree/cursor.h"
#include "core/spatial_index.h"
#include "zorder/zkey.h"

namespace zdb {

namespace {

struct StackEntry {
  ZElement elem;
  ObjectId oid;
};

void PopNonEnclosing(std::vector<StackEntry>* stack, const ZElement& e) {
  while (!stack->empty() && !stack->back().elem.Contains(e)) {
    stack->pop_back();
  }
}

/// The merge itself; the caller holds both indexes' commit_mu_.
Result<std::vector<std::pair<ObjectId, ObjectId>>> MergeJoin(
    SpatialIndex* a, SpatialIndex* b, JoinStats* stats) {
  if (a->options().grid_bits != b->options().grid_bits ||
      !(a->options().world == b->options().world)) {
    return Status::InvalidArgument(
        "joined indexes must share grid resolution and world bounds");
  }
  const uint32_t gbits = a->options().grid_bits;

  Cursor ca(a->pool(), a->pool()->pager()->page_size());
  Cursor cb(b->pool(), b->pool()->pager()->page_size());
  ZDB_ASSIGN_OR_RETURN(ca, a->btree()->SeekFirst());
  ZDB_ASSIGN_OR_RETURN(cb, b->btree()->SeekFirst());

  std::vector<StackEntry> stack_a, stack_b;
  std::unordered_set<uint64_t> seen_pairs;
  std::vector<std::pair<ObjectId, ObjectId>> pairs;

  while (ca.Valid() || cb.Valid()) {
    // Take the stream whose head has the smaller canonical key.
    const bool from_a =
        ca.Valid() && (!cb.Valid() || ca.key().compare(cb.key()) <= 0);
    Cursor& cur = from_a ? ca : cb;

    ZElement elem;
    ObjectId oid;
    if (!DecodeZKey(cur.key(), gbits, &elem, &oid)) {
      return Status::Corruption("malformed index key in join");
    }
    if (stats != nullptr) ++stats->entries_scanned;

    PopNonEnclosing(&stack_a, elem);
    PopNonEnclosing(&stack_b, elem);

    const std::vector<StackEntry>& other = from_a ? stack_b : stack_a;
    for (const StackEntry& se : other) {
      const ObjectId a_oid = from_a ? oid : se.oid;
      const ObjectId b_oid = from_a ? se.oid : oid;
      if (stats != nullptr) ++stats->candidate_pairs;
      const uint64_t pair_key =
          (static_cast<uint64_t>(a_oid) << 32) | b_oid;
      if (seen_pairs.insert(pair_key).second) {
        pairs.emplace_back(a_oid, b_oid);
      }
    }
    (from_a ? stack_a : stack_b).push_back({elem, oid});
    ZDB_RETURN_IF_ERROR(cur.Next());
  }

  if (stats != nullptr) stats->unique_pairs = pairs.size();

  // Refine in (a_oid, b_oid) order for deterministic output and clustered
  // object-store fetches.
  std::sort(pairs.begin(), pairs.end());
  std::vector<std::pair<ObjectId, ObjectId>> results;
  results.reserve(pairs.size());
  for (const auto& [a_oid, b_oid] : pairs) {
    ObjectRecord ra, rb;
    ZDB_ASSIGN_OR_RETURN(ra, a->objects()->Fetch(a_oid));
    ZDB_ASSIGN_OR_RETURN(rb, b->objects()->Fetch(b_oid));
    bool hit = ra.live && rb.live && ra.mbr.Intersects(rb.mbr);
    if (hit && (ra.kind == ObjectKind::kPolygon ||
                rb.kind == ObjectKind::kPolygon)) {
      // Exact-geometry refinement for polygon participants.
      if (ra.kind == ObjectKind::kPolygon &&
          rb.kind == ObjectKind::kPolygon) {
        Polygon pa, pb;
        ZDB_ASSIGN_OR_RETURN(pa, a->polygons()->Fetch(ra.payload));
        ZDB_ASSIGN_OR_RETURN(pb, b->polygons()->Fetch(rb.payload));
        hit = PolygonsIntersect(pa, pb);
      } else if (ra.kind == ObjectKind::kPolygon) {
        Polygon pa;
        ZDB_ASSIGN_OR_RETURN(pa, a->polygons()->Fetch(ra.payload));
        hit = pa.Intersects(rb.mbr);
      } else {
        Polygon pb;
        ZDB_ASSIGN_OR_RETURN(pb, b->polygons()->Fetch(rb.payload));
        hit = pb.Intersects(ra.mbr);
      }
    }
    if (hit) {
      results.emplace_back(a_oid, b_oid);
    } else if (stats != nullptr) {
      ++stats->false_pairs;
    }
  }
  if (stats != nullptr) stats->results = results.size();
  return results;
}

}  // namespace

Result<std::vector<std::pair<ObjectId, ObjectId>>> SpatialJoin(
    SpatialIndex* a, SpatialIndex* b, JoinStats* stats) {
  // The join is an analytic whole-index scan, not a serving query: it
  // holds each index's writer lock for the whole merge, which freezes
  // both live entry streams against writers. It reads live pages, not a
  // pinned snapshot: both sides usually share one buffer pool, and a
  // thread's snapshot views are looked up by pool, so two views on one
  // pool cannot be told apart. The locks are taken in address order so
  // two joins over the same pair cannot deadlock; a self-join takes one.
  SpatialIndex* first = a < b ? a : b;
  SpatialIndex* second = a < b ? b : a;
  MutexLock lock_first(first->commit_mu_);
  if (first == second) return MergeJoin(a, b, stats);
  MutexLock lock_second(second->commit_mu_);
  return MergeJoin(a, b, stats);
}

}  // namespace zdb
