// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The one filter-and-refine pipeline every query kind runs. Plan: the
// query region is decomposed into query elements (interval scans) plus
// the enclosing elements the scans pass over (ancestor probes); a point
// is a probes-only plan. Filter: one contiguous B+-tree range per work
// item, candidates de-duplicated by object id (and, in store_mbr_in_leaf
// mode, tested on the replicated MBR). Refine: each candidate's record —
// and a polygon's exact ring — is tested against the plan's predicate.

#include <algorithm>
#include <unordered_set>

#include "btree/cursor.h"
#include "core/spatial_index.h"
#include "geom/clip.h"
#include "zorder/bigmin.h"
#include "zorder/zkey.h"

namespace zdb {

namespace {

/// True if z lies inside some element's z-interval (elements sorted,
/// disjoint).
bool CoveredByScan(const std::vector<ZElement>& elements, uint64_t z) {
  // Last element with zmin <= z.
  auto it = std::upper_bound(
      elements.begin(), elements.end(), z,
      [](uint64_t v, const ZElement& e) { return v < e.zmin; });
  if (it == elements.begin()) return false;
  --it;
  return z <= it->zmax();
}

/// The plan's predicate on an MBR: exact for rectangle objects, a
/// necessary condition for polygons. A point query's window is the
/// degenerate rect at the point.
bool MbrSatisfies(QueryPredicate predicate, const Rect& window,
                  const Rect& mbr) {
  switch (predicate) {
    case QueryPredicate::kIntersects: return mbr.Intersects(window);
    case QueryPredicate::kContainsPoint:
      return mbr.Contains(Point{window.xlo, window.ylo});
    case QueryPredicate::kInside: return window.Contains(mbr);
    case QueryPredicate::kEncloses: return mbr.Contains(window);
  }
  return false;
}

/// Collects the per-entry candidate handling shared by probes and scans.
class CandidateSink {
 public:
  CandidateSink(const WindowPlan& plan, bool leaf_refine, QueryStats* stats)
      : plan_(plan), leaf_refine_(leaf_refine), stats_(stats) {}

  void Accept(ObjectId oid, const Slice& value) {
    if (stats_ != nullptr) ++stats_->candidates;
    if (!seen_.insert(oid).second) return;
    if (leaf_refine_ &&
        !MbrSatisfies(plan_.predicate, plan_.window,
                      DecodeRect(value.data()))) {
      if (stats_ != nullptr) ++stats_->false_hits;
      return;
    }
    out_.push_back(oid);
  }

  std::vector<ObjectId> Finish() {
    if (stats_ != nullptr) stats_->unique_candidates = seen_.size();
    // Sorted by oid: deterministic output and clustered object fetches.
    std::sort(out_.begin(), out_.end());
    return std::move(out_);
  }

 private:
  const WindowPlan& plan_;
  bool leaf_refine_;
  QueryStats* stats_;
  std::unordered_set<ObjectId> seen_;
  std::vector<ObjectId> out_;
};

}  // namespace

Result<std::vector<ObjectId>> SpatialIndex::RunQuery(QueryPredicate predicate,
                                                     const Rect& window,
                                                     QueryStats* stats) {
  WindowPlan plan;
  ZDB_ASSIGN_OR_RETURN(plan, BuildPlan(predicate, window));
  std::vector<ObjectId> candidates;
  ZDB_ASSIGN_OR_RETURN(
      candidates, ExecutePlanSlice(plan, 0, plan.work_items(), stats));
  return Refine(predicate, window, std::move(candidates), stats);
}

// ------------------------------------------------------------------ plan

Result<WindowPlan> SpatialIndex::BuildPlan(QueryPredicate predicate,
                                           const Rect& window) const {
  const bool point = predicate == QueryPredicate::kContainsPoint;
  if (point && !IsFinite(Point{window.xlo, window.ylo})) {
    return Status::InvalidArgument("non-finite query point");
  }
  if (!window.valid()) {
    return Status::InvalidArgument("invalid query window");
  }
  WindowPlan plan;
  plan.predicate = predicate;
  plan.window = window;
  plan.qgrid = mapper_.ToGrid(window);
  const uint32_t gbits = options_.grid_bits;
  // Only levels that actually occur in the index are probed (the pinned
  // snapshot's mask — the live mask may already include a concurrent
  // writer's new levels).
  const uint64_t level_mask = ViewMeta().level_mask;

  if (point) {
    // Candidates are exactly the entries stored under enclosing elements
    // of the point's cell: one probe per level present, coarsest first.
    const ZElement cell =
        ZElement::Cell(plan.qgrid.xlo, plan.qgrid.ylo, gbits);
    const uint32_t zbits = 2 * gbits;
    for (uint32_t lvl = 0; lvl <= zbits; ++lvl) {
      if ((level_mask & (1ULL << lvl)) == 0) continue;
      const uint64_t zmin =
          (lvl == 0) ? 0 : (cell.zmin & (~0ULL << (zbits - lvl)));
      plan.probes.emplace_back(zmin, static_cast<uint8_t>(lvl),
                               static_cast<uint8_t>(gbits));
    }
    return plan;
  }

  // 1. Query-side decomposition.
  if (options_.use_bigmin) {
    plan.scans.push_back(ZElement::Enclosing(plan.qgrid, gbits));
  } else {
    plan.scans = Decompose(plan.qgrid, gbits, options_.query).elements;
  }

  // 2. Ancestor probes: strict enclosing elements of the query elements
  // that the scans will not pass over.
  for (const ZElement& e : plan.scans) {
    ZElement anc = e;
    while (anc.level > 0) {
      anc = anc.Parent();
      if ((level_mask & (1ULL << anc.level)) == 0) continue;
      if (CoveredByScan(plan.scans, anc.zmin)) continue;
      plan.probes.push_back(anc);
    }
  }
  std::sort(plan.probes.begin(), plan.probes.end());
  plan.probes.erase(std::unique(plan.probes.begin(), plan.probes.end()),
                    plan.probes.end());
  return plan;
}

// ---------------------------------------------------------------- filter

Result<std::vector<ObjectId>> SpatialIndex::ExecutePlanSlice(
    const WindowPlan& plan, size_t begin, size_t end, QueryStats* stats) {
  const uint32_t gbits = options_.grid_bits;
  CandidateSink sink(plan, options_.store_mbr_in_leaf, stats);
  // A point's one query element is its cell, which the plan probes
  // rather than scans.
  if (stats != nullptr && begin == 0 &&
      plan.predicate == QueryPredicate::kContainsPoint) {
    ++stats->query_elements;
  }

  end = std::min(end, plan.work_items());
  for (size_t item = begin; item < end; ++item) {
    const bool probe = item < plan.probes.size();
    const ZElement& e =
        probe ? plan.probes[item] : plan.scans[item - plan.probes.size()];
    if (stats != nullptr) {
      ++(probe ? stats->ancestor_probes : stats->query_elements);
    }
    const std::string stop = probe ? ZProbeEndKey(e) : ZScanEndKey(e);
    Cursor cur(pool_, pool_->pager()->page_size());
    ZDB_ASSIGN_OR_RETURN(
        cur,
        btree_->Seek(Slice(probe ? ZProbeStartKey(e) : ZScanStartKey(e))));
    while (cur.Valid() && cur.key().compare(Slice(stop)) <= 0) {
      ZElement elem;
      ObjectId oid;
      if (!DecodeZKey(cur.key(), gbits, &elem, &oid)) {
        return Status::Corruption("malformed index key");
      }
      if (stats != nullptr) ++stats->index_entries;

      if (!probe && options_.use_bigmin &&
          !elem.ToGridRect().Intersects(plan.qgrid)) {
        // Dead space: jump to the first z-code inside the query after
        // this element, then rewind to the lowest enclosing element that
        // the scan has not passed yet (elements containing the jump-in
        // point can start before it).
        auto bm = BigMin(elem.zmax(), plan.qgrid, gbits);
        if (!bm.has_value()) break;
        uint64_t seek_zmin = *bm;
        const uint32_t zbits = 2 * gbits;
        for (uint32_t lvl = 0; lvl <= zbits; ++lvl) {
          const uint64_t width =
              (lvl == 0) ? 0 : ~0ULL << (zbits - lvl);
          const uint64_t anc_zmin = (lvl == 0) ? 0 : (*bm & width);
          if (anc_zmin > elem.zmin) {
            seek_zmin = anc_zmin;
            break;
          }
        }
        if (stats != nullptr) ++stats->bigmin_jumps;
        ZElement target(seek_zmin, 0, static_cast<uint8_t>(gbits));
        ZDB_ASSIGN_OR_RETURN(cur, btree_->Seek(Slice(ZScanStartKey(target))));
        continue;
      }
      sink.Accept(oid, cur.value());
      ZDB_RETURN_IF_ERROR(cur.Next());
    }
  }

  return sink.Finish();
}

// ---------------------------------------------------------------- refine

Result<std::vector<ObjectId>> SpatialIndex::Refine(
    QueryPredicate predicate, const Rect& window,
    std::vector<ObjectId> candidates, QueryStats* stats) {
  if (options_.store_mbr_in_leaf) {
    // The filter already tested the replicated MBR, which is exact: the
    // mode stores rectangles only.
    if (stats != nullptr) stats->results = candidates.size();
    return candidates;
  }
  std::vector<ObjectId> results;
  results.reserve(candidates.size());
  for (ObjectId oid : candidates) {
    ObjectRecord rec;
    ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(oid));
    bool keep = false;
    if (rec.live) {
      ZDB_ASSIGN_OR_RETURN(keep, RecordSatisfies(predicate, window, rec));
    }
    if (keep) {
      results.push_back(oid);
    } else if (stats != nullptr) {
      ++stats->false_hits;
    }
  }
  if (stats != nullptr) stats->results = results.size();
  return results;
}

Result<bool> SpatialIndex::RecordSatisfies(QueryPredicate predicate,
                                           const Rect& window,
                                           const ObjectRecord& rec) {
  if (!MbrSatisfies(predicate, window, rec.mbr)) return false;
  // A tight MBR inside the window puts the whole object inside.
  if (rec.kind == ObjectKind::kRect || predicate == QueryPredicate::kInside) {
    return true;
  }
  Polygon poly;
  ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
  switch (predicate) {
    case QueryPredicate::kIntersects: return poly.Intersects(window);
    case QueryPredicate::kContainsPoint:
      return poly.Contains(Point{window.xlo, window.ylo});
    case QueryPredicate::kEncloses: return PolygonContainsRect(poly, window);
    case QueryPredicate::kInside: break;
  }
  return true;
}

// ------------------------------------------------------------ plan hooks

Result<WindowPlan> SpatialIndex::PlanWindow(const Rect& window) {
  ZDB_RETURN_IF_ERROR(CheckSnapshotScope());
  return BuildPlan(QueryPredicate::kIntersects, window);
}

Result<std::vector<ObjectId>> SpatialIndex::ExecuteWindowPlanSlice(
    const WindowPlan& plan, size_t begin, size_t end, QueryStats* stats) {
  ZDB_RETURN_IF_ERROR(CheckSnapshotScope());
  return ExecutePlanSlice(plan, begin, end, stats);
}

Result<std::vector<ObjectId>> SpatialIndex::RefineWindowCandidates(
    const Rect& window, std::vector<ObjectId> candidates, QueryStats* stats) {
  ZDB_RETURN_IF_ERROR(CheckSnapshotScope());
  return Refine(QueryPredicate::kIntersects, window, std::move(candidates),
                stats);
}

// ----------------------------------------------------------- diagnostics

Result<std::vector<uint64_t>> SpatialIndex::LevelHistogram() {
  return PinnedQuery(nullptr, [&](const EpochPin& pin) {
    return ReadAt(pin, [&]() -> Result<std::vector<uint64_t>> {
      std::vector<uint64_t> histogram(2 * options_.grid_bits + 1, 0);
      Cursor cur(pool_, pool_->pager()->page_size());
      ZDB_ASSIGN_OR_RETURN(cur, btree_->SeekFirst());
      while (cur.Valid()) {
        ZElement elem;
        ObjectId oid;
        if (!DecodeZKey(cur.key(), options_.grid_bits, &elem, &oid)) {
          return Status::Corruption("malformed index key");
        }
        ++histogram[elem.level];
        ZDB_RETURN_IF_ERROR(cur.Next());
      }
      return histogram;
    });
  });
}

}  // namespace zdb
