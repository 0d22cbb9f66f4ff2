// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Filter stage of filter-and-refine. A query region is decomposed into
// query elements; candidates are (a) entries stored under elements whose
// zmin falls inside a query element's z-interval — one contiguous B+-tree
// scan per query element — and (b) entries stored under strict enclosing
// elements of the query elements, found by ancestor probes. Candidates
// are de-duplicated by object id; the refinement step (spatial_index.cc)
// fetches exact geometry from the object store.

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "btree/cursor.h"
#include "core/spatial_index.h"
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

/// Collects the per-entry candidate handling shared by probes and scans.
class CandidateSink {
 public:
  CandidateSink(bool leaf_refine,
                const std::function<bool(const Rect&)>& pred,
                QueryStats* stats)
      : leaf_refine_(leaf_refine), pred_(pred), stats_(stats) {}

  void Accept(ObjectId oid, const Slice& value) {
    if (stats_ != nullptr) ++stats_->candidates;
    if (!seen_.insert(oid).second) return;
    if (leaf_refine_) {
      const Rect mbr = DecodeRect(value.data());
      if (!pred_(mbr)) {
        if (stats_ != nullptr) ++stats_->false_hits;
        return;
      }
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
  bool leaf_refine_;
  const std::function<bool(const Rect&)>& pred_;
  QueryStats* stats_;
  std::unordered_set<ObjectId> seen_;
  std::vector<ObjectId> out_;
};

}  // namespace

WindowPlan SpatialIndex::BuildWindowPlan(const GridRect& qgrid) const {
  WindowPlan plan;
  plan.qgrid = qgrid;
  const uint32_t gbits = options_.grid_bits;

  // 1. Query-side decomposition.
  if (options_.use_bigmin) {
    plan.scans.push_back(ZElement::Enclosing(qgrid, gbits));
  } else {
    plan.scans = Decompose(qgrid, gbits, options_.query).elements;
  }

  // 2. Ancestor probes: strict enclosing elements of the query elements
  // that the scans will not pass over. Only levels that actually occur in
  // the index are probed (the pinned snapshot's mask — the live mask
  // may already include a concurrent writer's new levels).
  const uint64_t level_mask = ViewMeta().level_mask;
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

Result<std::vector<ObjectId>> SpatialIndex::ExecutePlanSlice(
    const WindowPlan& plan, size_t begin, size_t end,
    const std::function<bool(const Rect&)>* leaf_pred, QueryStats* stats) {
  const uint32_t gbits = options_.grid_bits;
  const bool leaf_refine =
      options_.store_mbr_in_leaf && leaf_pred != nullptr;
  static const std::function<bool(const Rect&)> kTrue =
      [](const Rect&) { return true; };
  CandidateSink sink(leaf_refine, leaf_refine ? *leaf_pred : kTrue, stats);

  end = std::min(end, plan.work_items());
  for (size_t item = begin; item < end; ++item) {
    if (item < plan.probes.size()) {
      // Ancestor probe.
      const ZElement& anc = plan.probes[item];
      if (stats != nullptr) ++stats->ancestor_probes;
      const std::string start = ZProbeStartKey(anc);
      const std::string stop = ZProbeEndKey(anc);
      Cursor cur(pool_, pool_->pager()->page_size());
      ZDB_ASSIGN_OR_RETURN(cur, btree_->Seek(Slice(start)));
      while (cur.Valid() && cur.key().compare(Slice(stop)) <= 0) {
        ZElement elem;
        ObjectId oid;
        if (!DecodeZKey(cur.key(), gbits, &elem, &oid)) {
          return Status::Corruption("malformed index key");
        }
        if (stats != nullptr) ++stats->index_entries;
        sink.Accept(oid, cur.value());
        ZDB_RETURN_IF_ERROR(cur.Next());
      }
      continue;
    }

    // Interval scan over one query element.
    const ZElement& qe = plan.scans[item - plan.probes.size()];
    if (stats != nullptr) ++stats->query_elements;
    const std::string stop = ZScanEndKey(qe);
    Cursor cur(pool_, pool_->pager()->page_size());
    ZDB_ASSIGN_OR_RETURN(cur, btree_->Seek(Slice(ZScanStartKey(qe))));
    while (cur.Valid() && cur.key().compare(Slice(stop)) <= 0) {
      ZElement elem;
      ObjectId oid;
      if (!DecodeZKey(cur.key(), gbits, &elem, &oid)) {
        return Status::Corruption("malformed index key");
      }
      if (stats != nullptr) ++stats->index_entries;

      if (options_.use_bigmin &&
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

Result<std::vector<ObjectId>> SpatialIndex::CollectCandidatesFiltered(
    const GridRect& qgrid, const std::function<bool(const Rect&)>* leaf_pred,
    QueryStats* stats) {
  const WindowPlan plan = BuildWindowPlan(qgrid);
  return ExecutePlanSlice(plan, 0, plan.work_items(), leaf_pred, stats);
}

Result<WindowPlan> SpatialIndex::PlanWindow(const Rect& window) {
  ZDB_RETURN_IF_ERROR(CheckSnapshotScope());
  if (!window.valid()) {
    return Status::InvalidArgument("invalid query window");
  }
  WindowPlan plan = BuildWindowPlan(mapper_.ToGrid(window));
  plan.window = window;
  return plan;
}

Result<std::vector<ObjectId>> SpatialIndex::ExecuteWindowPlanSlice(
    const WindowPlan& plan, size_t begin, size_t end, QueryStats* stats) {
  ZDB_RETURN_IF_ERROR(CheckSnapshotScope());
  const std::function<bool(const Rect&)> leaf_pred = [&](const Rect& mbr) {
    return mbr.Intersects(plan.window);
  };
  return ExecutePlanSlice(plan, begin, end, &leaf_pred, stats);
}

Result<std::vector<uint64_t>> SpatialIndex::LevelHistogram() {
  return PinnedQuery(nullptr, [&](const EpochPin& pin) {
    return ReadAt(pin, [&] { return LevelHistogramLocked(); });
  });
}

Result<std::vector<uint64_t>> SpatialIndex::LevelHistogramLocked() {
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
}

Result<std::vector<ObjectId>> SpatialIndex::CollectPointCandidatesFiltered(
    GridCoord gx, GridCoord gy,
    const std::function<bool(const Rect&)>* leaf_pred, QueryStats* stats) {
  const uint32_t gbits = options_.grid_bits;
  const bool leaf_refine =
      options_.store_mbr_in_leaf && leaf_pred != nullptr;
  static const std::function<bool(const Rect&)> kTrue =
      [](const Rect&) { return true; };
  CandidateSink sink(leaf_refine, leaf_refine ? *leaf_pred : kTrue, stats);

  // Candidates are exactly the entries stored under enclosing elements of
  // the point's cell: probe every level present in the index.
  const ZElement cell = ZElement::Cell(gx, gy, gbits);
  const uint32_t zbits = 2 * gbits;
  const uint64_t level_mask = ViewMeta().level_mask;
  if (stats != nullptr) stats->query_elements += 1;
  for (uint32_t lvl = 0; lvl <= zbits; ++lvl) {
    if ((level_mask & (1ULL << lvl)) == 0) continue;
    const uint64_t zmin =
        (lvl == 0) ? 0 : (cell.zmin & (~0ULL << (zbits - lvl)));
    const ZElement anc(zmin, static_cast<uint8_t>(lvl),
                       static_cast<uint8_t>(gbits));
    if (stats != nullptr) ++stats->ancestor_probes;
    const std::string start = ZProbeStartKey(anc);
    const std::string end = ZProbeEndKey(anc);
    Cursor cur(pool_, pool_->pager()->page_size());
    ZDB_ASSIGN_OR_RETURN(cur, btree_->Seek(Slice(start)));
    while (cur.Valid() && cur.key().compare(Slice(end)) <= 0) {
      ZElement elem;
      ObjectId oid;
      if (!DecodeZKey(cur.key(), gbits, &elem, &oid)) {
        return Status::Corruption("malformed index key");
      }
      if (stats != nullptr) ++stats->index_entries;
      sink.Accept(oid, cur.value());
      ZDB_RETURN_IF_ERROR(cur.Next());
    }
  }
  return sink.Finish();
}

}  // namespace zdb
