// Copyright (c) zdb authors. Licensed under the MIT license.
//
// k-nearest-neighbor search on the redundant z-index: best-first search
// over the z-order quadtree (Hjaltason & Samet, "Distance browsing in
// spatial databases", TODS 1999). Every z-element is a quadtree cell, so
// the index is a linear quadtree: one min-heap holds cells keyed by
// MINDIST(p, cell) and objects keyed first by a lower bound (the MINDIST
// of the element they were found under), then by their exact distance.
// An object's record is fetched only when its lower bound reaches the
// top of the heap; the search stops once k exact distances are held and
// nothing left in the heap can tie or beat the k-th.
//
// Exactness: an object's elements cover every grid cell its geometry
// touches (inside the world; a rectangle beyond the border is clamped
// onto the border cells), so the element holding the object's nearest
// point has MINDIST no larger than the object's distance. Two details
// keep that bound sound: MINDIST carries a small downward slack
// (SpaceMapper::ToWorld can miss, by an ulp, a point that ToGrid maps
// into the cell), and cells on the world border extend to infinity on
// their outer sides (query points outside the world stay exact).

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_set>

#include "btree/cursor.h"
#include "core/spatial_index.h"
#include "zorder/zkey.h"

namespace zdb {

namespace {

/// Descendant entries one cursor pass over a cell may read. A subtree
/// that ends within it is pushed entry by entry; a longer one is split
/// into the cell's two children instead.
constexpr size_t kSubtreeBudget = 32;

/// A cell whose estimated subtree (index entries / 2^level) exceeds this
/// would overrun the budget anyway: it only probes its own entries, and
/// only if its level is in the level mask, then pushes its children
/// without seeking them. Upper levels thus cost no seek to the far start
/// of their z-ranges.
constexpr uint64_t kLargeSubtree = 16 * kSubtreeBudget;

/// One heap entry. At equal keys exact distances pop first, then lower
/// bounds, then cells; the remaining fields make the order total.
struct Item {
  enum Kind : uint8_t { kExact, kBound, kCell };
  double key;
  Kind kind;
  ObjectId oid;    ///< kExact / kBound
  ZElement cell;   ///< kCell
};

struct PopsLater {
  bool operator()(const Item& a, const Item& b) const {
    if (a.key != b.key) return a.key > b.key;
    if (a.kind != b.kind) return a.kind > b.kind;
    if (a.oid != b.oid) return a.oid > b.oid;
    return b.cell < a.cell;
  }
};

/// MINDIST(p, element), a lower bound on the distance of every object
/// point the element covers.
class CellDistance {
 public:
  CellDistance(const SpaceMapper& mapper, const Point& p)
      : mapper_(mapper), p_(p) {
    const Rect& w = mapper.world();
    const double scale =
        std::max({std::abs(w.xlo), std::abs(w.xhi), std::abs(w.ylo),
                  std::abs(w.yhi), w.xhi - w.xlo, w.yhi - w.ylo,
                  std::abs(p.x), std::abs(p.y)});
    slack_ = std::ldexp(scale, -36);
  }

  double operator()(const ZElement& e) const {
    const GridRect g = e.ToGridRect();
    Rect r = mapper_.ToWorld(g);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const GridCoord max = mapper_.max_coord();
    if (g.xlo == 0) r.xlo = -kInf;
    if (g.ylo == 0) r.ylo = -kInf;
    if (g.xhi == max) r.xhi = kInf;
    if (g.yhi == max) r.yhi = kInf;
    return std::max(0.0, r.DistanceTo(p_) - slack_);
  }

 private:
  const SpaceMapper& mapper_;
  Point p_;
  double slack_;
};

}  // namespace

Result<std::vector<std::pair<ObjectId, double>>>
SpatialIndex::NearestNeighbors(const Point& p, size_t k, QueryStats* stats,
                               uint32_t* rounds, uint64_t* epoch) {
  return PinnedQuery(epoch, [&](const EpochPin& pin) {
    return NearestNeighborsAt(pin, p, k, stats, rounds);
  });
}

Result<std::vector<std::pair<ObjectId, double>>>
SpatialIndex::BestFirstSearch(const Point& p, size_t k, QueryStats* stats,
                              uint32_t* rounds) {
  if (!IsFinite(p)) return Status::InvalidArgument("non-finite query point");
  // The pinned snapshot's counters, never the live ones a concurrent
  // writer is mutating.
  const SnapshotMeta& meta = ViewMeta();
  std::vector<std::pair<ObjectId, double>> best;
  if (k == 0 || meta.live_objects == 0) {
    if (rounds != nullptr) *rounds = 0;
    return best;
  }
  if (rounds != nullptr) *rounds = 1;

  // When every live object is an answer, the root's one pass reads the
  // whole index, and every lower bound is 0: the records are then
  // fetched in oid order, the order they are stored in.
  const bool read_all = k >= meta.live_objects;
  const size_t budget =
      read_all ? std::numeric_limits<size_t>::max() : kSubtreeBudget;
  const uint32_t gbits = options_.grid_bits;
  const bool leaf_mbr = options_.store_mbr_in_leaf;
  const CellDistance cell_distance(mapper_, p);
  QueryStats qs;
  std::priority_queue<Item, std::vector<Item>, PopsLater> heap;
  // Objects whose exact distance is in the heap or in `best`.
  std::unordered_set<ObjectId> refined;

  auto push_cell = [&](const ZElement& e) {
    heap.push(Item{cell_distance(e), Item::kCell, 0, e});
  };
  // The heap item of an index entry; a lower bound gets its key (the
  // MINDIST of the entry's element) when pushed. With MBRs in the leaves
  // (rectangles only) the entry carries its exact distance.
  auto entry_item = [&](ObjectId oid, const Slice& value) {
    if (leaf_mbr) {
      return Item{DecodeRect(value.data()).DistanceTo(p), Item::kExact, oid,
                  {}};
    }
    return Item{0, Item::kBound, oid, {}};
  };
  auto push_entry = [&](double key, Item item) {
    if (refined.count(item.oid) != 0) return;
    ++qs.candidates;
    if (item.kind == Item::kBound) item.key = read_all ? 0 : key;
    heap.push(item);
  };

  // A scanned subtree's entries, pushed once the pass ends within the
  // budget.
  std::vector<std::pair<ZElement, Item>> subtree;
  // Pops a cell: one cursor pass reads its own entries, then its subtree
  // while that fits the budget; a subtree that does not is split into
  // the cell's two children. A large cell's budget is 0, so its pass is
  // a probe of its own entries, skipped when its level is not in the
  // pinned level mask.
  auto expand = [&](const ZElement& cell, double key) -> Status {
    ++qs.query_elements;
    const bool large = !read_all && !cell.is_full_resolution() &&
                       (meta.index_entries >> cell.level) > kLargeSubtree;
    const size_t limit = large ? 0 : budget;
    bool split = large && (meta.level_mask & (1ULL << cell.level)) == 0;
    subtree.clear();
    if (!split) {
      if (large) ++qs.ancestor_probes;
      const uint64_t zmax = cell.zmax();
      Cursor cur(pool_, pool_->pager()->page_size());
      ZDB_ASSIGN_OR_RETURN(cur, btree_->Seek(Slice(ZProbeStartKey(cell))));
      while (cur.Valid()) {
        ZElement elem;
        ObjectId oid;
        if (!DecodeZKey(cur.key(), gbits, &elem, &oid)) {
          return Status::Corruption("malformed index key");
        }
        if (elem.zmin > zmax) break;
        ++qs.index_entries;
        if (elem == cell) {
          push_entry(key, entry_item(oid, cur.value()));
        } else if (subtree.size() == limit) {
          split = true;
          break;
        } else {
          subtree.emplace_back(elem, entry_item(oid, cur.value()));
        }
        ZDB_RETURN_IF_ERROR(cur.Next());
      }
    }
    if (split) {
      push_cell(cell.Child(0));
      push_cell(cell.Child(1));
      return Status::OK();
    }
    // Entries of one element are adjacent: one MINDIST per element.
    ZElement last;
    double last_key = 0;
    for (size_t i = 0; i < subtree.size(); ++i) {
      if (i == 0 || !(subtree[i].first == last)) {
        last = subtree[i].first;
        last_key = cell_distance(last);
      }
      push_entry(last_key, subtree[i].second);
    }
    return Status::OK();
  };

  push_cell(ZElement::Root(gbits));
  while (!heap.empty()) {
    const Item top = heap.top();
    // Nothing left can tie or beat the k-th exact distance. Pops come in
    // key order, so best[k - 1] is the k-th smallest.
    if (best.size() >= k && top.key > best[k - 1].second) break;
    heap.pop();
    switch (top.kind) {
      case Item::kExact:
        if (leaf_mbr && !refined.insert(top.oid).second) break;
        best.emplace_back(top.oid, top.key);
        break;
      case Item::kBound: {
        if (!refined.insert(top.oid).second) break;
        ++qs.unique_candidates;
        ObjectRecord rec;
        ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(top.oid));
        if (!rec.live) break;
        double d;
        ZDB_ASSIGN_OR_RETURN(d, ExactDistance(rec, p));
        heap.push(Item{d, Item::kExact, top.oid, {}});
        break;
      }
      case Item::kCell:
        ZDB_RETURN_IF_ERROR(expand(top.cell, top.key));
        break;
    }
  }

  // (distance, oid) order, so ties at the k-th distance resolve by oid.
  std::sort(best.begin(), best.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
  if (best.size() > k) best.resize(k);
  qs.results = best.size();
  if (stats != nullptr) stats->Add(qs);
  return best;
}

Result<double> SpatialIndex::DistanceTo(ObjectId oid, const Point& p) {
  return PinnedQuery(nullptr, [&](const EpochPin& pin) {
    return ReadAt(pin, [&]() -> Result<double> {
      ObjectRecord rec;
      ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(oid));
      return ExactDistance(rec, p);
    });
  });
}

Result<double> SpatialIndex::ExactDistance(const ObjectRecord& rec,
                                           const Point& p) {
  if (rec.kind == ObjectKind::kRect) return rec.mbr.DistanceTo(p);
  Polygon poly;
  ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
  return poly.DistanceTo(p);
}

}  // namespace zdb
