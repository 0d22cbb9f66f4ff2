// Copyright (c) zdb authors. Licensed under the MIT license.
//
// k-nearest-neighbor search on the redundant z-index: expanding-window
// search. Orenstein's framework has no native priority-queue traversal
// (the index is a one-dimensional B+-tree), so proximity queries are
// answered by region queries of growing radius — the radius doubles
// until the k-th hit's exact distance is provably covered by the
// searched window. Each round reuses the ordinary filter-and-refine
// window machinery; exact per-object distances come from the object and
// polygon stores.

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/spatial_index.h"

namespace zdb {

namespace {

void SortByDistance(std::vector<std::pair<ObjectId, double>>* best) {
  std::sort(best->begin(), best->end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
}

}  // namespace

Result<std::vector<std::pair<ObjectId, double>>>
SpatialIndex::NearestNeighbors(const Point& p, size_t k, QueryStats* stats,
                               uint32_t* rounds, uint64_t* epoch) {
  // All expanding rounds run at one pinned epoch, so the returned
  // neighbor set reflects a single index state without stalling writers
  // across the whole expansion.
  return PinnedQuery(epoch, [&](const EpochPin& pin) {
    return NearestNeighborsAt(pin, p, k, stats, rounds);
  });
}

Result<std::vector<std::pair<ObjectId, double>>>
SpatialIndex::ExpandingSearch(const Point& p, size_t k, QueryStats* stats,
                              uint32_t* rounds) {
  // A non-finite point never yields a valid search window: the radius
  // would double forever.
  if (!IsFinite(p)) return Status::InvalidArgument("non-finite query point");
  // Pinned reads must size the search off the pinned object count, not
  // the live counter a concurrent writer is mutating.
  const uint64_t live_objects = ViewMeta().live_objects;
  std::vector<std::pair<ObjectId, double>> best;
  if (k == 0 || live_objects == 0) {
    if (rounds != nullptr) *rounds = 0;
    return best;
  }

  const Rect world = options_.world;
  const double world_span =
      std::max(world.xhi - world.xlo, world.yhi - world.ylo);
  // First radius: roughly the expected k-neighborhood under uniformity.
  // When k meets or exceeds the live object count no k-th hit can ever
  // prove a radius, so the first round searches the whole world instead.
  double radius =
      k >= live_objects
          ? std::numeric_limits<double>::infinity()
          : world_span *
                std::sqrt(static_cast<double>(k) /
                          static_cast<double>(live_objects)) /
                2.0;
  radius = std::max(radius, world_span / 4096.0);

  uint32_t round = 0;
  for (;;) {
    ++round;
    Rect window = Rect::FromCenter(p.x, p.y, radius, radius);
    window = window.Intersection(world);
    if (!window.valid()) {
      // The search disk does not reach the world yet (query point far
      // outside the bounds): nothing can be found, keep expanding.
      radius *= 2.0;
      continue;
    }
    const bool covers_world = window == world;

    QueryStats qs;
    std::vector<ObjectId> hits;
    ZDB_ASSIGN_OR_RETURN(hits,
                         RunQuery(QueryPredicate::kIntersects, window, &qs));
    if (stats != nullptr) stats->Add(qs);

    best.clear();
    best.reserve(hits.size());
    for (ObjectId oid : hits) {
      double d;
      ZDB_ASSIGN_OR_RETURN(d, ExactDistance(oid, p));
      best.emplace_back(oid, d);
    }
    SortByDistance(&best);
    if (best.size() > k) best.resize(k);

    // Done when the k-th distance is inside the guaranteed-searched
    // radius, or nothing more can be found.
    if ((best.size() == k && best.back().second <= radius) ||
        covers_world) {
      break;
    }
    radius *= 2.0;
  }
  if (rounds != nullptr) *rounds = round;
  return best;
}

Result<double> SpatialIndex::DistanceTo(ObjectId oid, const Point& p) {
  return PinnedQuery(nullptr, [&](const EpochPin& pin) {
    return ReadAt(pin, [&] { return ExactDistance(oid, p); });
  });
}

Result<double> SpatialIndex::ExactDistance(ObjectId oid, const Point& p) {
  ObjectRecord rec;
  ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(oid));
  if (rec.kind == ObjectKind::kRect) return rec.mbr.DistanceTo(p);
  Polygon poly;
  ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
  return poly.DistanceTo(p);
}

}  // namespace zdb
