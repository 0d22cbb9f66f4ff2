// Copyright (c) zdb authors. Licensed under the MIT license.

#include "core/spatial_index.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "decompose/region.h"
#include "geom/clip.h"
#include "zorder/zkey.h"

namespace zdb {

Result<std::unique_ptr<SpatialIndex>> SpatialIndex::Create(
    BufferPool* pool, const SpatialIndexOptions& options) {
  if (options.grid_bits < 1 || options.grid_bits > kMaxGridBits) {
    return Status::InvalidArgument("grid_bits out of range");
  }
  std::unique_ptr<SpatialIndex> index(new SpatialIndex(pool, options));
  ZDB_ASSIGN_OR_RETURN(index->btree_, BTree::Create(pool));
  index->store_ = std::make_unique<ObjectStore>(pool);
  index->polys_ = std::make_unique<PolygonStore>(pool);
  index->StartSnapshots();
  return index;
}

// ------------------------------------------------------------- mutations
//
// Public mutations are batch-granular writer sections: the exclusive
// latch is held for the whole multi-key operation, so an object's
// z-element set is published to readers all-or-nothing. Every mutator
// takes commit_mu_ first (lock order commit_mu_ → latch_), which is
// what serializes the write path against the commit path's off-latch
// durability work. Each one ends the same way: publish under the
// latch, drop it, and (inline groups of one) commit before returning.
//
// A mid-operation I/O failure may have partially mutated the in-memory
// state, so — on an armed commit path — the whole armed group is rolled
// back to the last durable boundary. Predictable rejections (invalid
// MBR, unknown oid) happen before any mutation and roll nothing back.

namespace {
/// True for failures detected before any page was mutated.
bool PrevalidatedFailure(const Status& s) {
  return s.IsInvalidArgument() || s.IsNotFound();
}
}  // namespace

Result<ObjectId> SpatialIndex::Insert(const Rect& mbr, uint32_t payload) {
  MutexLock commit(commit_mu_);
  ZDB_RETURN_IF_ERROR(WritableLocked());
  WriterSection lock(this);
  auto r = InsertLocked(mbr, payload);
  ZDB_RETURN_IF_ERROR(PublishOrRollbackLocked(
      r.status(), !PrevalidatedFailure(r.status())));
  lock.Unlock();
  ZDB_RETURN_IF_ERROR(CommitInlineLocked());
  return r;
}

Result<ObjectId> SpatialIndex::InsertPolygon(const Polygon& poly,
                                             ObjectId preassigned) {
  MutexLock commit(commit_mu_);
  ZDB_RETURN_IF_ERROR(WritableLocked());
  WriterSection lock(this);
  auto r = InsertPolygonLocked(poly, preassigned);
  ZDB_RETURN_IF_ERROR(PublishOrRollbackLocked(
      r.status(), !PrevalidatedFailure(r.status())));
  lock.Unlock();
  ZDB_RETURN_IF_ERROR(CommitInlineLocked());
  return r;
}

Status SpatialIndex::Erase(ObjectId oid) {
  MutexLock commit(commit_mu_);
  ZDB_RETURN_IF_ERROR(WritableLocked());
  WriterSection lock(this);
  const Status s = EraseLocked(oid);
  ZDB_RETURN_IF_ERROR(PublishOrRollbackLocked(s, !PrevalidatedFailure(s)));
  lock.Unlock();
  return CommitInlineLocked();
}

Result<std::vector<ObjectId>> SpatialIndex::ApplyBatch(
    const WriteBatch& batch, Durability durability) {
  MutexLock commit(commit_mu_);
  ZDB_RETURN_IF_ERROR(WritableLocked());
  WriterSection lock(this);
  // Predictable failures (invalid MBRs, unknown/dead/duplicate erases)
  // reject the whole batch before any op is applied, so they can never
  // leave a partial application.
  ZDB_RETURN_IF_ERROR(ValidateBatchLocked(batch));

  std::vector<ObjectId> inserted;
  // A batch that validates empty is a no-op: nothing to apply, publish
  // or make durable — in particular no commit and no write-epoch bump.
  if (batch.empty()) return inserted;

  // Apply + publish under the latch with no durability I/O (page
  // mutations land in the buffer pool; the armed pager batch journals
  // before-images of any evicted page), then commit off the latch.
  ZDB_RETURN_IF_ERROR(
      PublishOrRollbackLocked(ApplyOpsLocked(batch, &inserted), true));
  const uint64_t epoch = write_epoch();
  lock.Unlock();
  ZDB_RETURN_IF_ERROR(CommitInlineLocked());
  commit.Unlock();
  if (durability == Durability::kDurable) {
    ZDB_RETURN_IF_ERROR(WaitDurable(epoch));
  }
  return inserted;
}

Status SpatialIndex::ApplyOpsLocked(const WriteBatch& batch,
                                    std::vector<ObjectId>* inserted) {
  for (const WriteOp& op : batch.ops) {
    if (op.kind == WriteOp::Kind::kInsert) {
      auto r = InsertLocked(op.mbr, op.payload, op.preassigned);
      if (!r.ok()) return r.status();
      inserted->push_back(r.value());
    } else {
      ZDB_RETURN_IF_ERROR(EraseLocked(op.oid));
    }
  }
  return Status::OK();
}

Status SpatialIndex::ValidateBatchLocked(const WriteBatch& batch) {
  std::unordered_set<ObjectId> erased;
  for (const WriteOp& op : batch.ops) {
    if (op.kind == WriteOp::Kind::kInsert) {
      if (!op.mbr.valid()) return Status::InvalidArgument("invalid MBR");
      if (op.preassigned != kNoPreassignedOid &&
          op.preassigned < store_->size()) {
        // A preassigned id may name a hole or a tombstone, never a live
        // record. Holes fetch as NotFound and skipped-but-allocated
        // slots decode as dead — both are fine to overwrite.
        auto r = store_->Fetch(op.preassigned);
        if (r.ok() && r.value().live) {
          return Status::InvalidArgument("preassigned oid already live");
        }
        if (!r.ok() && !r.status().IsNotFound()) return r.status();
      }
    } else {
      ObjectRecord rec;
      ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(op.oid));
      if (!rec.live) return Status::NotFound("object already erased");
      if (!erased.insert(op.oid).second) {
        return Status::NotFound("object erased twice in batch");
      }
    }
  }
  return Status::OK();
}

Result<ObjectId> SpatialIndex::InsertLocked(const Rect& mbr,
                                            uint32_t payload,
                                            ObjectId preassigned) {
  if (!mbr.valid()) return Status::InvalidArgument("invalid MBR");
  ObjectId oid;
  if (preassigned == kNoPreassignedOid) {
    ZDB_ASSIGN_OR_RETURN(oid, store_->Insert(mbr, payload));
  } else {
    oid = preassigned;
    ZDB_RETURN_IF_ERROR(store_->InsertAt(oid, mbr, payload));
  }

  const GridRect grect = mapper_.ToGrid(mbr);
  const Decomposition decomp =
      Decompose(grect, options_.grid_bits, options_.data);

  std::string value;
  if (options_.store_mbr_in_leaf) {
    value.resize(kEncodedRectSize);
    EncodeRect(mbr, value.data());
  }

  for (const ZElement& elem : decomp.elements) {
    ZDB_RETURN_IF_ERROR(
        btree_->Insert(Slice(EncodeZKey(elem, oid)), Slice(value)));
    level_mask_ |= 1ULL << elem.level;
  }

  ++build_stats_.objects;
  build_stats_.index_entries += decomp.elements.size();
  build_stats_.total_error += decomp.error();
  ++live_objects_;
  return oid;
}

Result<ObjectId> SpatialIndex::InsertPolygonLocked(const Polygon& poly,
                                                   ObjectId preassigned) {
  if (poly.size() < 3) {
    return Status::InvalidArgument("polygon needs at least 3 vertices");
  }
  if (options_.store_mbr_in_leaf) {
    return Status::InvalidArgument(
        "polygon objects are incompatible with store_mbr_in_leaf");
  }
  PolyRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, polys_->Insert(poly));
  ObjectId oid;
  if (preassigned == kNoPreassignedOid) {
    ZDB_ASSIGN_OR_RETURN(oid, store_->Insert(poly.Bounds(), ref));
  } else {
    oid = preassigned;
    ZDB_RETURN_IF_ERROR(store_->InsertAt(oid, poly.Bounds(), ref));
  }
  {
    // Flip the record to polygon kind.
    ObjectRecord rec;
    ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(oid));
    rec.kind = ObjectKind::kPolygon;
    ZDB_RETURN_IF_ERROR(store_->Rewrite(oid, rec));
  }

  const PolygonRegion region(&poly);
  const RegionDecomposition decomp =
      DecomposeRegion(region, mapper_, options_.data);
  for (const ZElement& elem : decomp.elements) {
    ZDB_RETURN_IF_ERROR(
        btree_->Insert(Slice(EncodeZKey(elem, oid)), Slice()));
    level_mask_ |= 1ULL << elem.level;
  }

  ++build_stats_.objects;
  build_stats_.index_entries += decomp.elements.size();
  build_stats_.total_error += decomp.error();
  ++live_objects_;
  return oid;
}

Status SpatialIndex::EraseLocked(ObjectId oid) {
  ObjectRecord rec;
  ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(oid));
  if (!rec.live) return Status::NotFound("object already erased");

  // Recompute the (deterministic) decomposition to find the entries.
  std::vector<ZElement> elements;
  if (rec.kind == ObjectKind::kPolygon) {
    Polygon poly;
    ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
    const PolygonRegion region(&poly);
    elements = DecomposeRegion(region, mapper_, options_.data).elements;
  } else {
    elements =
        Decompose(mapper_.ToGrid(rec.mbr), options_.grid_bits, options_.data)
            .elements;
  }
  for (const ZElement& elem : elements) {
    ZDB_RETURN_IF_ERROR(btree_->Delete(Slice(EncodeZKey(elem, oid))));
  }
  ZDB_RETURN_IF_ERROR(store_->Erase(oid));
  --live_objects_;
  return Status::OK();
}

// ------------------------------------------------------------- refinement

Result<bool> SpatialIndex::RecordIntersects(const ObjectRecord& rec,
                                            const Rect& window) {
  if (!rec.mbr.Intersects(window)) return false;
  if (rec.kind == ObjectKind::kRect) return true;
  Polygon poly;
  ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
  return poly.Intersects(window);
}

Result<double> SpatialIndex::DistanceTo(ObjectId oid, const Point& p) {
  SharedSection lock(this);
  return DistanceToLocked(oid, p);
}

Result<double> SpatialIndex::DistanceToLocked(ObjectId oid, const Point& p) {
  ObjectRecord rec;
  ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(oid));
  if (rec.kind == ObjectKind::kRect) return rec.mbr.DistanceTo(p);
  Polygon poly;
  ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
  return poly.DistanceTo(p);
}

template <typename Predicate>
Result<std::vector<ObjectId>> SpatialIndex::Refine(
    std::vector<ObjectId> candidates, Predicate pred, QueryStats* stats) {
  std::vector<ObjectId> results;
  results.reserve(candidates.size());
  for (ObjectId oid : candidates) {
    ObjectRecord rec;
    ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(oid));
    bool keep = false;
    if (rec.live) {
      ZDB_ASSIGN_OR_RETURN(keep, pred(rec));
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

Result<std::vector<ObjectId>> SpatialIndex::RefineWindowCandidates(
    const Rect& window, std::vector<ObjectId> candidates, QueryStats* stats) {
  ZDB_RETURN_IF_ERROR(CheckSnapshotScope());
  if (options_.store_mbr_in_leaf) {
    // The filter already tested the replicated MBR against the window.
    if (stats != nullptr) stats->results = candidates.size();
    return candidates;
  }
  return Refine(
      std::move(candidates),
      [&](const ObjectRecord& rec) { return RecordIntersects(rec, window); },
      stats);
}

// ---------------------------------------------------------------- queries
//
// The public queries pin the current epoch and run latch-free against
// the pinned version chains (PinnedQuery).

Result<std::vector<ObjectId>> SpatialIndex::WindowQuery(const Rect& window,
                                                        QueryStats* stats,
                                                        uint64_t* epoch) {
  return PinnedQuery(epoch, [&](const EpochPin& pin) {
    return WindowQueryAt(pin, window, stats);
  });
}

Result<std::vector<ObjectId>> SpatialIndex::WindowQueryLocked(
    const Rect& window, QueryStats* stats) {
  if (!window.valid()) {
    return Status::InvalidArgument("invalid query window");
  }
  const GridRect qgrid = mapper_.ToGrid(window);
  const std::function<bool(const Rect&)> leaf_pred = [&](const Rect& mbr) {
    return mbr.Intersects(window);
  };
  std::vector<ObjectId> candidates;
  ZDB_ASSIGN_OR_RETURN(candidates,
                       CollectCandidatesFiltered(qgrid, &leaf_pred, stats));
  if (options_.store_mbr_in_leaf) {
    if (stats != nullptr) stats->results = candidates.size();
    return candidates;
  }
  return Refine(
      std::move(candidates),
      [&](const ObjectRecord& rec) { return RecordIntersects(rec, window); },
      stats);
}

Result<std::vector<ObjectId>> SpatialIndex::PointQuery(const Point& p,
                                                       QueryStats* stats,
                                                       uint64_t* epoch) {
  return PinnedQuery(epoch, [&](const EpochPin& pin) {
    return PointQueryAt(pin, p, stats);
  });
}

Result<std::vector<ObjectId>> SpatialIndex::PointQueryLocked(
    const Point& p, QueryStats* stats) {
  const std::function<bool(const Rect&)> leaf_pred = [&](const Rect& mbr) {
    return mbr.Contains(p);
  };
  std::vector<ObjectId> candidates;
  ZDB_ASSIGN_OR_RETURN(
      candidates,
      CollectPointCandidatesFiltered(mapper_.ToGridX(p.x),
                                     mapper_.ToGridY(p.y), &leaf_pred,
                                     stats));
  if (options_.store_mbr_in_leaf) {
    if (stats != nullptr) stats->results = candidates.size();
    return candidates;
  }
  return Refine(
      std::move(candidates),
      [&](const ObjectRecord& rec) -> Result<bool> {
        if (!rec.mbr.Contains(p)) return false;
        if (rec.kind == ObjectKind::kRect) return true;
        Polygon poly;
        ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
        return poly.Contains(p);
      },
      stats);
}

Result<std::vector<ObjectId>> SpatialIndex::ContainmentQuery(
    const Rect& window, QueryStats* stats) {
  return PinnedQuery(nullptr, [&](const EpochPin& pin) {
    return ContainmentQueryAt(pin, window, stats);
  });
}

Result<std::vector<ObjectId>> SpatialIndex::ContainmentQueryLocked(
    const Rect& window, QueryStats* stats) {
  if (!window.valid()) {
    return Status::InvalidArgument("invalid query window");
  }
  const GridRect qgrid = mapper_.ToGrid(window);
  const std::function<bool(const Rect&)> leaf_pred = [&](const Rect& mbr) {
    return window.Contains(mbr);
  };
  std::vector<ObjectId> candidates;
  ZDB_ASSIGN_OR_RETURN(candidates,
                       CollectCandidatesFiltered(qgrid, &leaf_pred, stats));
  if (options_.store_mbr_in_leaf) {
    if (stats != nullptr) stats->results = candidates.size();
    return candidates;
  }
  // A tight MBR inside the window implies the object is inside, for both
  // kinds.
  return Refine(
      std::move(candidates),
      [&](const ObjectRecord& rec) -> Result<bool> {
        return window.Contains(rec.mbr);
      },
      stats);
}

Result<std::vector<ObjectId>> SpatialIndex::EnclosureQuery(
    const Rect& window, QueryStats* stats) {
  return PinnedQuery(nullptr, [&](const EpochPin& pin) {
    return EnclosureQueryAt(pin, window, stats);
  });
}

Result<std::vector<ObjectId>> SpatialIndex::EnclosureQueryLocked(
    const Rect& window, QueryStats* stats) {
  if (!window.valid()) {
    return Status::InvalidArgument("invalid query window");
  }
  const GridRect qgrid = mapper_.ToGrid(window);
  const std::function<bool(const Rect&)> leaf_pred = [&](const Rect& mbr) {
    return mbr.Contains(window);
  };
  std::vector<ObjectId> candidates;
  ZDB_ASSIGN_OR_RETURN(candidates,
                       CollectCandidatesFiltered(qgrid, &leaf_pred, stats));
  if (options_.store_mbr_in_leaf) {
    if (stats != nullptr) stats->results = candidates.size();
    return candidates;
  }
  return Refine(
      std::move(candidates),
      [&](const ObjectRecord& rec) -> Result<bool> {
        if (!rec.mbr.Contains(window)) return false;
        if (rec.kind == ObjectKind::kRect) return true;
        Polygon poly;
        ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
        return PolygonContainsRect(poly, window);
      },
      stats);
}

}  // namespace zdb
