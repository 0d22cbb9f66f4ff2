// Copyright (c) zdb authors. Licensed under the MIT license.

#include "shard/router.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_set>
#include <utility>

namespace zdb {
namespace shard {

namespace {

/// Calls fn(s) for every shard s in `mask`, in shard order.
template <typename Fn>
void ForEachShard(uint64_t mask, Fn fn) {
  for (; mask != 0; mask &= mask - 1) {
    fn(static_cast<uint32_t>(__builtin_ctzll(mask)));
  }
}

}  // namespace

ShardRouter::ShardRouter(std::vector<std::unique_ptr<ShardEngine>> engines,
                         ShardRouting routing)
    : engines_(std::move(engines)), routing_(std::move(routing)) {
  indexes_.reserve(engines_.size());
  for (const auto& e : engines_) indexes_.push_back(e->index());
  if (indexes_.size() == 1) sole_ = indexes_[0];
  MutexLock el(epoch_mu_);
  shard_epochs_.assign(engines_.size(), 0);
  shard_batches_.assign(engines_.size(), 0);
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Open(
    std::vector<std::unique_ptr<ShardEngine>> engines) {
  const uint32_t n = static_cast<uint32_t>(engines.size());
  if (n < 1 || n > kMaxShards) {
    return Status::InvalidArgument(
        "shards must be in [1, " + std::to_string(kMaxShards) + "]");
  }
  const SpatialIndexOptions& iopt = engines[0]->index()->options();
  ShardRouting routing(n, iopt.world, iopt.grid_bits);
  std::unique_ptr<ShardRouter> router(
      new ShardRouter(std::move(engines), std::move(routing)));
  MutexLock lock(router->router_mu_);
  ZDB_RETURN_IF_ERROR(router->RecoverStateLocked());
  return router;
}

Status ShardRouter::RecoverStateLocked() {
  const uint64_t rollbacks = RollbackCount();
  masks_.clear();
  for (uint32_t s = 0; s < shards(); ++s) {
    // Each shard is scanned at one pinned epoch: a group rollback on the
    // commit thread reloads the store, and it waits for this read scope
    // instead of racing the scan.
    const EpochPin pin = indexes_[s]->PinEpoch();
    std::unique_ptr<SpatialIndex::SnapshotReadScope> scope;
    ZDB_ASSIGN_OR_RETURN(scope, indexes_[s]->OpenSnapshot(pin));
    ObjectStore* store = indexes_[s]->objects();
    if (masks_.size() < store->size()) masks_.resize(store->size(), 0);
    for (ObjectId oid = 0; oid < store->size(); ++oid) {
      auto r = store->Fetch(oid);
      if (r.ok()) {
        if (r.value().live) masks_[oid] |= 1ULL << s;
      } else if (!r.status().IsNotFound()) {
        // Holes (pages this shard never saw) read as NotFound; anything
        // else is a real I/O problem.
        return r.status();
      }
    }
  }
  next_oid_ = static_cast<ObjectId>(masks_.size());
  uint64_t live = 0;
  for (uint64_t m : masks_) live += m != 0 ? 1 : 0;
  live_count_.store(live, std::memory_order_relaxed);
  rollbacks_seen_.store(rollbacks, std::memory_order_release);
  return Status::OK();
}

uint64_t ShardRouter::RollbackCount() const {
  uint64_t n = 0;
  for (const SpatialIndex* ix : indexes_) n += ix->rollbacks();
  return n;
}

Status ShardRouter::ResyncLocked() {
  if (RollbackCount() == rollbacks_seen_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  return RecoverStateLocked();
}

// ----------------------------------------------------------------- writes

Status ShardRouter::PlanBatchLocked(const WriteBatch& batch, bool replicated,
                                    RoutePlan* plan) {
  ZDB_RETURN_IF_ERROR(ResyncLocked());
  plan->next_oid = next_oid_;
  std::unordered_set<ObjectId> erased;
  for (const WriteOp& op : batch.ops) {
    if (op.kind == WriteOp::Kind::kInsert) {
      if (!op.mbr.valid()) return Status::InvalidArgument("invalid MBR");
      if (!replicated && op.preassigned != kNoPreassignedOid) {
        return Status::InvalidArgument(
            "preassigned oids are DB-assigned; only ApplyReplicated takes "
            "them");
      }
      // The leader assigns oids densely in op order, so its stream
      // names exactly this replica's next oid. Any other oid is a
      // forked or hostile stream, and honouring it would size masks_
      // and the shard stores' page directories to it.
      if (replicated && op.preassigned != plan->next_oid) {
        return Status::Corruption(
            "replicated insert at oid " + std::to_string(op.preassigned) +
            ", expected " + std::to_string(plan->next_oid));
      }
      const ObjectId oid = plan->next_oid++;
      const uint64_t mask = routing_.MaskForRect(op.mbr);
      ForEachShard(mask, [&](uint32_t s) {
        plan->sub[s].InsertWithOid(op.mbr, oid, op.payload);
      });
      plan->insert_masks.emplace_back(oid, mask);
      plan->inserted.push_back(oid);
      plan->touched |= mask;
    } else {
      // Mirrors the single-engine validation (including its error
      // texts): erases must name live pre-batch objects, once each.
      if (op.oid >= next_oid_) return Status::NotFound("oid out of range");
      const uint64_t mask = masks_[op.oid];
      if (mask == 0) return Status::NotFound("object already erased");
      if (!erased.insert(op.oid).second) {
        return Status::NotFound("object erased twice in batch");
      }
      ForEachShard(mask, [&](uint32_t s) { plan->sub[s].Erase(op.oid); });
      plan->erase_oids.push_back(op.oid);
      plan->touched |= mask;
    }
  }
  return Status::OK();
}

Status ShardRouter::FanOutLocked(RoutePlan* plan) {
  // Publish per shard, in shard order. kPublished keeps the fan-out
  // I/O-free in group-commit mode; the caller waits durability outside
  // the router lock so concurrent batches overlap their fsyncs.
  for (uint32_t s = 0; s < shards(); ++s) {
    if (plan->sub[s].empty()) continue;
    auto r = indexes_[s]->ApplyBatch(plan->sub[s], Durability::kPublished);
    if (!r.ok()) {
      // Earlier shards already published their sub-batches; the
      // bookkeeping below is deliberately NOT committed, so the failed
      // batch's oids stay unknown to the router. See the header's
      // atomicity contract.
      return r.status();
    }
    plan->wait_epochs[s] = indexes_[s]->write_epoch();
  }
  CommitPlanLocked(*plan);
  return Status::OK();
}

void ShardRouter::CommitPlanLocked(const RoutePlan& plan) {
  next_oid_ = plan.next_oid;
  if (masks_.size() < next_oid_) masks_.resize(next_oid_, 0);
  for (const auto& [oid, mask] : plan.insert_masks) masks_[oid] = mask;
  for (const ObjectId oid : plan.erase_oids) masks_[oid] = 0;
  live_count_.fetch_add(plan.insert_masks.size(), std::memory_order_relaxed);
  live_count_.fetch_sub(plan.erase_oids.size(), std::memory_order_relaxed);
  {
    MutexLock el(epoch_mu_);
    ForEachShard(plan.touched, [&](uint32_t s) {
      shard_epochs_[s] = plan.wait_epochs[s];
      ++shard_batches_[s];
    });
  }
  epoch_.fetch_add(1, std::memory_order_release);
}

Result<std::vector<ObjectId>> ShardRouter::Apply(const WriteBatch& batch,
                                                 Durability durability,
                                                 bool replicated) {
  RoutePlan plan(shards());
  {
    MutexLock lock(router_mu_);
    ZDB_RETURN_IF_ERROR(PlanBatchLocked(batch, replicated, &plan));
    // A batch that validates empty is a no-op: nothing published, no
    // epoch bump — same as the single-engine contract.
    if (batch.empty()) return plan.inserted;
    ZDB_RETURN_IF_ERROR(FanOutLocked(&plan));
  }
  Status st;
  if (durability == Durability::kDurable) {
    ForEachShard(plan.touched, [&](uint32_t s) {
      if (st.ok()) st = indexes_[s]->WaitDurable(plan.wait_epochs[s]);
    });
  }
  ZDB_RETURN_IF_ERROR(st);
  return plan.inserted;
}

Result<ObjectId> ShardRouter::InsertPolygon(const Polygon& poly) {
  // Polygons have no batch op; replicate through the engines' polygon
  // path under the router lock. The predictable failures (too few
  // vertices, store_mbr_in_leaf) fail every shard alike, so the first
  // shard rejects the polygon before any shard is touched.
  MutexLock lock(router_mu_);
  ZDB_RETURN_IF_ERROR(ResyncLocked());
  RoutePlan plan(shards());
  const ObjectId oid = next_oid_;
  plan.next_oid = oid + 1;
  plan.touched = routing_.MaskForRect(poly.Bounds());
  plan.insert_masks.emplace_back(oid, plan.touched);
  Status st;
  ForEachShard(plan.touched, [&](uint32_t s) {
    if (st.ok()) st = indexes_[s]->InsertPolygon(poly, oid).status();
    plan.wait_epochs[s] = indexes_[s]->write_epoch();
  });
  ZDB_RETURN_IF_ERROR(st);
  CommitPlanLocked(plan);
  return oid;
}

Status ShardRouter::BulkLoad(const std::vector<Rect>& data, double fill) {
  MutexLock lock(router_mu_);
  ZDB_RETURN_IF_ERROR(ResyncLocked());
  if (next_oid_ != 0) {
    return Status::InvalidArgument("bulk load into non-empty index");
  }
  for (const Rect& mbr : data) {
    if (!mbr.valid()) return Status::InvalidArgument("invalid MBR");
  }
  // Staged copies cost a Rect and an oid per routed object on top of
  // the engines' own load, so a shard that receives every object (the
  // only shard of a one-engine DB) loads `data` itself; its append
  // cursor assigns exactly the global oids 0..n-1.
  std::vector<size_t> routed(shards(), 0);
  for (const Rect& mbr : data) {
    ForEachShard(routing_.MaskForRect(mbr), [&](uint32_t s) { ++routed[s]; });
  }
  std::vector<std::vector<Rect>> shard_data(shards());
  std::vector<std::vector<ObjectId>> shard_oids(shards());
  for (size_t i = 0; i < data.size(); ++i) {
    ForEachShard(routing_.MaskForRect(data[i]), [&](uint32_t s) {
      if (routed[s] == data.size()) return;
      shard_data[s].push_back(data[i]);
      shard_oids[s].push_back(static_cast<ObjectId>(i));
    });
  }
  RoutePlan plan(shards());
  plan.next_oid = static_cast<ObjectId>(data.size());
  for (uint32_t s = 0; s < shards(); ++s) {
    const bool whole = routed[s] == data.size();
    if (routed[s] == 0 && !whole) continue;
    plan.touched |= 1ULL << s;
    const Status st = indexes_[s]->BulkLoad(whole ? data : shard_data[s], fill,
                                            whole ? nullptr : &shard_oids[s]);
    plan.wait_epochs[s] = indexes_[s]->write_epoch();
    ZDB_RETURN_IF_ERROR(st);
  }
  // The owner masks are recomputed rather than staged, for the same
  // reason as the copies above.
  masks_.resize(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    masks_[i] = routing_.MaskForRect(data[i]);
  }
  live_count_.store(data.size(), std::memory_order_relaxed);
  CommitPlanLocked(plan);
  return Status::OK();
}

// ---------------------------------------------------------------- queries
//
// Window and containment queries scatter only to the shards whose
// prefix region intersects the query rect, and the gather merges the
// per-shard sorted id lists and dedups them by oid (a straddling object
// answers from every owning shard under the same global oid). A point
// query routes to exactly one shard: a grid cell has one owner, and any
// object containing the point is replicated there. kNN runs a
// best-first frontier over the shards ordered by mindist to their
// prefix regions; shards provably farther than the k-th candidate are
// never opened. Each shard query pins one epoch of its engine, so the
// gathered answer spans one state per shard, not one global state.

template <typename Query>
auto ShardRouter::WithEpochs(EpochRange* epochs, Query query) const {
  if (epochs == nullptr) return query(nullptr);
  if (sole_ != nullptr) {
    auto r = query(&epochs->first);
    epochs->last = epochs->first;
    return r;
  }
  epochs->first = write_epoch();
  auto r = query(nullptr);
  epochs->last = write_epoch();
  return r;
}

namespace {

/// Merges per-shard sorted-by-oid result lists into one sorted,
/// oid-deduplicated list.
std::vector<ObjectId> MergeIdLists(std::vector<std::vector<ObjectId>> lists) {
  if (lists.size() == 1) return std::move(lists[0]);
  std::vector<ObjectId> merged;
  for (auto& l : lists) merged.insert(merged.end(), l.begin(), l.end());
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

/// The window-shaped scatter: runs `query(index)` on every shard whose
/// prefix region `window` overlaps and gathers the id lists. The shard
/// queries add their counters straight into the caller's `stats`.
template <typename Query>
Result<std::vector<ObjectId>> ScatterRect(const ShardRouter& router,
                                          const Rect& window,
                                          QueryStats* stats, Query query) {
  std::vector<std::vector<ObjectId>> lists;
  Status st;
  ForEachShard(router.routing().MaskForRect(window), [&](uint32_t s) {
    if (!st.ok()) return;
    auto ids = query(router.index(s));
    if (ids.ok()) lists.push_back(std::move(ids).value());
    st = ids.status();
  });
  ZDB_RETURN_IF_ERROR(st);
  auto merged = MergeIdLists(std::move(lists));
  // Each shard query set `results` to its own answer, replicated hits
  // included; report the deduped answer the caller actually gets.
  if (stats != nullptr && router.shards() > 1) stats->results = merged.size();
  return merged;
}

}  // namespace

Result<std::vector<ObjectId>> ShardRouter::Window(const Rect& window,
                                                  QueryStats* stats,
                                                  EpochRange* epochs) {
  return WithEpochs(epochs, [&](uint64_t* pinned) {
    return ScatterRect(*this, window, stats, [&](SpatialIndex* ix) {
      return ix->WindowQuery(window, stats, pinned);
    });
  });
}

Result<std::vector<ObjectId>> ShardRouter::Containment(const Rect& window,
                                                       QueryStats* stats) {
  return ScatterRect(*this, window, stats, [&](SpatialIndex* ix) {
    return ix->ContainmentQuery(window, stats);
  });
}

Result<std::vector<ObjectId>> ShardRouter::Point(const zdb::Point& p,
                                                 QueryStats* stats,
                                                 EpochRange* epochs) {
  // A NaN coordinate has no grid cell, hence no shard.
  if (!IsFinite(p)) return Status::InvalidArgument("non-finite query point");
  const SpaceMapper& m = routing_.mapper();
  SpatialIndex* ix = indexes_[routing_.ShardForCell(m.ToGridX(p.x),
                                                    m.ToGridY(p.y))];
  return WithEpochs(epochs, [&](uint64_t* pinned) {
    return ix->PointQuery(p, stats, pinned);
  });
}

Result<std::vector<std::pair<ObjectId, double>>> ShardRouter::Nearest(
    const zdb::Point& p, size_t k, QueryStats* stats, EpochRange* epochs) {
  // Checked before the shard order is sorted by NaN distances.
  if (!IsFinite(p)) return Status::InvalidArgument("non-finite query point");
  return WithEpochs(epochs, [&](uint64_t* pinned) {
    if (sole_ != nullptr) {
      return sole_->NearestNeighbors(p, k, stats, nullptr, pinned);
    }
    return ScatterNearest(p, k, stats);
  });
}

Result<std::vector<std::pair<ObjectId, double>>> ShardRouter::ScatterNearest(
    const zdb::Point& p, size_t k, QueryStats* stats) {
  std::vector<std::pair<ObjectId, double>> best;
  if (k == 0) return best;
  // Frontier order: shards by mindist from p to their prefix regions.
  // The bound "every object in shard s is at least MinDistance(s, p)
  // away" holds for query points inside the world rect (geometry is
  // clamped onto the grid, and for an inside point the nearest point of
  // any object's MBR lies inside its clamped grid rect). For an outside
  // point an object overhanging the world border can undercut the
  // bound, so pruning is disabled and every shard is visited.
  const bool prune = routing_.mapper().world().Contains(p);
  std::vector<uint32_t> order(shards());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<double> mindist(shards());
  for (uint32_t s = 0; s < shards(); ++s) {
    mindist[s] = routing_.MinDistance(s, p);
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
    ZDB_ASSIGN_OR_RETURN(part, indexes_[s]->NearestNeighbors(p, k, &local));
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
  if (stats != nullptr) stats->results = best.size();
  return best;
}

// ------------------------------------------------------------- durability

Status ShardRouter::WaitDurable(uint64_t epoch, uint64_t timeout_ms) {
  if (sole_ != nullptr) return sole_->WaitDurable(epoch, timeout_ms);
  // Conservative: `epoch` <= the current router epoch is satisfied by
  // waiting out everything published as of this call (the per-shard
  // epoch vector snapshot).
  std::vector<uint64_t> targets;
  {
    MutexLock el(epoch_mu_);
    targets = shard_epochs_;
  }
  for (uint32_t s = 0; s < shards(); ++s) {
    if (targets[s] == 0) continue;
    ZDB_RETURN_IF_ERROR(indexes_[s]->WaitDurable(targets[s], timeout_ms));
  }
  return Status::OK();
}

Status ShardRouter::Checkpoint() {
  for (const auto& e : engines_) {
    ZDB_RETURN_IF_ERROR(e->Checkpoint());
  }
  return Status::OK();
}

// --------------------------------------------------------------- plumbing

uint64_t ShardRouter::object_count() {
  if (RollbackCount() != rollbacks_seen_.load(std::memory_order_acquire)) {
    MutexLock lock(router_mu_);
    // A failed rebuild leaves the old count; the next write retries the
    // rebuild and reports its error.
    (void)ResyncLocked();
  }
  return live_count_.load(std::memory_order_relaxed);
}

ShardCounters ShardRouter::CountersOf(uint32_t s) const {
  ShardCounters c;
  SpatialIndex* ix = indexes_[s];
  c.objects = ix->object_count();
  c.index_entries = ix->build_stats().index_entries;
  c.write_epoch = ix->write_epoch();
  c.durable_epoch = ix->durable_epoch();
  c.journal_commits = engines_[s]->pager()->commit_count();
  c.pages = engines_[s]->pager()->page_count();
  c.pins_taken = ix->epoch_stats().pins_taken;
  c.page_versions = ix->version_stats().live;
  {
    MutexLock el(epoch_mu_);
    c.batches = shard_batches_[s];
  }
  return c;
}

}  // namespace shard
}  // namespace zdb
