// Copyright (c) zdb authors. Licensed under the MIT license.

#include "shard/router.h"

#include <unordered_set>
#include <utility>

#include "shard/scatter.h"

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

ShardRouter::ShardRouter(std::vector<std::unique_ptr<ShardEngine>> engines,
                         ShardRouting routing)
    : engines_(std::move(engines)), routing_(std::move(routing)) {
  indexes_.reserve(engines_.size());
  for (const auto& e : engines_) indexes_.push_back(e->index());
  MutexLock el(epoch_mu_);
  shard_epochs_.assign(engines_.size(), 0);
  shard_batches_.assign(engines_.size(), 0);
}

Status ShardRouter::RecoverState() {
  MutexLock lock(router_mu_);
  uint32_t max_size = 0;
  for (SpatialIndex* ix : indexes_) {
    max_size = std::max(max_size, ix->objects()->size());
  }
  masks_.assign(max_size, 0);
  for (uint32_t s = 0; s < shards(); ++s) {
    ObjectStore* store = indexes_[s]->objects();
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
  next_oid_ = max_size;
  uint64_t live = 0;
  for (uint64_t m : masks_) live += m != 0 ? 1 : 0;
  live_count_.store(live, std::memory_order_relaxed);
  return Status::OK();
}

// ----------------------------------------------------------------- writes

Status ShardRouter::PlanBatchLocked(const WriteBatch& batch, bool replicated,
                                    RoutePlan* plan) {
  plan->next_oid = next_oid_;
  std::unordered_set<ObjectId> erased;
  for (const WriteOp& op : batch.ops) {
    if (op.kind == WriteOp::Kind::kInsert) {
      if (!op.mbr.valid()) return Status::InvalidArgument("invalid MBR");
      ObjectId oid;
      if (replicated) {
        oid = op.preassigned;
        if (oid < masks_.size() && masks_[oid] != 0) {
          return Status::InvalidArgument("replicated oid already live");
        }
        plan->next_oid = std::max(plan->next_oid, oid + 1);
      } else {
        oid = plan->next_oid++;
      }
      const uint64_t mask = routing_.MaskForRect(op.mbr);
      ZDB_RETURN_IF_ERROR(ForEachShard(mask, [&](uint32_t s) -> Status {
        plan->sub[s].InsertWithOid(op.mbr, oid, op.payload);
        return Status::OK();
      }));
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
      ZDB_RETURN_IF_ERROR(ForEachShard(mask, [&](uint32_t s) -> Status {
        plan->sub[s].Erase(op.oid);
        return Status::OK();
      }));
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
    Status st = ForEachShard(plan.touched, [&](uint32_t s) -> Status {
      shard_epochs_[s] = plan.wait_epochs[s];
      ++shard_batches_[s];
      return Status::OK();
    });
    (void)st;  // the lambda never fails
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
  if (durability == Durability::kDurable) {
    ZDB_RETURN_IF_ERROR(ForEachShard(plan.touched, [&](uint32_t s) -> Status {
      return indexes_[s]->WaitDurable(plan.wait_epochs[s]);
    }));
  }
  return plan.inserted;
}

Result<ObjectId> ShardRouter::InsertPolygon(const Polygon& poly) {
  // Polygons have no batch op; replicate through the engines' polygon
  // path under the router lock. Reject the predictable failures before
  // touching any shard so they cannot partially apply.
  if (poly.size() < 3) {
    return Status::InvalidArgument("polygon needs at least 3 vertices");
  }
  MutexLock lock(router_mu_);
  RoutePlan plan(shards());
  const ObjectId oid = next_oid_;
  plan.next_oid = oid + 1;
  plan.touched = routing_.MaskForRect(poly.Bounds());
  plan.insert_masks.emplace_back(oid, plan.touched);
  ZDB_RETURN_IF_ERROR(ForEachShard(plan.touched, [&](uint32_t s) -> Status {
    auto r = indexes_[s]->InsertPolygon(poly, oid);
    if (!r.ok()) return r.status();
    plan.wait_epochs[s] = indexes_[s]->write_epoch();
    return Status::OK();
  }));
  CommitPlanLocked(plan);
  return oid;
}

Status ShardRouter::BulkLoad(const std::vector<Rect>& data, double fill) {
  MutexLock lock(router_mu_);
  if (next_oid_ != 0) {
    return Status::InvalidArgument("bulk load into non-empty index");
  }
  for (const Rect& mbr : data) {
    if (!mbr.valid()) return Status::InvalidArgument("invalid MBR");
  }
  RoutePlan plan(shards());
  plan.next_oid = static_cast<ObjectId>(data.size());
  plan.insert_masks.reserve(data.size());
  std::vector<std::vector<Rect>> shard_data(shards());
  std::vector<std::vector<ObjectId>> shard_oids(shards());
  for (size_t i = 0; i < data.size(); ++i) {
    const ObjectId oid = static_cast<ObjectId>(i);
    const uint64_t mask = routing_.MaskForRect(data[i]);
    plan.insert_masks.emplace_back(oid, mask);
    plan.touched |= mask;
    ZDB_RETURN_IF_ERROR(ForEachShard(mask, [&](uint32_t s) -> Status {
      shard_data[s].push_back(data[i]);
      shard_oids[s].push_back(oid);
      return Status::OK();
    }));
  }
  ZDB_RETURN_IF_ERROR(ForEachShard(plan.touched, [&](uint32_t s) -> Status {
    const Status st =
        indexes_[s]->BulkLoad(shard_data[s], fill, &shard_oids[s]);
    plan.wait_epochs[s] = indexes_[s]->write_epoch();
    return st;
  }));
  CommitPlanLocked(plan);
  return Status::OK();
}

// ---------------------------------------------------------------- queries

Result<std::vector<ObjectId>> ShardRouter::Window(const Rect& window,
                                                  QueryStats* stats) {
  return ScatterWindow(indexes_, routing_, window, stats);
}

Result<std::vector<ObjectId>> ShardRouter::Point(const zdb::Point& p,
                                                 QueryStats* stats) {
  return ScatterPoint(indexes_, routing_, p, stats);
}

Result<std::vector<ObjectId>> ShardRouter::Containment(const Rect& window,
                                                       QueryStats* stats) {
  return ScatterContainment(indexes_, routing_, window, stats);
}

Result<std::vector<std::pair<ObjectId, double>>> ShardRouter::Nearest(
    const zdb::Point& p, size_t k, QueryStats* stats) {
  return ScatterNearest(indexes_, routing_, p, k, stats);
}

// ------------------------------------------------------------- durability

Status ShardRouter::WaitDurable(uint64_t epoch, uint64_t timeout_ms) {
  // Conservative: `epoch` <= the current router epoch is satisfied by
  // waiting out everything published as of this call (the per-shard
  // epoch vector snapshot).
  (void)epoch;
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
