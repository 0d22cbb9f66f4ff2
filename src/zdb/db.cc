// Copyright (c) zdb authors. Licensed under the MIT license.

#include "zdb/db.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "shard/manifest.h"

namespace zdb {

namespace {

bool IsMemoryPath(const std::string& path) {
  return path.empty() || path == ":memory:";
}

/// Calls fn(s) for every shard s in `mask`, in shard order.
template <typename Fn>
void ForEachShard(uint64_t mask, Fn fn) {
  for (; mask != 0; mask &= mask - 1) {
    fn(static_cast<uint32_t>(__builtin_ctzll(mask)));
  }
}

}  // namespace

DB::DB(std::vector<std::unique_ptr<shard::ShardEngine>> engines,
       shard::ShardRouting routing)
    : engines_(std::move(engines)), routing_(std::move(routing)) {
  indexes_.reserve(engines_.size());
  for (const auto& e : engines_) indexes_.push_back(e->index());
  if (indexes_.size() == 1) sole_ = indexes_[0];
  MutexLock el(epoch_mu_);
  shard_epochs_.assign(engines_.size(), 0);
  shard_batches_.assign(engines_.size(), 0);
}

Result<std::unique_ptr<DB>> DB::Open(const std::string& path,
                                     const DBOptions& options) {
  ZDB_RETURN_IF_ERROR(options.Validate());
  // A file DB's stored layout wins on reopen (shard/manifest.h).
  std::vector<std::string> shard_paths(options.shards, path);
  if (!IsMemoryPath(path)) {
    ZDB_ASSIGN_OR_RETURN(shard_paths,
                         shard::ShardPaths(path, options.shards));
  }
  std::vector<std::unique_ptr<shard::ShardEngine>> engines;
  for (const std::string& p : shard_paths) {
    std::unique_ptr<shard::ShardEngine> engine;
    ZDB_ASSIGN_OR_RETURN(engine, shard::ShardEngine::Open(p, options));
    engines.push_back(std::move(engine));
  }
  return Open(std::move(engines));
}

Result<std::unique_ptr<DB>> DB::Open(
    std::vector<std::unique_ptr<shard::ShardEngine>> engines) {
  const uint32_t n = static_cast<uint32_t>(engines.size());
  if (n < 1 || n > shard::kMaxShards) {
    return Status::InvalidArgument(
        "shards must be in [1, " + std::to_string(shard::kMaxShards) + "]");
  }
  const SpatialIndexOptions& iopt = engines[0]->index()->options();
  shard::ShardRouting routing(n, iopt.world, iopt.grid_bits);
  std::unique_ptr<DB> db(new DB(std::move(engines), std::move(routing)));
  MutexLock lock(db->write_mu_);
  ZDB_RETURN_IF_ERROR(db->RecoverStateLocked());
  return db;
}

Status DB::RecoverStateLocked() {
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

uint64_t DB::RollbackCount() const {
  uint64_t n = 0;
  for (const SpatialIndex* ix : indexes_) n += ix->rollbacks();
  return n;
}

Status DB::ResyncLocked() {
  if (RollbackCount() == rollbacks_seen_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  return RecoverStateLocked();
}

// ----------------------------------------------------------------- writes

Status DB::PlanBatchLocked(const WriteBatch& batch, bool replicated,
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

Status DB::FanOutLocked(RoutePlan* plan) {
  // Publish per shard, in shard order. kPublished keeps the fan-out
  // I/O-free in group-commit mode; the caller waits durability outside
  // the write lock so concurrent batches overlap their fsyncs.
  for (uint32_t s = 0; s < shards(); ++s) {
    if (plan->sub[s].empty()) continue;
    auto r = indexes_[s]->ApplyBatch(plan->sub[s], Durability::kPublished,
                                     &plan->wait_epochs[s]);
    if (!r.ok()) {
      // Earlier shards already published their sub-batches; the
      // bookkeeping below is deliberately NOT committed, so the failed
      // batch's oids stay unknown to the DB. See the header's
      // atomicity contract.
      return r.status();
    }
  }
  CommitPlanLocked(*plan);
  return Status::OK();
}

void DB::CommitPlanLocked(const RoutePlan& plan) {
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

Result<std::vector<ObjectId>> DB::ApplyRouted(const WriteBatch& batch,
                                              Durability durability,
                                              bool replicated) {
  RoutePlan plan(shards());
  {
    MutexLock lock(write_mu_);
    ZDB_RETURN_IF_ERROR(PlanBatchLocked(batch, replicated, &plan));
    // A batch that validates empty is a no-op: nothing published, no
    // epoch bump, nothing reported — same as the single-engine contract.
    if (batch.empty()) return plan.inserted;
    ZDB_RETURN_IF_ERROR(FanOutLocked(&plan));
    if (sink_ != nullptr) {
      WriteBatch resolved = batch;
      size_t next_inserted = 0;
      for (WriteOp& op : resolved.ops) {
        if (op.kind == WriteOp::Kind::kInsert) {
          op.preassigned = plan.inserted[next_inserted++];
        }
      }
      sink_->OnCommit(write_epoch(), resolved);
    }
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

Result<std::vector<ObjectId>> DB::Apply(const WriteBatch& batch,
                                        Durability durability) {
  return ApplyRouted(batch, durability, /*replicated=*/false);
}

Result<std::vector<ObjectId>> DB::ApplyReplicated(const WriteBatch& batch) {
  return ApplyRouted(batch, Durability::kPublished, /*replicated=*/true);
}

Result<ObjectId> DB::Insert(const Rect& mbr, uint32_t payload) {
  WriteBatch batch;
  batch.Insert(mbr, payload);
  std::vector<ObjectId> ids;
  ZDB_ASSIGN_OR_RETURN(ids, Apply(batch, Durability::kPublished));
  return ids[0];
}

Status DB::Erase(ObjectId oid) {
  WriteBatch batch;
  batch.Erase(oid);
  return Apply(batch, Durability::kPublished).status();
}

Result<ObjectId> DB::InsertPolygon(const Polygon& poly) {
  // Polygons have no batch op; replicate through the engines' polygon
  // path under the write lock. The predictable failures (too few
  // vertices, store_mbr_in_leaf) fail every shard alike, so the first
  // shard rejects the polygon before any shard is touched.
  MutexLock lock(write_mu_);
  if (sink_ != nullptr) {
    return Status::InvalidArgument(
        "InsertPolygon has no batch representation to replicate; "
        "not available while a commit sink is attached");
  }
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

Status DB::BulkLoad(const std::vector<Rect>& data, double fill) {
  MutexLock lock(write_mu_);
  if (sink_ != nullptr) {
    return Status::InvalidArgument(
        "BulkLoad bypasses the batch commit path; "
        "not available while a commit sink is attached");
  }
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

Status DB::SetCommitSink(CommitSink* sink) {
  MutexLock lock(write_mu_);
  if (sink != nullptr && sink_ != nullptr && sink_ != sink) {
    return Status::InvalidArgument("a commit sink is already attached");
  }
  sink_ = sink;
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
auto DB::WithEpochs(EpochRange* epochs, Query query) const {
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

template <typename Query>
Result<std::vector<ObjectId>> DB::ScatterRect(const Rect& window,
                                              QueryStats* stats,
                                              Query query) const {
  std::vector<std::vector<ObjectId>> lists;
  Status st;
  ForEachShard(routing_.MaskForRect(window), [&](uint32_t s) {
    if (!st.ok()) return;
    auto ids = query(indexes_[s]);
    if (ids.ok()) lists.push_back(std::move(ids).value());
    st = ids.status();
  });
  ZDB_RETURN_IF_ERROR(st);
  if (lists.size() == 1) return std::move(lists[0]);
  // Merge the per-shard sorted id lists into one sorted, deduplicated
  // list.
  std::vector<ObjectId> merged;
  for (auto& l : lists) merged.insert(merged.end(), l.begin(), l.end());
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  // Each shard query set `results` to its own answer, replicated hits
  // included; report the deduped answer the caller actually gets.
  if (stats != nullptr) stats->results = merged.size();
  return merged;
}

Result<std::vector<ObjectId>> DB::Window(const Rect& window,
                                         QueryStats* stats,
                                         EpochRange* epochs) {
  return WithEpochs(epochs, [&](uint64_t* pinned) {
    return ScatterRect(window, stats, [&](SpatialIndex* ix) {
      return ix->WindowQuery(window, stats, pinned);
    });
  });
}

Result<std::vector<ObjectId>> DB::Containment(const Rect& window,
                                              QueryStats* stats) {
  return ScatterRect(window, stats, [&](SpatialIndex* ix) {
    return ix->ContainmentQuery(window, stats);
  });
}

Result<std::vector<ObjectId>> DB::Point(const zdb::Point& p, QueryStats* stats,
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

Result<std::vector<std::pair<ObjectId, double>>> DB::Nearest(
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

Result<std::vector<std::pair<ObjectId, double>>> DB::ScatterNearest(
    const zdb::Point& p, size_t k, QueryStats* stats) const {
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

Status DB::Checkpoint() {
  for (const auto& e : engines_) {
    ZDB_RETURN_IF_ERROR(e->Checkpoint());
  }
  return Status::OK();
}

Status DB::WaitDurable(uint64_t epoch, uint64_t timeout_ms) {
  if (sole_ != nullptr) return sole_->WaitDurable(epoch, timeout_ms);
  // Conservative: `epoch` <= the current DB epoch is satisfied by
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

// --------------------------------------------------------------- plumbing

uint64_t DB::object_count() const {
  // One engine: its own count at its published epoch, which is the DB's
  // write_epoch(). live_count_ is bumped only after the engine publishes.
  if (sole_ != nullptr) return sole_->object_count();
  if (RollbackCount() != rollbacks_seen_.load(std::memory_order_acquire)) {
    // The rebuild refreshes a cache of the shards' own state, which is
    // why a const reader may run it. A failed rebuild leaves the old
    // count; the next write retries it and reports its error.
    DB* self = const_cast<DB*>(this);
    MutexLock lock(self->write_mu_);
    (void)self->ResyncLocked();
  }
  return live_count_.load(std::memory_order_relaxed);
}

std::vector<shard::ShardCounters> DB::ShardStats() const {
  std::vector<shard::ShardCounters> out(shards());
  for (uint32_t s = 0; s < shards(); ++s) {
    shard::ShardCounters& c = out[s];
    const SpatialIndex* ix = indexes_[s];
    const Pager* pager = engines_[s]->pager();
    c.objects = ix->object_count();
    c.index_entries = ix->build_stats().index_entries;
    c.write_epoch = ix->write_epoch();
    c.durable_epoch = ix->durable_epoch();
    c.journal_commits = pager->commit_count();
    c.pages = pager->page_count();
    const EpochStats es = ix->epoch_stats();
    c.pinned_epochs = es.pinned;
    c.pins_taken = es.pins_taken;
    c.gc_cycles = es.gc_cycles;
    const PageVersionStats vs = ix->version_stats();
    c.page_versions = vs.live;
    c.version_bytes = vs.bytes;
    c.versions_saved = vs.saved;
    c.versions_reclaimed = vs.reclaimed;
  }
  // epoch_mu_ is a leaf lock: take it only after the engine stats, which
  // take the engines' own locks.
  MutexLock el(epoch_mu_);
  for (uint32_t s = 0; s < shards(); ++s) out[s].batches = shard_batches_[s];
  return out;
}

DBStats DB::Stats() const {
  DBStats s;
  s.shards = shards();
  s.objects = object_count();
  s.write_epoch = write_epoch();
  s.page_size = engines_[0]->pager()->page_size();
  s.group_commit = indexes_[0]->group_commit_active();
  s.durable_epoch = UINT64_MAX;
  for (const shard::ShardCounters& c : ShardStats()) {
    s.index_entries += c.index_entries;
    s.journal_commits += c.journal_commits;
    s.pages += c.pages;
    s.durable_epoch = std::min(s.durable_epoch, c.durable_epoch);
    s.pinned_epochs += c.pinned_epochs;
    s.pins_taken += c.pins_taken;
    s.gc_cycles += c.gc_cycles;
    s.page_versions += c.page_versions;
    s.version_bytes += c.version_bytes;
    s.versions_saved += c.versions_saved;
    s.versions_reclaimed += c.versions_reclaimed;
  }
  s.redundancy =
      s.objects == 0 ? 0.0 : static_cast<double>(s.index_entries) / s.objects;
  return s;
}

IndexBuildStats DB::build_stats() const { return indexes_[0]->build_stats(); }

IoStats DB::io_stats() const {
  IoStats sum;
  for (const auto& e : engines_) sum.Add(e->pager()->io_stats());
  return sum;
}

void DB::set_simulated_read_latency_us(uint32_t us) {
  for (const auto& e : engines_) e->pager()->set_simulated_read_latency_us(us);
}

Status DB::ClearCache() {
  for (const auto& e : engines_) ZDB_RETURN_IF_ERROR(e->pool()->Clear());
  return Status::OK();
}

}  // namespace zdb
