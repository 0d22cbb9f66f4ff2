// Copyright (c) zdb authors. Licensed under the MIT license.
//
// ShardRouter: owns the N shard engines of a sharded DB and routes the
// write path. Global object ids are router-assigned (dense, in op
// order — byte-identical to the single-engine store's append cursor, so
// an N-shard DB answers queries with exactly the ids a 1-shard DB
// would). Each insert is replicated into every shard whose prefix
// region its MBR overlaps, under the same global oid; the owner set is
// kept in an in-memory per-oid shard mask, rebuilt from the shard
// object stores on reopen, which is what lets erases fan out to exactly
// the owning shards.
//
// Lock order: router_mu_ -> epoch_mu_ (declared via ACQUIRED_AFTER).
// router_mu_ serializes the routing state (oid cursor + masks) and the
// publish fan-out; epoch_mu_ guards the per-shard published-epoch
// vector and per-shard batch counters. Durability waits happen OUTSIDE
// both locks — concurrent kDurable writers overlap their fsyncs across
// the independent per-shard group-commit pipelines, which is where the
// multi-shard ApplyBatch scaling comes from.
//
// Atomicity contract: one batch publishes per shard atomically, but
// NOT atomically across shards — a reader racing the fan-out can
// observe the batch applied on one shard and not yet on another.
// Quiescent states (every router Apply returned) are exact. A shard
// I/O failure mid-fan-out leaves the batch partially applied across
// shards and the router bookkeeping unchanged; see DESIGN.md "Sharded
// partitions" for the recovery story.

#ifndef ZDB_SHARD_ROUTER_H_
#define ZDB_SHARD_ROUTER_H_

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "shard/engine.h"
#include "shard/routing.h"

namespace zdb {
namespace shard {

/// Per-shard counters reported through DB::ShardStats()/server STATS.
struct ShardCounters {
  uint64_t objects = 0;        ///< live objects replicated to this shard
  uint64_t index_entries = 0;  ///< z-elements in this shard's B+-tree
  uint64_t write_epoch = 0;    ///< this shard's published epoch
  uint64_t durable_epoch = 0;  ///< this shard's fsynced epoch
  uint64_t journal_commits = 0;  ///< coalesced journal commits
  uint64_t batches = 0;        ///< sub-batches routed to this shard
  uint32_t pages = 0;          ///< pages in this shard's file
  uint64_t pins_taken = 0;     ///< snapshot pins ever taken
  uint64_t page_versions = 0;  ///< before-image versions retained
};

class ShardRouter {
 public:
  /// Takes ownership of the engines; `routing.shards()` must equal
  /// `engines.size()`.
  ShardRouter(std::vector<std::unique_ptr<ShardEngine>> engines,
              ShardRouting routing);

  /// Rebuilds the routing state (oid cursor + per-oid shard masks) by
  /// scanning the shard object stores. Call once after opening existing
  /// shard files, before any operation.
  Status RecoverState();

  uint32_t shards() const { return routing_.shards(); }
  const ShardRouting& routing() const { return routing_; }
  ShardEngine* engine(uint32_t s) const { return engines_[s].get(); }
  SpatialIndex* index(uint32_t s) const { return engines_[s]->index(); }
  const std::vector<SpatialIndex*>& indexes() const { return indexes_; }

  // ------------------------------------------------------------- writes

  /// Splits `batch` by routing prefix, fans the sub-batches out to the
  /// per-shard pipelines (published under router_mu_, in shard order)
  /// and, for kDurable, waits on each involved shard's durable epoch
  /// outside the locks. Returns the inserted oids in op order: assigned
  /// by the router or — `replicated`, a follower replaying a leader's
  /// batch — each insert's WriteOp::preassigned, the leader's oid
  /// (routed and replicated under that id, so the replica's ids stay
  /// byte-identical to the leader's).
  Result<std::vector<ObjectId>> Apply(const WriteBatch& batch,
                                      Durability durability,
                                      bool replicated = false);

  Result<ObjectId> InsertPolygon(const Polygon& poly);

  /// Bulk loads into empty shards: assigns global oids 0..n-1, routes
  /// each rectangle to its owner shards and runs one per-shard bulk
  /// load with preassigned oids.
  Status BulkLoad(const std::vector<Rect>& data, double fill);

  // ------------------------------------------------------------- queries

  Result<std::vector<ObjectId>> Window(const Rect& window, QueryStats* stats);
  Result<std::vector<ObjectId>> Point(const zdb::Point& p, QueryStats* stats);
  Result<std::vector<ObjectId>> Containment(const Rect& window,
                                            QueryStats* stats);
  Result<std::vector<std::pair<ObjectId, double>>> Nearest(const zdb::Point& p,
                                                           size_t k,
                                                           QueryStats* stats);

  // ---------------------------------------------------------- durability

  /// Router-level published-batch counter (the sharded DB's write
  /// epoch). Bumped once per successful write fan-out.
  uint64_t write_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Waits until everything published on every shard as of this call is
  /// durable (the per-shard epoch vector snapshot — conservative for
  /// older `epoch` values). No-op for non-group-commit engines.
  Status WaitDurable(uint64_t epoch, uint64_t timeout_ms);

  /// Checkpoints every shard engine.
  Status Checkpoint();

  // ------------------------------------------------------------ plumbing

  /// Distinct live objects (each counted once, not per replica).
  uint64_t object_count() const {
    return live_count_.load(std::memory_order_relaxed);
  }

  ShardCounters CountersOf(uint32_t s) const;

 private:
  /// Validated routing decisions of one write (a batch, a polygon
  /// insert or a bulk load), staged before the shards publish it and
  /// committed to masks_/next_oid_ only if every shard publish succeeds.
  struct RoutePlan {
    explicit RoutePlan(uint32_t shards) : sub(shards), wait_epochs(shards) {}

    std::vector<WriteBatch> sub;              ///< per-shard sub-batches
    std::vector<std::pair<ObjectId, uint64_t>> insert_masks;
    std::vector<ObjectId> erase_oids;
    std::vector<ObjectId> inserted;           ///< result ids, op order
    ObjectId next_oid = 0;                    ///< cursor after the write
    uint64_t touched = 0;                     ///< shards the write reaches
    /// Per shard: its write epoch right after publishing its part —
    /// monotonic and >= that publish, a conservative but always-correct
    /// durability wait target.
    std::vector<uint64_t> wait_epochs;
  };

  /// Routes and validates `batch` into per-shard sub-batches. Inserts
  /// take their oid from the router cursor, or — `replicated` — from
  /// WriteOp::preassigned, the leader's id (advancing the cursor past
  /// it, so replay cannot fork the id sequence). DB::Apply and
  /// DB::ApplyReplicated have already checked that an insert carries an
  /// oid exactly when it is replicated.
  Status PlanBatchLocked(const WriteBatch& batch, bool replicated,
                         RoutePlan* plan) REQUIRES(router_mu_);
  /// Publishes the sub-batches shard by shard, then commits the plan.
  Status FanOutLocked(RoutePlan* plan) REQUIRES(router_mu_)
      EXCLUDES(epoch_mu_);
  /// Commits a published plan's bookkeeping: oid cursor, owner masks,
  /// live count, per-shard epochs and batch counters, router epoch.
  void CommitPlanLocked(const RoutePlan& plan) REQUIRES(router_mu_)
      EXCLUDES(epoch_mu_);

  const std::vector<std::unique_ptr<ShardEngine>> engines_;
  const ShardRouting routing_;
  std::vector<SpatialIndex*> indexes_;  ///< borrowed from engines_

  /// Routing state: global oid cursor and per-oid owner-shard masks
  /// (mask 0 = never inserted or erased).
  mutable Mutex router_mu_;
  ObjectId next_oid_ GUARDED_BY(router_mu_) = 0;
  std::vector<uint64_t> masks_ GUARDED_BY(router_mu_);

  /// Per-shard publish bookkeeping; epoch_mu_ is a leaf below
  /// router_mu_ so CountersOf can read it without blocking writers for
  /// the whole fan-out.
  mutable Mutex epoch_mu_ ACQUIRED_AFTER(router_mu_);
  std::vector<uint64_t> shard_epochs_ GUARDED_BY(epoch_mu_);
  std::vector<uint64_t> shard_batches_ GUARDED_BY(epoch_mu_);

  std::atomic<uint64_t> epoch_{0};       ///< router publish counter
  std::atomic<uint64_t> live_count_{0};  ///< distinct live objects
};

}  // namespace shard
}  // namespace zdb

#endif  // ZDB_SHARD_ROUTER_H_
