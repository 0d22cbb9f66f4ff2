// Copyright (c) zdb authors. Licensed under the MIT license.
//
// ShardRouter: owns the shard engines of a DB, one or more, and routes
// every DB call. Global object ids are router-assigned (dense, in op
// order — byte-identical to the single-engine store's append cursor, so
// an N-shard DB answers queries with exactly the ids a 1-shard DB
// would). Each insert is replicated into every shard whose prefix
// region its MBR overlaps, under the same global oid; the owner set is
// kept in an in-memory per-oid shard mask, rebuilt from the shard
// object stores on open and after a shard's group rollback, which is
// what lets erases fan out to exactly the owning shards.
//
// Epochs: a single engine is its own global epoch domain, so a
// one-engine router reports that engine's write epoch, waits on it
// exactly and lets a query report the epoch it pinned. With more
// engines there is no global pin: write_epoch() is the router's batch
// counter and a query reports the write_epoch() bracket of its scatter.
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

/// The write epochs a query answer reflects. A one-engine DB answers
/// from one pinned epoch: first == last, and the answer is exactly that
/// epoch's committed state. A sharded DB has no global pin: the range is
/// write_epoch() read before and after the scatter, and each shard
/// answers from its own state, which may already hold the batch then in
/// flight (epoch last + 1) — see DESIGN.md "Sharded partitions".
struct EpochRange {
  uint64_t first = 0;
  uint64_t last = 0;
};

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
  /// Takes ownership of the engines, one per shard in shard order
  /// (1..kMaxShards), and rebuilds the routing state (oid cursor +
  /// per-oid shard masks) by scanning their object stores. Routing comes
  /// from engine 0's stored index options, not the caller's, so a
  /// reopened DB routes exactly as it did when created.
  static Result<std::unique_ptr<ShardRouter>> Open(
      std::vector<std::unique_ptr<ShardEngine>> engines);

  uint32_t shards() const { return routing_.shards(); }
  const ShardRouting& routing() const { return routing_; }
  ShardEngine* engine(uint32_t s) const { return engines_[s].get(); }
  SpatialIndex* index(uint32_t s) const { return engines_[s]->index(); }
  const std::vector<SpatialIndex*>& indexes() const { return indexes_; }

  // ------------------------------------------------------------- writes

  /// Splits `batch` by routing prefix, fans the sub-batches out to the
  /// per-shard pipelines (published under router_mu_, in shard order)
  /// and, for kDurable, waits on each involved shard's durable epoch
  /// outside the locks. Returns the inserted oids in op order, assigned
  /// by the router: an insert carrying WriteOp::preassigned fails with
  /// InvalidArgument unless `replicated`. A follower replaying its
  /// leader's batch passes `replicated`, and every insert carries the
  /// leader's oid, which keeps the replica's ids byte-identical to the
  /// leader's. A well-formed leader stream names exactly this router's
  /// next oid; any other replicated oid fails with Corruption.
  Result<std::vector<ObjectId>> Apply(const WriteBatch& batch,
                                      Durability durability,
                                      bool replicated = false);

  Result<ObjectId> InsertPolygon(const Polygon& poly);

  /// Bulk loads into empty shards: assigns global oids 0..n-1, routes
  /// each rectangle to its owner shards and runs one per-shard bulk
  /// load. A shard that receives every object loads `data` as it is
  /// (its own cursor assigns 0..n-1); the others load staged copies
  /// with preassigned oids.
  Status BulkLoad(const std::vector<Rect>& data, double fill);

  // ------------------------------------------------------------- queries
  //
  // `epochs` (optional) receives the write epochs the answer reflects.

  Result<std::vector<ObjectId>> Window(const Rect& window, QueryStats* stats,
                                       EpochRange* epochs = nullptr);
  Result<std::vector<ObjectId>> Point(const zdb::Point& p, QueryStats* stats,
                                      EpochRange* epochs = nullptr);
  Result<std::vector<ObjectId>> Containment(const Rect& window,
                                            QueryStats* stats);
  Result<std::vector<std::pair<ObjectId, double>>> Nearest(
      const zdb::Point& p, size_t k, QueryStats* stats,
      EpochRange* epochs = nullptr);

  // ---------------------------------------------------------- durability

  /// The DB's write epoch: a single engine's own epoch (which also moves
  /// on its group rollbacks), else the router's published-batch
  /// counter, bumped once per successful write fan-out.
  uint64_t write_epoch() const {
    return sole_ != nullptr ? sole_->write_epoch()
                            : epoch_.load(std::memory_order_acquire);
  }

  /// Waits until `epoch` is durable: exactly, on a single engine. With
  /// more engines it waits until everything published on every shard as
  /// of this call is durable (the per-shard epoch vector snapshot —
  /// conservative for older `epoch` values). No-op for engines without
  /// a journaled commit path.
  Status WaitDurable(uint64_t epoch, uint64_t timeout_ms);

  /// Checkpoints every shard engine.
  Status Checkpoint();

  // ------------------------------------------------------------ plumbing

  /// Distinct live objects (each counted once, not per replica). After
  /// a shard's group rollback it first rebuilds the routing state.
  uint64_t object_count();

  ShardCounters CountersOf(uint32_t s) const;

 private:
  ShardRouter(std::vector<std::unique_ptr<ShardEngine>> engines,
              ShardRouting routing);

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
  /// take their oid from the router cursor. Only a `replicated` insert
  /// carries a WriteOp::preassigned oid, the leader's, which must equal
  /// it.
  Status PlanBatchLocked(const WriteBatch& batch, bool replicated,
                         RoutePlan* plan) REQUIRES(router_mu_);
  /// Publishes the sub-batches shard by shard, then commits the plan.
  Status FanOutLocked(RoutePlan* plan) REQUIRES(router_mu_)
      EXCLUDES(epoch_mu_);
  /// Commits a published plan's bookkeeping: oid cursor, owner masks,
  /// live count, per-shard epochs and batch counters, router epoch.
  void CommitPlanLocked(const RoutePlan& plan) REQUIRES(router_mu_)
      EXCLUDES(epoch_mu_);
  /// Rebuilds the routing state from the shard object stores.
  Status RecoverStateLocked() REQUIRES(router_mu_);
  /// Runs RecoverStateLocked if a shard rolled a group back since the
  /// last rebuild: the rollback dropped published writes that masks_,
  /// next_oid_ and the live count still hold. Every write calls it
  /// first. A rollback that races a write is seen by the next one.
  Status ResyncLocked() REQUIRES(router_mu_);
  /// Sum of the engines' rollbacks(); it moves on every group rollback.
  uint64_t RollbackCount() const;
  /// Runs `query(pinned)` and fills the optional `epochs` (see the
  /// header comment); `pinned` is non-null only for a single engine.
  template <typename Query>
  auto WithEpochs(EpochRange* epochs, Query query) const;
  /// Nearest's best-first frontier over several shards.
  Result<std::vector<std::pair<ObjectId, double>>> ScatterNearest(
      const zdb::Point& p, size_t k, QueryStats* stats);

  const std::vector<std::unique_ptr<ShardEngine>> engines_;
  const ShardRouting routing_;
  std::vector<SpatialIndex*> indexes_;  ///< borrowed from engines_
  /// The one engine of a one-engine router, else nullptr: only a single
  /// engine's epochs are the DB's.
  SpatialIndex* sole_ = nullptr;

  /// Routing state: global oid cursor and per-oid owner-shard masks
  /// (mask 0 = never inserted or erased).
  mutable Mutex router_mu_;
  ObjectId next_oid_ GUARDED_BY(router_mu_) = 0;
  std::vector<uint64_t> masks_ GUARDED_BY(router_mu_);
  /// RollbackCount() as of the last routing-state rebuild; written
  /// under router_mu_, read without it by object_count().
  std::atomic<uint64_t> rollbacks_seen_{0};

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
