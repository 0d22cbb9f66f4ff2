// Copyright (c) zdb authors. Licensed under the MIT license.
//
// zdb::DB — the single public facade over the engine. It owns the whole
// storage stack (file, rollback journal, pager, buffer pool, spatial
// index, group-commit pipeline) so applications, examples, benches and
// the server never assemble Pager/BufferPool/SpatialIndex by hand.
//
//   auto db = zdb::DB::Open("", {}).value();          // in-memory
//   auto db = zdb::DB::Open("/tmp/city.zdb").value(); // durable file
//
//   ObjectId id = db->Insert(Rect{.2, .2, .3, .25}).value();
//   auto hits = db->Window(Rect{.1, .1, .4, .4}).value();
//
//   WriteBatch batch;
//   batch.Insert(Rect{.5, .5, .6, .6});
//   batch.Erase(id);
//   auto ids = db->Apply(batch).value();              // durable on return
//   auto ids2 = db->Apply(batch2, Durability::kPublished);  // ack early
//
// Durability: a file-backed DB opens its rollback journal at
// `path + "-journal"` and runs the group-commit pipeline — mutations are
// published to readers immediately and made durable by a dedicated
// thread that coalesces batches into one fsync; Apply's Durability flag
// chooses whether the call waits for that fsync. With
// DBOptions::group_commit off, every batch is a group of one that its
// writer commits before returning, on the same path. Crash contract:
// published-but-not-durable batches roll back as a unit on the next
// Open, never partially. An in-memory DB has no journal by default
// (queries and batches behave as before); set
// DBOptions::memory_journal to get journaled crash-atomic batches and
// the group-commit pipeline on an in-memory file (tests, benches).
//
// Sharding: every DB owns N shard engines (each its own file, pager,
// buffer pool, index, epoch domain and group-commit pipeline) and
// routes every call itself; the default N = 1 is the degenerate
// partition, one engine that owns the whole keyspace, and runs the same
// code. DBOptions::shards > 1 partitions the z-order keyspace by
// top-level Morton prefix (shard/routing.h). Object ids are assigned by
// the DB, densely in op order, so an N-shard DB answers with exactly
// the ids a 1-shard DB would. Each insert is replicated into every
// shard whose prefix region its MBR overlaps, under the same oid; an
// in-memory per-oid owner-shard mask, rebuilt from the shard object
// stores on open and after a shard's group rollback, lets erases fan
// out to exactly the owning shards. Queries scatter to the overlapping
// shards and gather + dedup by oid. On disk the main path of a sharded
// DB holds a small manifest and shard i lives at `path + ".shard<i>"`;
// a one-shard DB is one classic file with no manifest. The stored
// layout wins on reopen, like stored index options. See DESIGN.md
// "Sharded partitions".
//
// Epochs: a single engine is its own global epoch domain, so a one-shard
// DB reports that engine's write epoch, waits on it exactly and lets a
// query report the epoch it pinned. With more engines there is no
// global pin: write_epoch() is the DB's batch counter and a query
// reports the write_epoch() bracket of its scatter.
//
// Writes and locking: every write (Apply, ApplyReplicated,
// InsertPolygon, BulkLoad) plans its routing, publishes on each involved
// shard in shard order and commits the routing bookkeeping under one
// write mutex, write_mu_; the commit sink is called under it too.
// write_mu_ -> epoch_mu_ (declared via ACQUIRED_AFTER); epoch_mu_ guards
// the per-shard published epochs and batch counters. Durability waits
// happen outside both locks, so concurrent kDurable writers overlap
// their fsyncs across the per-shard group-commit pipelines. One batch
// publishes atomically per shard but not across shards: a reader racing
// the fan-out can see it on one shard and not yet on another. Quiescent
// states are exact. A shard I/O failure mid-fan-out leaves the batch
// partially applied across shards and the routing bookkeeping
// unchanged; see DESIGN.md "Sharded partitions" for the recovery story.
//
// Every fallible entry point returns Status/Result<T> (common/status.h).

#ifndef ZDB_ZDB_DB_H_
#define ZDB_ZDB_DB_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/commit_sink.h"
#include "core/spatial_index.h"
#include "exec/executor.h"
#include "shard/engine.h"
#include "shard/routing.h"
#include "zdb/options.h"

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

/// Per-shard counters reported through DB::ShardStats()/server STATS;
/// DB::Stats() folds them.
struct ShardCounters {
  uint64_t objects = 0;        ///< live objects replicated to this shard
  uint64_t index_entries = 0;  ///< z-elements in this shard's B+-tree
  uint64_t write_epoch = 0;    ///< this shard's published epoch
  uint64_t durable_epoch = 0;  ///< this shard's fsynced epoch
  uint64_t journal_commits = 0;  ///< coalesced journal commits
  uint64_t batches = 0;        ///< sub-batches routed to this shard
  uint32_t pages = 0;          ///< pages in this shard's file
  uint64_t pinned_epochs = 0;  ///< snapshot pins currently open
  uint64_t pins_taken = 0;     ///< snapshot pins ever taken
  uint64_t gc_cycles = 0;      ///< epoch-GC reclamation passes run
  uint64_t page_versions = 0;  ///< before-image versions retained
  uint64_t version_bytes = 0;  ///< bytes held by those versions
  uint64_t versions_saved = 0;  ///< before-images ever saved
  uint64_t versions_reclaimed = 0;  ///< versions reclaimed by epoch GC
};

}  // namespace shard

/// Aggregate counters served by DB::Stats(). For a sharded DB the
/// storage counters (entries, pages, commits, versions) sum over the
/// shards, `objects` counts each object once (not per replica),
/// `write_epoch` is the DB's published-batch counter and
/// `durable_epoch` the most conservative (minimum) per-shard durable
/// epoch. Per-shard breakdowns come from DB::ShardStats().
struct DBStats {
  uint64_t objects = 0;        ///< live objects
  uint64_t index_entries = 0;  ///< z-elements stored in the B+-tree(s)
  double redundancy = 0.0;     ///< entries per object
  uint64_t write_epoch = 0;    ///< published writer sections / batches
  uint64_t durable_epoch = 0;  ///< highest epoch fsynced (journaled)
  uint64_t journal_commits = 0;  ///< durable batch commits (coalesced)
  uint32_t pages = 0;          ///< pages allocated in the file(s)
  uint32_t page_size = 0;
  bool group_commit = false;   ///< pipeline currently running
  uint32_t shards = 1;          ///< shard engines behind the facade
  uint64_t pinned_epochs = 0;   ///< snapshot pins currently open
  uint64_t pins_taken = 0;      ///< snapshot pins ever taken
  uint64_t page_versions = 0;   ///< before-image page versions retained
  uint64_t version_bytes = 0;   ///< bytes held by those versions
  uint64_t versions_saved = 0;  ///< before-images ever saved
  uint64_t versions_reclaimed = 0;  ///< versions reclaimed by epoch GC
  uint64_t gc_cycles = 0;       ///< epoch-GC reclamation passes run
};

class DB {
 public:
  /// Opens (or creates) a database. An empty path or ":memory:" gives an
  /// in-memory DB; anything else is a file path whose rollback journal
  /// lives at `path + "-journal"` (crash recovery runs here). A file
  /// that already holds a database is reopened with its stored index
  /// options and shard layout; otherwise it is created with
  /// `options.index` / `options.shards`.
  [[nodiscard]] static Result<std::unique_ptr<DB>> Open(const std::string& path,
                                          const DBOptions& options = {});

  /// Assembles a DB over engines the caller opened: one per shard, in
  /// shard order (1..64), routed by engine 0's stored index options.
  /// For tests and tools that open engines over their own File, such
  /// as a failure-injecting one. Rebuilds the routing state (oid cursor
  /// and owner masks) by scanning the engines' object stores.
  [[nodiscard]] static Result<std::unique_ptr<DB>> Open(
      std::vector<std::unique_ptr<shard::ShardEngine>> engines);

  /// Stops the group-commit pipeline(s) (draining pending durability)
  /// and tears the stack down.
  ~DB() = default;

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  // ------------------------------------------------------------- queries
  //
  // `epochs` (optional, on Window/Point/Nearest) receives the range of
  // write epochs the answer reflects (see EpochRange): first == last on
  // a one-shard DB.

  /// All live objects whose MBR intersects `window`.
  [[nodiscard]] Result<std::vector<ObjectId>> Window(
      const Rect& window, QueryStats* stats = nullptr,
      EpochRange* epochs = nullptr);

  /// All live objects containing `p` (exact geometry).
  [[nodiscard]] Result<std::vector<ObjectId>> Point(
      const zdb::Point& p, QueryStats* stats = nullptr,
      EpochRange* epochs = nullptr);

  /// All live objects fully inside `window`.
  [[nodiscard]] Result<std::vector<ObjectId>> Containment(const Rect& window,
                                            QueryStats* stats = nullptr);

  /// The k nearest objects to `p`, closest first.
  [[nodiscard]] Result<std::vector<std::pair<ObjectId, double>>> Nearest(
      const zdb::Point& p, size_t k, QueryStats* stats = nullptr,
      EpochRange* epochs = nullptr);

  // ------------------------------------------------------------- updates

  /// Single-object mutations. Insert and Erase are one-op batches,
  /// Apply(…, kPublished): acknowledged once readers can see them (with
  /// the pipeline running, durable asynchronously); use Apply with
  /// kDurable — or Checkpoint() — to block on durability.
  [[nodiscard]] Result<ObjectId> Insert(const Rect& mbr, uint32_t payload = 0);
  [[nodiscard]] Result<ObjectId> InsertPolygon(const Polygon& poly);
  [[nodiscard]] Status Erase(ObjectId oid);

  /// Bulk loads rectangles into an empty DB: assigns oids 0..n-1 and
  /// runs one bulk load per owning shard. A shard that receives every
  /// object loads `data` as it is; the others load staged copies.
  [[nodiscard]] Status BulkLoad(const std::vector<Rect>& data, double fill = 0.9);

  /// Applies `batch` atomically (per shard — see DESIGN.md "Sharded
  /// partitions" for the cross-shard visibility contract). kDurable
  /// (default) returns once the batch is fsynced on every involved
  /// shard; kPublished returns once readers can see it (the batch
  /// becomes durable asynchronously and rolls back as a unit if a
  /// crash beats the fsync). The DB assigns every inserted oid: an
  /// insert carrying WriteOp::preassigned fails with InvalidArgument on
  /// any shard count (only ApplyReplicated takes oids).
  [[nodiscard]] Result<std::vector<ObjectId>> Apply(
      const WriteBatch& batch, Durability durability = Durability::kDurable);

  // ----------------------------------------------------------- replication

  /// Attaches `sink` as this DB's commit sink (core/commit_sink.h): from
  /// now on every batch the DB publishes, through Apply or
  /// ApplyReplicated, is reported to OnCommit with resolved oids, under
  /// the write mutex, so sink callbacks observe strictly increasing
  /// epochs. Pass nullptr to detach. Fails if a different sink is
  /// already attached, and while a sink is attached InsertPolygon/
  /// BulkLoad are rejected (they have no batch representation to ship).
  /// The sink must stay alive until detached.
  [[nodiscard]] Status SetCommitSink(CommitSink* sink);

  /// Replays a leader-resolved batch on a follower replica: every insert
  /// carries its leader-assigned oid in WriteOp::preassigned, which is
  /// what keeps replica object ids byte-identical to the leader's. That
  /// oid must be this DB's next one (Corruption otherwise).
  /// Publish-time semantics (durability follows asynchronously through
  /// the group-commit pipeline, exactly like the leader's own commit).
  [[nodiscard]] Result<std::vector<ObjectId>> ApplyReplicated(
      const WriteBatch& batch);

  // ---------------------------------------------------------- durability

  /// Makes everything written so far durable: waits out the journaled
  /// commit path(s). No-op-ish for an unjournaled in-memory DB (state is
  /// checkpointed so Stats()/reopen paths stay coherent).
  [[nodiscard]] Status Checkpoint();

  /// Blocks until `epoch` is durable (see SpatialIndex::WaitDurable;
  /// OK at once on an unjournaled DB). timeout_ms 0 waits indefinitely.
  /// A one-shard DB waits for exactly `epoch`; a sharded DB waits on
  /// every shard's published epoch as of the call (conservative for
  /// older epochs).
  [[nodiscard]] Status WaitDurable(uint64_t epoch, uint64_t timeout_ms = 0);

  // ------------------------------------------------------------ plumbing

  DBStats Stats() const;

  /// Per-shard counter breakdown (one entry for a single-shard DB).
  std::vector<shard::ShardCounters> ShardStats() const;

  uint32_t shards() const { return routing_.shards(); }

  /// The DB's write epoch: a single engine's own epoch (which also moves
  /// on its group rollbacks), else the published-batch counter, bumped
  /// once per successful write fan-out.
  uint64_t write_epoch() const {
    return sole_ != nullptr ? sole_->write_epoch()
                            : epoch_.load(std::memory_order_acquire);
  }

  /// Distinct live objects (each counted once, not per replica). After
  /// a shard's group rollback it first rebuilds the routing state.
  uint64_t object_count() const;

  /// Shard 0's build counters (exact for a single-shard DB; for a
  /// sharded DB use Stats(), which aggregates).
  IndexBuildStats build_stats() const;

  /// Cumulative page I/O counters, summed over every shard's pager.
  IoStats io_stats() const;

  /// Benchmarking aid: simulated per-page-read device latency on every
  /// shard (see Pager::set_simulated_read_latency_us).
  void set_simulated_read_latency_us(uint32_t us);

  /// Benchmarking aid: drops every clean cached page on every shard so
  /// the next query runs against a cold cache. Fails if dirty or pinned
  /// pages would be lost — checkpoint first.
  [[nodiscard]] Status ClearCache();

  /// A query executor driving this DB's shard engines over `threads`
  /// workers: its ParallelWindowQuery scatter-gathers across the shards
  /// (parallelizing across shards before slicing within them). The
  /// executor must not outlive the DB.
  std::unique_ptr<QueryExecutor> NewExecutor(size_t threads);

  /// Shard 0's index — the escape hatch for diagnostics
  /// (LevelHistogram, btree stats). It is the whole engine of a
  /// one-shard DB and only shard 0's slice of a sharded one. Writes
  /// must go through the DB: its oid cursor and owner masks would not
  /// see a write made on the index directly.
  SpatialIndex* index() { return indexes_[0]; }

 private:
  DB(std::vector<std::unique_ptr<shard::ShardEngine>> engines,
     shard::ShardRouting routing);

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
    /// Per shard: the epoch its part published, the durability wait
    /// target (a batch's own epoch from ApplyBatch; the engine's write
    /// epoch after a polygon insert or bulk load).
    std::vector<uint64_t> wait_epochs;
  };

  /// The one write path of Apply and ApplyReplicated: plans, fans out
  /// and reports the batch to the sink under write_mu_, then waits for
  /// durability outside it.
  Result<std::vector<ObjectId>> ApplyRouted(const WriteBatch& batch,
                                            Durability durability,
                                            bool replicated)
      EXCLUDES(write_mu_);
  /// Routes and validates `batch` into per-shard sub-batches. Inserts
  /// take their oid from the DB cursor. Only a `replicated` insert
  /// carries a WriteOp::preassigned oid, the leader's, which must equal
  /// it.
  Status PlanBatchLocked(const WriteBatch& batch, bool replicated,
                         RoutePlan* plan) REQUIRES(write_mu_);
  /// Publishes the sub-batches shard by shard, then commits the plan.
  Status FanOutLocked(RoutePlan* plan) REQUIRES(write_mu_)
      EXCLUDES(epoch_mu_);
  /// Commits a published plan's bookkeeping: oid cursor, owner masks,
  /// live count, per-shard epochs and batch counters, DB epoch.
  void CommitPlanLocked(const RoutePlan& plan) REQUIRES(write_mu_)
      EXCLUDES(epoch_mu_);
  /// Rebuilds the routing state from the shard object stores.
  Status RecoverStateLocked() REQUIRES(write_mu_);
  /// Runs RecoverStateLocked if a shard rolled a group back since the
  /// last rebuild: the rollback dropped published writes that masks_,
  /// next_oid_ and the live count still hold. Every write calls it
  /// first. A rollback that races a write is seen by the next one.
  Status ResyncLocked() REQUIRES(write_mu_);
  /// Sum of the engines' rollbacks(); it moves on every group rollback.
  uint64_t RollbackCount() const;
  /// Runs `query(pinned)` and fills the optional `epochs` (see the
  /// header comment); `pinned` is non-null only for a single engine.
  template <typename Query>
  auto WithEpochs(EpochRange* epochs, Query query) const;
  /// The window-shaped scatter: runs `query(index)` on every shard
  /// whose prefix region `window` overlaps and gathers the id lists.
  template <typename Query>
  Result<std::vector<ObjectId>> ScatterRect(const Rect& window,
                                            QueryStats* stats,
                                            Query query) const;
  /// Nearest's best-first frontier over several shards.
  Result<std::vector<std::pair<ObjectId, double>>> ScatterNearest(
      const zdb::Point& p, size_t k, QueryStats* stats) const;

  const std::vector<std::unique_ptr<shard::ShardEngine>> engines_;
  const shard::ShardRouting routing_;
  std::vector<SpatialIndex*> indexes_;  ///< borrowed from engines_
  /// The one engine of a one-shard DB, else nullptr: only a single
  /// engine's epochs are the DB's.
  SpatialIndex* sole_ = nullptr;

  /// Serializes every write. Routing state: global oid cursor and
  /// per-oid owner-shard masks (mask 0 = never inserted or erased).
  mutable Mutex write_mu_;
  ObjectId next_oid_ GUARDED_BY(write_mu_) = 0;
  std::vector<uint64_t> masks_ GUARDED_BY(write_mu_);
  CommitSink* sink_ GUARDED_BY(write_mu_) = nullptr;
  /// RollbackCount() as of the last routing-state rebuild; written
  /// under write_mu_, read without it by object_count().
  std::atomic<uint64_t> rollbacks_seen_{0};

  /// Per-shard publish bookkeeping; epoch_mu_ is a leaf below write_mu_
  /// so ShardStats and WaitDurable can read it without blocking writers
  /// for the whole fan-out.
  mutable Mutex epoch_mu_ ACQUIRED_AFTER(write_mu_);
  std::vector<uint64_t> shard_epochs_ GUARDED_BY(epoch_mu_);
  std::vector<uint64_t> shard_batches_ GUARDED_BY(epoch_mu_);

  std::atomic<uint64_t> epoch_{0};       ///< published-batch counter
  std::atomic<uint64_t> live_count_{0};  ///< distinct live objects
};

}  // namespace zdb

#endif  // ZDB_ZDB_DB_H_
