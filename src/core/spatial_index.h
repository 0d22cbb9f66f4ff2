// Copyright (c) zdb authors. Licensed under the MIT license.
//
// SpatialIndex: the public API of the reproduction. A redundant z-order
// spatial index per Orenstein (SIGMOD 1989): objects are decomposed into
// z-elements (decompose/), the (element, oid) pairs are stored in a
// B+-tree (btree/), exact geometry lives in an object store, and queries
// run filter-and-refine over z-interval scans plus enclosing-element
// probes.
//
// Typical use:
//
//   auto pager = Pager::OpenInMemory(512);
//   BufferPool pool(pager.get(), 128);
//   SpatialIndexOptions opt;
//   opt.data = DecomposeOptions::SizeBound(8);
//   auto index = SpatialIndex::Create(&pool, opt).value();
//   ObjectId id = index->Insert(Rect{.2, .2, .3, .25}).value();
//   auto hits = index->WindowQuery(Rect{.1, .1, .4, .4}).value();
//
// Concurrency: the index is safe for any mix of concurrent readers and
// writers. Readers take no lock; writers take one. Mutations (Insert/
// InsertPolygon/Erase/BulkLoad/ApplyBatch/Checkpoint) serialize on an
// internal mutex and publish each mutation — in particular the
// multi-key publication of one object's whole z-element set — to
// readers all-or-nothing, as a new write epoch. ApplyBatch() extends
// that guarantee to a whole batch of mutations (and makes the batch
// crash-atomic on the journaled commit path, StartGroupCommit()).
//
// Snapshot reads: every query (WindowQuery/PointQuery/ContainmentQuery/
// EnclosureQuery/NearestNeighbors) and the diagnostic reads
// (LevelHistogram, DistanceTo, build_stats, level_mask) pin the current
// write epoch (EpochPin, core/epoch.h) and traverse copy-on-write
// before-image version chains (storage/snapshot.h) at that epoch, so a
// long scan never blocks a writer and a sustained write stream never
// blocks readers. Create() and Open() arm this: they record the first
// pinned-readable epoch, arm copy-on-write in the buffer pool and start
// the version GC thread. The *At query variants run several queries
// against one explicitly pinned epoch — repeated reads at one pin are
// byte-stable. The GC thread reclaims superseded versions once the
// lowest pinned epoch passes them. See DESIGN.md "Snapshot reads & epoch
// GC". SpatialJoin, an analytic whole-index scan, holds both indexes'
// writer mutex instead and reads the live pages. The version chains
// belong to the buffer pool and are tagged with the index's epochs, so
// indexes that share a pool (e.g. both sides of a join) must not write
// while another one's pinned reads are in flight.

#ifndef ZDB_CORE_SPATIAL_INDEX_H_
#define ZDB_CORE_SPATIAL_INDEX_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/epoch.h"
#include "core/object_store.h"
#include "core/options.h"
#include "core/polygon_store.h"
#include "core/stats.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "zorder/zelement.h"

namespace zdb {

/// The exact predicate a query answers. The filter tests it on the MBRs
/// replicated into the leaves (store_mbr_in_leaf), refinement on each
/// candidate's record and, for a polygon, its exact ring.
enum class QueryPredicate : uint8_t {
  kIntersects,     ///< objects intersecting the window
  kContainsPoint,  ///< objects containing the point (point)
  kInside,         ///< objects inside the window (containment)
  kEncloses,       ///< objects enclosing the window (enclosure)
};

/// Filter-stage plan of one query: the ancestor probes and z-interval
/// scans the filter will run. Work items are indexed [0, probes.size())
/// for probes, then [probes.size(), work_items()) for scans; any
/// partition of that index range executes the same entry set (see
/// ExecuteWindowPlanSlice). A point query's plan holds only probes, one
/// per level present in the index, coarsest first.
struct WindowPlan {
  QueryPredicate predicate = QueryPredicate::kIntersects;
  /// World-space query window; a point query's degenerate rect at the
  /// point.
  Rect window;
  GridRect qgrid;                ///< window mapped onto the grid
  std::vector<ZElement> probes;  ///< enclosing-element probes
  std::vector<ZElement> scans;   ///< query elements (interval scans)

  size_t work_items() const { return probes.size() + scans.size(); }
};

/// Sentinel for WriteOp::preassigned: let the object store assign the
/// next dense oid (the default, and the only mode single-engine callers
/// use).
inline constexpr ObjectId kNoPreassignedOid = 0xFFFFFFFFu;

/// One mutation of a write batch (see WriteBatch / ApplyBatch).
struct WriteOp {
  enum class Kind : uint8_t { kInsert, kErase };
  Kind kind = Kind::kInsert;
  Rect mbr;              ///< kInsert: the object's MBR
  uint32_t payload = 0;  ///< kInsert: opaque application reference
  ObjectId oid = 0;      ///< kErase: the object to remove
  /// kInsert: store the object under this caller-chosen oid instead of
  /// the store's append cursor. Used by zdb::DB, which assigns
  /// global oids and replicates one object into every overlapping
  /// shard engine under the same id, and by replicas replaying a
  /// leader's oids. zdb::DB::Apply rejects it.
  ObjectId preassigned = kNoPreassignedOid;
};

/// When a batch is acknowledged to the caller (see
/// SpatialIndex::ApplyBatch / zdb::DB::Apply / net::Client::Apply).
/// kDurable waits until the batch's group is committed to the journaled
/// file; kPublished returns as soon as readers can see it. On the
/// group-commit pipeline a kPublished batch becomes durable
/// asynchronously, and a crash before that rolls it back as a unit
/// (never partially). With group commit off, every batch is a group of
/// one that commits before the call returns, so both values wait. An
/// index without a journaled commit path ignores the value: its caller
/// owns durability.
enum class Durability : uint8_t {
  kDurable = 0,
  kPublished = 1,
};

/// An ordered batch of inserts and erases applied atomically by
/// SpatialIndex::ApplyBatch(): concurrent readers observe either none or
/// all of its effects, and on a journaled commit path a crash before the
/// batch's group commits rolls the whole batch back on reopen.
struct WriteBatch {
  std::vector<WriteOp> ops;

  void Insert(const Rect& mbr, uint32_t payload = 0) {
    ops.push_back({WriteOp::Kind::kInsert, mbr, payload, 0});
  }
  /// Insert under a caller-chosen oid (see WriteOp::preassigned).
  void InsertWithOid(const Rect& mbr, ObjectId oid, uint32_t payload = 0) {
    ops.push_back({WriteOp::Kind::kInsert, mbr, payload, 0, oid});
  }
  void Erase(ObjectId oid) {
    ops.push_back({WriteOp::Kind::kErase, Rect{}, 0, oid});
  }
  size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }
};

class SpatialIndex {
 public:
  /// Creates an empty index whose pages come from `pool`.
  static Result<std::unique_ptr<SpatialIndex>> Create(
      BufferPool* pool, const SpatialIndexOptions& options);

  /// Re-attaches an index previously persisted with Checkpoint() in the
  /// same paged file. The stored options are restored verbatim.
  static Result<std::unique_ptr<SpatialIndex>> Open(BufferPool* pool,
                                                    PageId master_page);

  /// Stops the group-commit pipeline (draining pending durability work)
  /// if it is running, stops the version GC and drops the pool's
  /// version chains.
  ~SpatialIndex();

  /// Persists the index state (options, B+-tree meta, store directories,
  /// counters) and returns the master page id to pass to Open(). The
  /// master page is allocated on the first call and reused afterwards.
  /// Call BufferPool::FlushAll() / Pager::Sync() afterwards for
  /// durability.
  Result<PageId> Checkpoint();

  // ------------------------------------------------------------- updates

  /// Inserts an object by MBR; returns its id. `payload` is an opaque
  /// application reference carried in the object record.
  Result<ObjectId> Insert(const Rect& mbr, uint32_t payload = 0);

  /// Inserts a simple polygon. The exact ring is persisted in the
  /// polygon store and the *polygon itself* (not its MBR) is decomposed
  /// into z-elements; queries refine against the exact geometry.
  /// Incompatible with store_mbr_in_leaf (the leaf MBR cannot refine a
  /// polygon). `preassigned` stores the ring under a caller-chosen oid
  /// (shard replication); leave defaulted otherwise.
  Result<ObjectId> InsertPolygon(const Polygon& poly,
                                 ObjectId preassigned = kNoPreassignedOid);

  /// Removes an object: deletes all its index entries and tombstones the
  /// object record.
  Status Erase(ObjectId oid);

  /// Bulk loads rectangles into an empty index: objects are appended to
  /// the object store, all (element, oid) entries are generated and
  /// sorted, and the B+-tree is built bottom-up at `fill` leaf
  /// occupancy. Far cheaper than n inserts and yields a denser tree.
  /// `oids`, when non-null, must parallel `data` and assigns each
  /// rectangle its global object id (shard engines load a routed subset
  /// of a global data set); ids must be unique but may be sparse.
  Status BulkLoad(const std::vector<Rect>& data, double fill = 0.9,
                  const std::vector<ObjectId>* oids = nullptr);

  /// Applies `batch` as one writer section: concurrent readers see either
  /// the full pre-batch or the full post-batch state, never a partially
  /// applied batch (and never a partial z-element set of any object).
  /// Returns the ids of the inserted objects, in op order. A batch that
  /// validates empty is a no-op: nothing is applied, checkpointed or
  /// published, and the write epoch is unchanged.
  ///
  /// The batch is applied and *published* in a writer section with no
  /// durability I/O inside. On a journaled commit path
  /// (StartGroupCommit()) the commit — checkpoint, flush, journal fsync —
  /// then runs after the section: on the pipeline thread, which coalesces
  /// consecutively published batches into one commit and completes
  /// waiters in epoch order (`durability` picks whether the call waits),
  /// or, with the pipeline off, inline on this thread as a group of one
  /// before the call returns. Crash contract: published-but-not-durable
  /// batches roll back as a unit on recovery, never partially. Without a
  /// commit path the batch is only published and the caller owns
  /// durability (e.g. a caller-managed pager batch, or Checkpoint() +
  /// flush + sync).
  ///
  /// Failure semantics: the batch is validated up front (invalid MBRs,
  /// erases of unknown, dead or batch-duplicated oids), so predictable
  /// errors reject the whole batch with nothing applied — note this
  /// means an erase must reference an object that existed before the
  /// batch. A residual failure (I/O error) while applying or committing
  /// rolls the whole armed group back: the pager batch is aborted and
  /// the index reloaded from the last durable group boundary, so memory
  /// and disk agree again; earlier published-but-not-durable batches
  /// roll back with it and their durability waiters get the error.
  /// Without a commit path such a failure can leave a partially applied
  /// batch in memory — the caller's outer rollback (crash or reopen) is
  /// then the recovery path. After the commit path has stopped
  /// (journal re-arm or rollback failure), every write fails with
  /// Unavailable.
  ///
  /// `epoch` (optional) receives the write epoch the batch published,
  /// read under the writer lock: the exact target for a later
  /// WaitDurable. write_epoch() read after the call may already name a
  /// group rollback's re-publish, which reads as durable although the
  /// batch was rolled back.
  Result<std::vector<ObjectId>> ApplyBatch(
      const WriteBatch& batch, Durability durability = Durability::kDurable,
      uint64_t* epoch = nullptr);

  // ------------------------------------------------------- group commit
  //
  // The journaled commit path: mutations publish in-memory state in a
  // writer section, and the checkpoint + flush + journal commit runs
  // after it. Readers take no lock, so they never wait out an fsync.
  // The pager batch (rollback journal) is kept permanently armed; its
  // before-images always describe the last durable group boundary, which
  // is what makes whole published-but-not-durable batches roll back as a
  // unit on crash.

  /// Arms the journaled commit path. Requires a journaled pager with no
  /// caller-managed batch active. The current state is made durable
  /// first (it becomes the initial group boundary), then the journal is
  /// armed. With `pipeline` (the default) a dedicated thread commits
  /// groups: single-op mutations (Insert/InsertPolygon/Erase/BulkLoad)
  /// are acknowledged at publish time and made durable asynchronously;
  /// use ApplyBatch(…, kDurable) or WaitDurable() to block on
  /// durability. Without it every mutation is a group of one that its
  /// writer commits inline, still holding commit_mu_, before returning.
  Status StartGroupCommit(bool pipeline = true);

  /// Drains pending durability work, commits the armed journal batch and
  /// joins the durability thread; the index is unarmed afterwards. Safe
  /// to call when not running. Called by the destructor.
  Status StopGroupCommit();

  /// True while the group-commit pipeline thread is running (false for
  /// inline groups of one).
  bool group_commit_active() const {
    return commit_path() == CommitPath::kPipeline;
  }

  /// Highest write epoch whose effects are durable on disk (advanced by
  /// the commit path; 0 before StartGroupCommit).
  uint64_t durable_epoch() const;

  /// Blocks until epoch `epoch` is durable (OK), rolled back (the
  /// rollback cause), or — with nonzero `timeout_ms` — the deadline
  /// expires (TimedOut). Returns Unavailable for an epoch the commit
  /// path can no longer make durable: it stopped after a journal
  /// failure, or a shutdown commit failed. An index that was never
  /// armed has no durability of its own to wait for (its caller owns
  /// it): OK at once.
  Status WaitDurable(uint64_t epoch, uint64_t timeout_ms = 0);

  /// Test hook: pauses/resumes the durability thread. While paused,
  /// published batches accumulate in the armed journal batch and
  /// coalesce into a single commit on resume.
  void SetGroupCommitPaused(bool paused);

  // ------------------------------------------------------- concurrency

  /// Number of committed writer sections (single mutations count one,
  /// ApplyBatch counts one per batch). Monotonic; published with release
  /// order inside the writer section, so a reader that loads epoch e
  /// before a query and e' after it observed the index at some single
  /// epoch in [e, e'] — the hook the stress harness uses to cross-check
  /// concurrent answers against per-epoch oracles.
  uint64_t write_epoch() const {
    return write_epoch_.load(std::memory_order_acquire);
  }

  /// Group rollbacks run so far. Each one reloads the index from its
  /// last durable group, dropping every write published after it.
  uint64_t rollbacks() const {
    return rollbacks_.load(std::memory_order_acquire);
  }

  // ------------------------------------------------------ snapshot reads
  //
  // Epoch-pinned reads are the only read path of the queries: queries
  // at a pinned epoch resolve pages through before-image version chains
  // and take no lock, so they cannot stall writers (and writers cannot
  // tear them). Writers serialize through commit_mu_; on every publish
  // they capture a SnapshotMeta (root, directories, counters) for the
  // new epoch and the buffer pool saves pre-batch page images on first
  // mutation.

  /// Pins the current write epoch for explicit multi-query snapshot
  /// reads (the *At variants below). Holding a pin never blocks writers
  /// — it only delays version reclamation.
  EpochPin PinEpoch() const;

  /// Scoped thread-local snapshot context: while alive, every read this
  /// thread makes through this index (including the plan hooks)
  /// resolves at the scope's epoch. Obtained from
  /// OpenSnapshot(); destroy on the creating thread, strictly nested.
  /// Construction briefly blocks while a failed-batch reload is in
  /// progress (the quiesce barrier); it never blocks on writers
  /// otherwise, and takes no lock.
  class SnapshotReadScope {
   public:
    ~SnapshotReadScope();
    SnapshotReadScope(const SnapshotReadScope&) = delete;
    SnapshotReadScope& operator=(const SnapshotReadScope&) = delete;

    uint64_t epoch() const { return epoch_; }

   private:
    friend class SpatialIndex;
    /// Counts the read in flight, then resolves `pin`'s meta; installs
    /// the view only if that succeeded (see status()).
    SnapshotReadScope(const SpatialIndex* ix, const EpochPin& pin);

    /// OK, or why the pinned epoch cannot be read (rolled back).
    const Status& status() const { return status_; }

    const SpatialIndex* ix_;
    uint64_t epoch_;
    Status status_;
    /// Engaged when status_ is OK; optional because the TLS installer
    /// must be constructed after the quiesce-barrier wait and the meta
    /// check in the constructor body.
    std::optional<SnapshotScope> scope_;
  };

  /// Opens a snapshot context at `pin`'s epoch on the calling thread.
  /// The pin must come from this index's PinEpoch() and must stay held
  /// for the scope's lifetime. Fails with Aborted if the pinned epoch
  /// was rolled back by a failed group commit (re-pin and retry).
  /// Used by callers of the plan hooks below; single queries use the
  /// *At variants instead.
  Result<std::unique_ptr<SnapshotReadScope>> OpenSnapshot(
      const EpochPin& pin) const;

  /// The queries below at an explicitly pinned epoch. All reads at one
  /// pin observe the single committed state of that epoch, stable
  /// across arbitrarily many re-reads and concurrent writer churn.
  /// They fail with Aborted if the pinned epoch was rolled back.
  Result<std::vector<ObjectId>> WindowQueryAt(const EpochPin& pin,
                                              const Rect& window,
                                              QueryStats* stats = nullptr);
  Result<std::vector<ObjectId>> PointQueryAt(const EpochPin& pin,
                                             const Point& p,
                                             QueryStats* stats = nullptr);
  Result<std::vector<ObjectId>> ContainmentQueryAt(
      const EpochPin& pin, const Rect& window, QueryStats* stats = nullptr);
  Result<std::vector<ObjectId>> EnclosureQueryAt(const EpochPin& pin,
                                                 const Rect& window,
                                                 QueryStats* stats = nullptr);
  Result<std::vector<std::pair<ObjectId, double>>> NearestNeighborsAt(
      const EpochPin& pin, const Point& p, size_t k,
      QueryStats* stats = nullptr, uint32_t* rounds = nullptr);

  /// Pin / version-chain counters.
  EpochStats epoch_stats() const;
  PageVersionStats version_stats() const;

  /// The manager backing PinEpoch(). Exposed for tests that drive
  /// reclamation deterministically (EpochManager::RunGcCycle).
  EpochManager* epochs() const { return epoch_mgr_.get(); }

  // ------------------------------------------------------------- queries
  //
  // `epoch` (optional, on WindowQuery/PointQuery/NearestNeighbors)
  // receives the write epoch whose committed state the answer reflects:
  // the epoch the query pinned.

  /// All live objects whose MBR intersects `window`.
  Result<std::vector<ObjectId>> WindowQuery(const Rect& window,
                                            QueryStats* stats = nullptr,
                                            uint64_t* epoch = nullptr);

  /// All live objects whose MBR contains `p`.
  Result<std::vector<ObjectId>> PointQuery(const Point& p,
                                           QueryStats* stats = nullptr,
                                           uint64_t* epoch = nullptr);

  /// All live objects whose MBR is fully inside `window` ("containment").
  Result<std::vector<ObjectId>> ContainmentQuery(const Rect& window,
                                                 QueryStats* stats = nullptr);

  /// All live objects whose MBR encloses `window` ("enclosure").
  Result<std::vector<ObjectId>> EnclosureQuery(const Rect& window,
                                               QueryStats* stats = nullptr);

  /// The k nearest objects to `p` by exact geometry distance (0 when the
  /// point is inside the object), closest first; ties at equal distance
  /// in oid order. Implemented as a best-first search over the z-order
  /// quadtree (core/knn.cc): cells by MINDIST, then objects by a lower
  /// bound, then by exact distance, fetching a record only when its
  /// bound reaches the heap top. `stats` counts cells expanded
  /// (query_elements), own-entry probes (ancestor_probes), entries read
  /// (index_entries), entries pushed (candidates) and records fetched
  /// (unique_candidates). `rounds` (optional) reports 1 for a search
  /// that reads the index, 0 for k = 0 or an empty index.
  Result<std::vector<std::pair<ObjectId, double>>> NearestNeighbors(
      const Point& p, size_t k, QueryStats* stats = nullptr,
      uint32_t* rounds = nullptr, uint64_t* epoch = nullptr);

  // ------------------------------------------------------ plan hooks
  //
  // The filter stage of WindowQuery, exposed in three steps so a caller
  // can time each layer of one query (zdb-bench's layer replay does):
  // plan once, execute work-item slices (each slice deduplicates
  // locally; a caller that splits the range merges and deduplicates),
  // then refine the candidates. Every call must run under a snapshot
  // scope of this index open on the calling thread (OpenSnapshot); a
  // call without one fails with InvalidArgument. One EpochPin shared by
  // all the scopes of one query makes the plan, its slices and the
  // refinement observe one committed epoch, also when several threads
  // each open their own scope under that pin.

  /// Builds the probe/scan plan for a window query.
  Result<WindowPlan> PlanWindow(const Rect& window);

  /// Executes plan work items [begin, end) and returns the candidate
  /// object ids (locally deduplicated, sorted). In store_mbr_in_leaf mode
  /// the replicated MBRs are tested against the plan's window.
  Result<std::vector<ObjectId>> ExecuteWindowPlanSlice(const WindowPlan& plan,
                                                       size_t begin,
                                                       size_t end,
                                                       QueryStats* stats);

  /// Refines window-query candidates against exact geometry (a no-op
  /// pass-through in store_mbr_in_leaf mode, where the filter already
  /// tested the replicated MBR). Preserves candidate order.
  Result<std::vector<ObjectId>> RefineWindowCandidates(
      const Rect& window, std::vector<ObjectId> candidates,
      QueryStats* stats);

  // ------------------------------------------------------------ plumbing

  const SpatialIndexOptions& options() const { return options_; }
  const SpaceMapper& mapper() const { return mapper_; }
  BTree* btree() { return btree_.get(); }
  ObjectStore* objects() { return store_.get(); }
  PolygonStore* polygons() { return polys_.get(); }
  BufferPool* pool() { return pool_; }

  /// Fetches an object's exact geometry distance to a point: 0 inside,
  /// Euclidean otherwise. Polygon objects use their exact ring. Reads
  /// the current epoch's snapshot.
  Result<double> DistanceTo(ObjectId oid, const Point& p);

  /// Build counters of the current epoch (read from its snapshot meta
  /// under a pin, so safe beside writers).
  IndexBuildStats build_stats() const;

  /// Bitmask of element levels present in the index at the current
  /// epoch (bit L set if some entry was inserted at level L).
  /// Conservative: never cleared. Read like build_stats().
  uint64_t level_mask() const;

  /// Exact per-level entry counts (index 0 = whole-space element, up to
  /// 2 * grid_bits) at the current epoch. Scans the whole index;
  /// diagnostics/analysis use.
  Result<std::vector<uint64_t>> LevelHistogram();

  /// Live objects (inserted minus erased) at the current epoch, read
  /// like build_stats(): a reader that has seen write_epoch() reach e
  /// gets a count that includes every batch up to e.
  uint64_t object_count() const;

 private:
  friend Result<std::vector<std::pair<ObjectId, ObjectId>>> SpatialJoin(
      SpatialIndex* a, SpatialIndex* b, JoinStats* stats);

  SpatialIndex(BufferPool* pool, const SpatialIndexOptions& options)
      : pool_(pool),
        options_(options),
        mapper_(options.world, options.grid_bits) {}

  // Writer bodies (suffix "Locked": they REQUIRE commit_mu_). The public
  // wrappers take it, open a WriterSection and publish the write epoch,
  // and internal callers (ApplyBatch) compose the bodies without
  // re-acquiring. The read bodies further down hold nothing and carry
  // no suffix.
  Result<ObjectId> InsertLocked(const Rect& mbr, uint32_t payload,
                                ObjectId preassigned = kNoPreassignedOid)
      REQUIRES(commit_mu_);
  Result<ObjectId> InsertPolygonLocked(const Polygon& poly,
                                       ObjectId preassigned =
                                           kNoPreassignedOid)
      REQUIRES(commit_mu_);
  /// Erases live object `oid`, whose record `rec` the caller fetched.
  Status EraseLocked(ObjectId oid, const ObjectRecord& rec)
      REQUIRES(commit_mu_);

  /// An object's data-side z-elements and their dead-space error.
  struct ObjectElements {
    std::vector<ZElement> elements;
    double error = 0.0;
  };
  /// The one rule for an object's index entries: Decompose of its MBR's
  /// grid rectangle, or — `poly` set — DecomposeRegion of its ring.
  /// Insert, erase and bulk load all call it, so every live object's
  /// entries are exactly DecomposeObject(object).
  ObjectElements DecomposeObject(const Rect& mbr, const Polygon* poly) const;
  /// One index entry: (z-key, leaf value).
  using LeafEntry = std::pair<std::string, std::string>;
  /// Inserts object `oid`'s entries — into the tree, or appended to
  /// *staged for a bulk load to sort and build — and counts the object:
  /// level mask, build stats, live count. The leaf value is the encoded
  /// MBR in store_mbr_in_leaf mode, else empty.
  Status IndexObjectLocked(ObjectId oid, const Rect& mbr, const Polygon* poly,
                           std::vector<LeafEntry>* staged)
      REQUIRES(commit_mu_);
  /// Body of BulkLoad; sets *mutated once the first page is touched.
  Status BulkLoadLocked(const std::vector<Rect>& data, double fill,
                        const std::vector<ObjectId>* oids, bool* mutated)
      REQUIRES(commit_mu_);
  /// Checkpoints serialize against the group-commit thread through
  /// commit_mu_.
  Result<PageId> CheckpointLocked() REQUIRES(commit_mu_);

  /// Rejects a batch whose ops would fail mid-application: invalid
  /// insert MBRs, erases of unknown/dead oids, duplicate erases. Reads
  /// only; nothing is applied. Appends the record of every erased
  /// object to *records, in op order, so the apply step need not fetch
  /// it again.
  Status ValidateBatchLocked(const WriteBatch& batch,
                             std::vector<ObjectRecord>* records)
      REQUIRES(commit_mu_);

  /// Applies a validated batch's ops in order, taking each erase's
  /// record from `erased` (ValidateBatchLocked's) and appending inserted
  /// oids to *inserted; stops at the first failure (possibly mid-batch —
  /// the caller owns rollback). Split out of ApplyBatch so the loop is a
  /// checkable function instead of a lambda (the analysis does not
  /// propagate locksets into lambdas).
  Status ApplyOpsLocked(const WriteBatch& batch,
                        const std::vector<ObjectRecord>& erased,
                        std::vector<ObjectId>* inserted) REQUIRES(commit_mu_);

  /// Re-reads the dynamic index state (B+-tree meta, store directories,
  /// counters) from the master page after Pager::AbortBatch rolled the
  /// file back to the pre-batch checkpoint, discarding the buffer-pool
  /// cache first. Quiesces in-flight snapshot reads before touching
  /// anything (EpochManager::BeginQuiesce). Defined in core/persist.cc.
  Status ReloadLocked() REQUIRES(commit_mu_);
  /// ReloadLocked's body, run between the quiesce brackets.
  Status ReloadUnquiescedLocked() REQUIRES(commit_mu_);

  // Read bodies. They take no lock: they run under a snapshot scope of
  // this index (ReadAt), and read the live writer state only through the
  // view-aware tree/store/pool paths and ViewMeta() — the analysis
  // rejects a read body that touches a commit_mu_-guarded field.

  /// Every query kind: plan, filter, refine — exactly the steps the plan
  /// hooks expose. Defined in core/query.cc.
  Result<std::vector<ObjectId>> RunQuery(QueryPredicate predicate,
                                         const Rect& window,
                                         QueryStats* stats);
  /// kNN's best-first search over the z-order quadtree (core/knn.cc).
  Result<std::vector<std::pair<ObjectId, double>>> BestFirstSearch(
      const Point& p, size_t k, QueryStats* stats, uint32_t* rounds);
  /// Exact geometry distance of one record's object to a point
  /// (core/knn.cc).
  Result<double> ExactDistance(const ObjectRecord& rec, const Point& p);

  /// Bumps the published write epoch; call at the end of a successful
  /// writer section. First records the post-batch SnapshotMeta under the
  /// new epoch — readers that pin the bumped epoch immediately
  /// afterwards must already find its meta.
  void PublishWrite() REQUIRES(commit_mu_) {
    epoch_mgr_->RecordMeta(write_epoch_.load(std::memory_order_relaxed) + 1,
                           CaptureMetaLocked());
    write_epoch_.fetch_add(1, std::memory_order_release);
  }

  // ----------------------------- snapshot reads (core/snapshot_read.cc)

  /// Arms the read path on a freshly created or opened index: captures
  /// the current state as the first pinned-readable epoch, arms
  /// copy-on-write in the buffer pool and starts the version GC thread.
  /// Called once, by Create() and Open().
  void StartSnapshots();

  /// Fails with InvalidArgument unless the calling thread has a
  /// snapshot scope of this index open (the plan hooks' contract).
  Status CheckSnapshotScope() const;

  /// Runs `at(pin)` under a fresh pin of the current epoch and reports
  /// the pinned epoch through `epoch_out` (optional). A pin can race a
  /// group rollback that invalidates its epoch (rare: I/O failure); the
  /// query then re-pins — the re-published epoch is always valid — and
  /// retries, at most twice.
  template <typename AtCall>
  auto PinnedQuery(uint64_t* epoch_out, const AtCall& at)
      -> decltype(at(std::declval<const EpochPin&>())) {
    for (int attempt = 0;; ++attempt) {
      const EpochPin pin = PinEpoch();
      auto r = at(pin);
      if (r.ok() || !r.status().IsAborted() || attempt >= 2) {
        if (epoch_out != nullptr) *epoch_out = pin.epoch();
        return r;
      }
    }
  }

  /// Runs `body()` under a snapshot scope at `pin`'s epoch, opened on
  /// the stack (no allocation); fails with the scope's status when the
  /// pinned epoch cannot be read.
  template <typename Body>
  auto ReadAt(const EpochPin& pin, const Body& body) -> decltype(body()) {
    SnapshotReadScope scope(this, pin);
    ZDB_RETURN_IF_ERROR(scope.status());
    return body();
  }

  /// Calls `read` with the current epoch's snapshot meta, under a pin
  /// (the monitor reads build_stats() and level_mask()).
  void ReadCurrentMeta(
      const std::function<void(const SnapshotMeta&)>& read) const;

  /// Value-copies the reader-visible index state (tree root/height,
  /// store directories, counters) into a SnapshotMeta. Writer side, at
  /// every publish.
  SnapshotMeta CaptureMetaLocked() const REQUIRES(commit_mu_);

  /// Builds the thread-local redirection record for `epoch`: tags this
  /// index's pool/tree/stores so their read paths resolve through the
  /// version chains and `meta` instead of the live state.
  SnapshotView MakeView(uint64_t epoch, const SnapshotMeta* meta) const;

  /// The meta of the snapshot scope of this index open on the calling
  /// thread: the pinned level mask and live-object count the query
  /// bodies plan with (never the live counters a concurrent writer is
  /// mutating). Every query body runs under such a scope; calling this
  /// without one aborts.
  const SnapshotMeta& ViewMeta() const;

  // --------------------------------- group commit (core/group_commit.cc)

  /// Where the journaled commit path stands. Changed under commit_mu_;
  /// atomic so group_commit_active() is lock-free.
  enum class CommitPath : uint8_t {
    kOff,       ///< unarmed: apply + publish, the caller owns durability
    kPipeline,  ///< armed; the group-commit thread commits groups
    kInline,    ///< armed; each writer commits its own group of one
    kBroken,    ///< armed path stopped on a journal failure: writes fail
  };
  CommitPath commit_path() const {
    return commit_path_.load(std::memory_order_acquire);
  }
  bool commit_path_armed() const {
    const CommitPath p = commit_path();
    return p == CommitPath::kPipeline || p == CommitPath::kInline;
  }

  /// Unavailable once the commit path has stopped (kBroken): without an
  /// armed journal no write could be made crash-atomic. Every mutator
  /// checks it before touching a page.
  Status WritableLocked() const REQUIRES(commit_mu_);

  /// Ends a writer section's mutation. On success publishes the new
  /// epoch and hands it to the commit path. On failure, when `mutated`
  /// (pages may have changed) and the path is armed, rolls the armed
  /// group back (RollbackGroupLocked); otherwise returns `st` as is.
  Status PublishOrRollbackLocked(const Status& st, bool mutated)
      REQUIRES(commit_mu_);

  /// Inline groups of one: commits the group this writer just
  /// published, after its writer section and with commit_mu_ still
  /// held, so the mutation returns durable (or rolled back, with the
  /// cause). No-op unless the path is kInline.
  Status CommitInlineLocked() REQUIRES(commit_mu_);

  /// Records the current write epoch as published and wakes the
  /// durability thread. Caller holds commit_mu_ (and has just
  /// PublishWrite()d); no-op when the path is not armed.
  void NotifyPublished() REQUIRES(commit_mu_);

  /// Durability thread body: waits for published > durable, commits one
  /// group per wakeup.
  void GroupCommitLoop();

  /// True once WaitDurable(epoch)'s outcome is decided (durable, rolled
  /// back, or the path stopped). Wait-loop predicate.
  bool DurabilitySettledLocked(uint64_t epoch) const REQUIRES(gc_mu_);

  /// The pipeline thread's cycle: CommitGroupLocked under commit_mu_,
  /// unless the pipeline was stopped meanwhile.
  Status CommitGroup();

  /// One group commit: a checkpoint in a brief writer section, then
  /// flush + journal commit + re-arm after it. Returns OK once the group
  /// is durable (a failed re-arm then stops the path for later writes),
  /// or the rollback's status if the commit failed.
  Status CommitGroupLocked() REQUIRES(commit_mu_);

  /// Rolls the whole armed group back (disk via AbortBatch, memory via
  /// ReloadLocked from the last durable master), fails pending
  /// durability waiters with `cause`, and re-arms the journal. Caller
  /// holds commit_mu_ in a writer section. Returns `cause` on a
  /// successful rollback, Corruption if the rollback itself failed
  /// (the path then stops; the intact journal still recovers the file
  /// on the next open).
  Status RollbackGroupLocked(const Status& cause) REQUIRES(commit_mu_);

  /// Stops the commit path after a journal failure (kBroken): later
  /// writes fail, waiters on undurable epochs get Unavailable, and the
  /// pipeline thread exits.
  void BreakCommitPathLocked() REQUIRES(commit_mu_);

  /// Scoped writer section, opened with commit_mu_ held: the publish
  /// half of a mutation, from arming copy-on-write to the epoch publish.
  /// The constructor arms copy-on-write for this batch: the first
  /// mutation of any page saves its pre-batch image tagged with the
  /// current (pre-bump) epoch. The stamp is re-armed per section; a
  /// checkpoint inside the section disarms it for its own writes
  /// (CheckpointLocked). No durability I/O may run inside a section
  /// (zdb_lint's io-under-latch check): End() closes it early, before
  /// a mutator commits or blocks on durability.
  class WriterSection {
   public:
    explicit WriterSection(SpatialIndex* ix) REQUIRES(ix->commit_mu_) {
      ix->pool_->ArmVersioning(ix->write_epoch() + 1);
    }
    void End() {}
    WriterSection(const WriterSection&) = delete;
    WriterSection& operator=(const WriterSection&) = delete;
  };

  // The pipeline's steps (core/query.cc).

  /// Validates the query and builds its probe/scan work list.
  Result<WindowPlan> BuildPlan(QueryPredicate predicate,
                               const Rect& window) const;

  /// Executes plan work items [begin, end) through a fresh CandidateSink
  /// (in store_mbr_in_leaf mode testing the plan's predicate on the
  /// replicated MBRs): locally deduplicated candidates, sorted.
  Result<std::vector<ObjectId>> ExecutePlanSlice(const WindowPlan& plan,
                                                 size_t begin, size_t end,
                                                 QueryStats* stats);

  /// Keeps the candidates whose record satisfies `predicate`; a
  /// pass-through in store_mbr_in_leaf mode. Preserves candidate order.
  Result<std::vector<ObjectId>> Refine(QueryPredicate predicate,
                                       const Rect& window,
                                       std::vector<ObjectId> candidates,
                                       QueryStats* stats);

  /// Exact test of one live record; fetches the ring only for polygons.
  Result<bool> RecordSatisfies(QueryPredicate predicate, const Rect& window,
                               const ObjectRecord& rec);

  BufferPool* pool_;
  SpatialIndexOptions options_;
  SpaceMapper mapper_;
  // The handles are set once at construction/Open; writers mutate the
  // pointees under commit_mu_ and readers resolve them through their
  // snapshot views. The pointers themselves are never reseated
  // concurrently (ReloadLocked reseats them under commit_mu_, behind the
  // snapshot-read quiesce barrier).
  std::unique_ptr<BTree> btree_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<PolygonStore> polys_;
  IndexBuildStats build_stats_ GUARDED_BY(commit_mu_);
  uint64_t level_mask_ GUARDED_BY(commit_mu_) = 0;
  /// Mutated by writers under commit_mu_ and published in each epoch's
  /// SnapshotMeta, which object_count() reads.
  std::atomic<uint64_t> live_objects_{0};
  std::atomic<uint64_t> write_epoch_{0};
  std::atomic<uint64_t> rollbacks_{0};

  /// Pin accounting, per-epoch snapshot metas and the version GC
  /// thread. Set by Create()/Open() before the index is handed out,
  /// never reseated.
  std::unique_ptr<EpochManager> epoch_mgr_;

  /// The writer lock: every mutator holds it for its whole writer
  /// section and commit (lock order: commit_mu_ → {gc_mu_,
  /// EpochManager::gc_mu_, EpochManager::quiesce_mu_}), and the
  /// durability thread holds it across checkpoint, flush and journal
  /// commit. Readers never touch it, so neither a writer nor the fsync
  /// window can stall the query path. SpatialJoin holds it (on both
  /// indexes) to freeze the live entry streams it merges.
  Mutex commit_mu_;
  std::atomic<CommitPath> commit_path_{CommitPath::kOff};
  /// Master page of the last *durable* group boundary — the rollback
  /// target.
  PageId gc_master_ GUARDED_BY(commit_mu_) = kInvalidPageId;
  /// Started under commit_mu_ (StartGroupCommit), joined by
  /// StopGroupCommit before it takes commit_mu_ — never touched
  /// concurrently, so deliberately unguarded.
  std::thread gc_thread_;

  /// Epoch bookkeeping shared with the durability thread and waiters.
  /// gc_mu_ is a leaf lock (acquired after commit_mu_, never held
  /// across I/O).
  mutable Mutex gc_mu_ ACQUIRED_AFTER(commit_mu_);
  CondVar gc_cv_;             ///< wakes the thread
  mutable CondVar gc_done_cv_;  ///< wakes waiters
  bool gc_stop_ GUARDED_BY(gc_mu_) = false;  ///< drain and exit
  bool gc_dead_ GUARDED_BY(gc_mu_) = false;  ///< commit path stopped
  bool gc_paused_ GUARDED_BY(gc_mu_) = false;   ///< test hook
  bool gc_running_ GUARDED_BY(gc_mu_) = false;  ///< commit path armed
  uint64_t gc_published_ GUARDED_BY(gc_mu_) = 0;  ///< highest published
  uint64_t gc_durable_ GUARDED_BY(gc_mu_) = 0;    ///< durable watermark
  /// Epochs (lo, hi] rolled back by a failed group, with the cause;
  /// append-only (failures are rare), consulted by WaitDurable.
  struct FailedEpochs {
    uint64_t lo;
    uint64_t hi;
    Status status;
  };
  std::vector<FailedEpochs> gc_failed_ GUARDED_BY(gc_mu_);

  // Persistence bookkeeping (see core/persist.cc). Written by
  // checkpoint/reload/rollback and read by the commit pipeline, all
  // under commit_mu_.
  PageId master_page_ GUARDED_BY(commit_mu_) = kInvalidPageId;
  PageId obj_dir_chain_ GUARDED_BY(commit_mu_) = kInvalidPageId;
  PageId poly_dir_chain_ GUARDED_BY(commit_mu_) = kInvalidPageId;
};

/// Spatial join: all pairs (a-object, b-object) with intersecting MBRs,
/// computed by a synchronized z-order merge of the two indexes' entry
/// streams with enclosure stacks (Orenstein's merge algorithm).
Result<std::vector<std::pair<ObjectId, ObjectId>>> SpatialJoin(
    SpatialIndex* a, SpatialIndex* b, JoinStats* stats = nullptr);

}  // namespace zdb

#endif  // ZDB_CORE_SPATIAL_INDEX_H_
