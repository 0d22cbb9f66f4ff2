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
// Sharding: every DB is a shard::ShardRouter over N shard engines (each
// its own file, pager, buffer pool, index, epoch domain and group-commit
// pipeline); the default N = 1 is the degenerate partition, one engine
// that owns the whole keyspace. DBOptions::shards > 1 partitions the
// z-order keyspace by top-level Morton prefix — queries scatter to
// overlapping shards and gather + dedup by oid, writes split by routing
// prefix and fan out to the per-shard pipelines, and object ids stay
// byte-identical to a single-shard DB's. On disk the main path of a
// sharded DB holds a small manifest and shard i lives at
// `path + ".shard<i>"`; a one-shard DB is one classic file with no
// manifest. The stored layout wins on reopen, like stored index
// options. See DESIGN.md "Sharded partitions".
//
// Every fallible entry point returns Status/Result<T> (common/status.h).

#ifndef ZDB_ZDB_DB_H_
#define ZDB_ZDB_DB_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/commit_sink.h"
#include "core/spatial_index.h"
#include "exec/executor.h"
#include "shard/router.h"

namespace zdb {

/// Configuration of DB::Open. The defaults give a 4 KiB-page, 256-frame
/// cache with the paper's size-bound-4 decomposition.
struct DBOptions {
  /// Index configuration (decomposition policies, grid, ablations).
  /// Used when creating; a reopened DB restores its stored options.
  SpatialIndexOptions index;

  /// Page size of a newly created database file.
  uint32_t page_size = kDefaultPageSize;

  /// Buffer-pool capacity in frames (per shard engine).
  size_t cache_pages = 256;

  /// Give an in-memory DB a (memory-backed) rollback journal, enabling
  /// crash-atomic batches and the group-commit pipeline without a disk
  /// file. File-backed DBs always have a journal.
  bool memory_journal = false;

  /// How a journaled DB commits (see spatial_index.h "group commit").
  /// true: a pipeline thread coalesces published batches into one
  /// journal commit, and readers never wait out the fsync. false: every
  /// batch is a group of one that the writer commits, after its publish,
  /// before its call returns — the same commit, without the thread.
  bool group_commit = true;

  /// Queries always read epoch-pinned snapshots (see the "snapshot
  /// reads" section of spatial_index.h); this is not a setting. The
  /// constant remains only because the service benchmark prints it: a
  /// benchmark change that drops that print deletes it.
  static constexpr bool snapshot_reads = true;

  /// Number of z-prefix shard engines, 1..64. Used when creating; a
  /// reopened DB keeps its stored shard layout. 1 (the default) is the
  /// classic single-engine DB.
  uint32_t shards = 1;

  /// Typed rejection of every statically invalid knob combination
  /// (cache_pages == 0, shards outside [1, 64], ...). DB::Open calls
  /// this first, so invalid options yield this exact Status instead of
  /// a partially opened stack; callers building configuration surfaces
  /// (servers, tools) can validate without opening anything.
  [[nodiscard]] Status Validate() const;
};

/// Aggregate counters served by DB::Stats(). For a sharded DB the
/// storage counters (entries, pages, commits, versions) sum over the
/// shards, `objects` counts each object once (not per replica),
/// `write_epoch` is the router's published-batch counter and
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
  /// as a failure-injecting one.
  [[nodiscard]] static Result<std::unique_ptr<DB>> Open(
      std::vector<std::unique_ptr<shard::ShardEngine>> engines);

  /// Stops the group-commit pipeline(s) (draining pending durability)
  /// and tears the stack down.
  ~DB();

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  // ------------------------------------------------------------- queries
  //
  // `epochs` (optional, on Window/Point/Nearest) receives the range of
  // write epochs the answer reflects (see EpochRange, shard/router.h):
  // first == last on a one-shard DB.

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

  /// Bulk loads rectangles into an empty DB.
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
  /// now on every batch published through the facade is reported to
  /// OnCommit with resolved oids, serialized by an internal replication
  /// mutex so sink callbacks observe strictly increasing epochs. Pass
  /// nullptr to detach. Fails if a different sink is already attached,
  /// and while a sink is attached InsertPolygon/BulkLoad are rejected
  /// (they have no batch representation to ship). The sink must stay
  /// alive until detached.
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
  /// every shard's durable epoch as of the call (conservative for older
  /// epochs). See ShardRouter::WaitDurable.
  [[nodiscard]] Status WaitDurable(uint64_t epoch, uint64_t timeout_ms = 0);

  // ------------------------------------------------------------ plumbing

  DBStats Stats() const;

  /// Per-shard counter breakdown (one entry for a single-shard DB).
  std::vector<shard::ShardCounters> ShardStats() const;

  uint32_t shards() const;

  uint64_t write_epoch() const;
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
  /// must go through the DB: the router's oid cursor and owner masks
  /// would not see a write made on the index directly.
  SpatialIndex* index();

 private:
  DB() = default;

  /// Owns the shard::ShardRouter, and through it the shard engines,
  /// that every DB call goes through, one shard included.
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace zdb

#endif  // ZDB_ZDB_DB_H_
