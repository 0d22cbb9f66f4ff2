// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Parallel query execution over a SpatialIndex. A QueryExecutor owns a
// fixed pool of worker threads and offers two modes:
//
//   * batch execution — a vector of independent window/point/kNN queries
//     is spread over the workers, results in input order;
//   * intra-query parallelism — ParallelWindowQuery() splits one large
//     window query's z-interval work list (ancestor probes + interval
//     scans) across the workers, each worker deduplicating its own
//     candidate slice, then merges, globally deduplicates, and refines
//     the candidate chunks in parallel.
//
//   * mixed workload — MixedWorkload() runs rounds of write batches on a
//     dedicated writer thread (each batch applied atomically through
//     SpatialIndex::ApplyBatch) while the rounds' window/point/kNN query
//     batches run on the worker pool. Every query's result is recorded
//     together with the index write epoch observed before and after it,
//     so a harness can cross-check each concurrent answer against a
//     brute-force oracle at some single write-batch boundary.
//
// Queries read epoch-pinned snapshots and never wait for a writer; a
// query observes either all or none of any write batch. Batch queries
// delegate to the public index queries, which pin per query.
// ParallelWindowQuery pins ONE epoch per shard up front and every
// worker opens its own SnapshotReadScope under that shared pin, so all
// of a shard's plan hooks (PlanWindow/ExecuteWindowPlanSlice/
// RefineWindowCandidates) observe the same committed epoch. A hook
// called without such a scope fails with InvalidArgument; what protects
// the hooks is the pinned epoch's immutability, which
// tests/snapshot_test.cc (SnapshotStress.PlanHooksCannotObserveTornEpoch)
// verifies cannot observe a torn epoch under writer churn.
//
// Per-worker counters (pages pinned, pool hit rate, candidates,
// refinements) are collected racelessly: each worker owns its WorkerStats
// slot and registers its ThreadIoStats shadow with the buffer pool (the
// mixed-mode writer thread owns the separate `writer` slot); the
// aggregate is read only after the batch completes (completion is a
// synchronizing event, so no locks are needed on the counters).
//
// Shards: the executor always drives a set of shard engines through a
// shard::ShardRouting — the multi-index constructor takes the N shard
// engines of a zdb::DB (DB::NewExecutor wires it), and the single-index
// constructor builds a one-shard routing, so both run the same code.
// Batch queries scatter-gather each query across its overlapping shards
// (queries parallelize across the pool). ParallelWindowQuery parallelizes
// ACROSS shards before slicing WITHIN them — the overlapping shards'
// plans are built under one pin per shard, every (shard, slice) work item
// goes into a single pool job, candidates are deduplicated globally by
// oid (an object replicated into several shards is refined only in the
// shard that surfaced it first — replicas carry identical exact
// geometry), and refinement chunks again mix all shards in one job.
// MixedWorkload requires a single-shard executor (writes go through the
// router, which the executor deliberately does not own).
//
// Example:
//   QueryExecutor exec(index.get(), 4);
//   auto results = exec.WindowBatch(windows).value();   // one per window
//   auto hits = exec.ParallelWindowQuery(big_window).value();
//   ExecStats stats = exec.stats();  // per-worker + aggregate counters

#ifndef ZDB_EXEC_EXECUTOR_H_
#define ZDB_EXEC_EXECUTOR_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/spatial_index.h"
#include "shard/routing.h"

namespace zdb {

/// Counters owned by one worker thread. `io` is the worker's buffer-pool
/// shadow (pages pinned, hits, misses); `query` sums the QueryStats of
/// every query/slice the worker executed.
struct WorkerStats {
  uint64_t tasks = 0;          ///< work items executed by this worker
  uint64_t refinements = 0;    ///< candidates this worker refined
  ThreadIoStats io;            ///< pages pinned / pool hits / pool misses
  QueryStats query;            ///< summed filter-and-refine counters

  void Add(const WorkerStats& o) {
    tasks += o.tasks;
    refinements += o.refinements;
    io.Add(o.io);
    query.Add(o.query);
  }
};

/// Per-worker counters plus their aggregate.
struct ExecStats {
  std::vector<WorkerStats> workers;  ///< one slot per worker thread
  WorkerStats writer;  ///< mixed-workload writer thread (tasks = batches)

  WorkerStats Totals() const {
    WorkerStats t;
    for (const auto& w : workers) t.Add(w);
    t.Add(writer);
    return t;
  }
};

/// One round of a mixed read/write workload: `writes` is applied as one
/// atomic batch on the writer thread while the query batches of the same
/// round run on the worker pool. Rounds are issued in order but writer
/// and readers deliberately drift — queries of round r may observe the
/// index anywhere between the already-applied batches.
struct MixedRound {
  WriteBatch writes;
  std::vector<Rect> windows;
  std::vector<Point> points;
  std::vector<Point> knn_points;
  size_t knn_k = 0;  ///< k for the kNN queries (0 = none even if points)
};

/// Results of one mixed round. Each query's result comes with the write
/// epochs loaded immediately before and after it ran: the answer is
/// guaranteed to equal the single-state answer at exactly one epoch in
/// that window (atomic batch visibility).
struct MixedRoundResult {
  std::vector<ObjectId> inserted;  ///< oids of the round's inserts
  std::vector<std::vector<ObjectId>> window_results;
  std::vector<std::pair<uint64_t, uint64_t>> window_epochs;
  std::vector<std::vector<ObjectId>> point_results;
  std::vector<std::pair<uint64_t, uint64_t>> point_epochs;
  std::vector<std::vector<std::pair<ObjectId, double>>> knn_results;
  std::vector<std::pair<uint64_t, uint64_t>> knn_epochs;
};

/// Fixed worker pool running queries against one SpatialIndex.
/// Thread-compatible: one thread drives the executor; the workers run
/// the queries. Mutating the index while a batch is in flight is safe —
/// the index latch serializes writers against in-flight queries — but
/// stats()/ResetStats() must only be called while no batch is running.
class QueryExecutor {
 public:
  /// Drives one index (a one-shard routing over its world and grid).
  /// `threads` >= 1 worker threads are started immediately.
  QueryExecutor(SpatialIndex* index, size_t threads);

  /// Drives `indexes` (one per shard engine, borrowed) with
  /// scatter-gather routing through `routing`. `indexes.size()` must
  /// equal `routing.shards()`.
  QueryExecutor(std::vector<SpatialIndex*> indexes,
                shard::ShardRouting routing, size_t threads);

  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  size_t threads() const { return workers_.size(); }

  /// True when this executor scatter-gathers over several shard engines.
  bool sharded() const { return indexes_.size() > 1; }
  size_t shards() const { return indexes_.size(); }

  /// Runs every window query concurrently; results in input order.
  Result<std::vector<std::vector<ObjectId>>> WindowBatch(
      const std::vector<Rect>& windows);

  /// Runs every point query concurrently; results in input order.
  Result<std::vector<std::vector<ObjectId>>> PointBatch(
      const std::vector<Point>& points);

  /// Runs every k-NN query concurrently; results in input order.
  Result<std::vector<std::vector<std::pair<ObjectId, double>>>> NearestBatch(
      const std::vector<Point>& points, size_t k);

  /// One window query parallelized internally: the plan's probe/scan work
  /// items are split across the workers (per-worker dedup), candidates
  /// are merged and globally deduplicated, and refinement runs in
  /// parallel over candidate chunks. Returns exactly what
  /// SpatialIndex::WindowQuery would (sorted by object id).
  Result<std::vector<ObjectId>> ParallelWindowQuery(const Rect& window,
                                                    QueryStats* stats =
                                                        nullptr);

  /// Mixed read/write mode: applies each round's write batch atomically
  /// on a dedicated writer thread while the rounds' query batches run on
  /// the worker pool. Results are per round, each query annotated with
  /// its pre/post write epochs (see MixedRoundResult). Returns the first
  /// writer or query error, after all threads quiesce. Single-shard
  /// executors only (InvalidArgument otherwise — sharded writes go
  /// through the ShardRouter, not the executor).
  Result<std::vector<MixedRoundResult>> MixedWorkload(
      const std::vector<MixedRound>& rounds);

  /// Per-worker counters. Only meaningful while no batch is in flight.
  ExecStats stats() const { return stats_; }

  /// Zeroes all per-worker counters. Only call while no batch is in
  /// flight.
  void ResetStats();

 private:
  /// One parallel region: items [0, count) are claimed dynamically by the
  /// workers via an atomic cursor and run through `fn(item, worker)`.
  /// Blocks until all items completed; returns the first item error.
  struct Job {
    std::function<Status(size_t item, size_t worker)> fn;
    size_t count = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    Mutex mu;
    CondVar cv;
    /// Set (release, under mu) after first_error; workers test it
    /// lock-free before each item, so the items share no lock.
    std::atomic<bool> failed{false};
    Status first_error GUARDED_BY(mu);
  };

  /// ParallelWindowQuery's plan/slice/refine pipeline over the
  /// overlapping `shards`: pins each one, then runs all shards' slice
  /// and refinement work items through the shared pool.
  Result<std::vector<ObjectId>> ParallelWindowBody(
      const Rect& window, QueryStats* stats,
      const std::vector<uint32_t>& shards);

  Status RunJob(size_t count,
                std::function<Status(size_t item, size_t worker)> fn);
  void WorkerLoop(size_t worker_idx);
  void ProcessJob(Job* job, size_t worker_idx);

  std::vector<SpatialIndex*> indexes_;  ///< all shards, borrowed
  shard::ShardRouting routing_;
  /// Per-worker slots: each worker owns stats_.workers[i] (raceless by
  /// ownership, not by lock — see the header comment).
  ExecStats stats_;

  Mutex mu_;
  CondVar cv_;
  std::deque<std::shared_ptr<Job>> jobs_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace zdb

#endif  // ZDB_EXEC_EXECUTOR_H_
