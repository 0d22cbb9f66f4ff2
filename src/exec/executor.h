// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Intra-query parallelism over the shard engines of a zdb::DB (or one
// bare SpatialIndex). A QueryExecutor owns a fixed pool of worker
// threads and runs one kind of query on it: ParallelWindowQuery() splits
// one large window query's z-interval work list (ancestor probes +
// interval scans) across the workers, each worker deduplicating its own
// candidate slice, then merges, globally deduplicates, and refines the
// candidate chunks in parallel. The server sends windows of at least
// ServerOptions::parallel_window_area here.
//
// Callers: any number of threads may call ParallelWindowQuery at once
// (the server's request workers do). Each call posts its own jobs to the
// shared pool, which drains them in FIFO order, and waits for them.
// Writers may run beside the queries: queries read epoch-pinned
// snapshots and never wait for a writer, and a query observes either
// all or none of any write batch.
//
// Snapshots: ParallelWindowQuery pins ONE epoch per shard up front and
// every worker opens its own SnapshotReadScope under that shared pin, so
// all of a shard's plan hooks (PlanWindow/ExecuteWindowPlanSlice/
// RefineWindowCandidates) observe the same committed epoch. A hook
// called without such a scope fails with InvalidArgument; what protects
// the hooks is the pinned epoch's immutability, which
// tests/snapshot_test.cc (SnapshotStress.PlanHooksCannotObserveTornEpoch)
// verifies cannot observe a torn epoch under writer churn.
//
// Shards: the executor always drives a set of shard engines through a
// shard::ShardRouting — the multi-index constructor takes the N shard
// engines of a zdb::DB (DB::NewExecutor wires it), and the single-index
// constructor builds a one-shard routing, so both run the same code.
// ParallelWindowQuery parallelizes ACROSS shards before slicing WITHIN
// them — the overlapping shards' plans are built under one pin per
// shard, every (shard, slice) work item goes into a single pool job,
// candidates are deduplicated globally by oid (an object replicated into
// several shards is refined only in the shard that surfaced it first —
// replicas carry identical exact geometry), and refinement chunks again
// mix all shards in one job.
//
// Example:
//   QueryExecutor exec(index.get(), 4);
//   QueryStats qs;
//   auto hits = exec.ParallelWindowQuery(big_window, &qs).value();

#ifndef ZDB_EXEC_EXECUTOR_H_
#define ZDB_EXEC_EXECUTOR_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/spatial_index.h"
#include "shard/routing.h"

namespace zdb {

/// Fixed worker pool running parallel window queries against one or
/// more shard engines. Thread-safe: ParallelWindowQuery may be called
/// from several threads at once, beside writers to the engines.
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
  size_t shards() const { return indexes_.size(); }

  /// One window query parallelized internally: the plan's probe/scan work
  /// items are split across the workers (per-worker dedup), candidates
  /// are merged and globally deduplicated, and refinement runs in
  /// parallel over candidate chunks. Returns exactly what
  /// SpatialIndex::WindowQuery would (sorted by object id).
  Result<std::vector<ObjectId>> ParallelWindowQuery(const Rect& window,
                                                    QueryStats* stats =
                                                        nullptr);

 private:
  /// One parallel region: items [0, count) are claimed dynamically by the
  /// workers via an atomic cursor and run through `fn(item)`.
  /// Blocks until all items completed; returns the first item error.
  struct Job {
    std::function<Status(size_t item)> fn;
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

  Status RunJob(size_t count, std::function<Status(size_t item)> fn);
  void WorkerLoop();
  static void ProcessJob(Job* job);

  std::vector<SpatialIndex*> indexes_;  ///< all shards, borrowed
  shard::ShardRouting routing_;

  Mutex mu_;
  CondVar cv_;
  std::deque<std::shared_ptr<Job>> jobs_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace zdb

#endif  // ZDB_EXEC_EXECUTOR_H_
