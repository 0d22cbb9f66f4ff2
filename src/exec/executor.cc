// Copyright (c) zdb authors. Licensed under the MIT license.

#include "exec/executor.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <unordered_set>

namespace zdb {

QueryExecutor::QueryExecutor(SpatialIndex* index, size_t threads)
    : QueryExecutor({index},
                    shard::ShardRouting(1, index->options().world,
                                        index->options().grid_bits),
                    threads) {}

QueryExecutor::QueryExecutor(std::vector<SpatialIndex*> indexes,
                             shard::ShardRouting routing, size_t threads)
    : indexes_(std::move(indexes)), routing_(std::move(routing)) {
  assert(!indexes_.empty() && indexes_.size() == routing_.shards());
  assert(threads >= 1);
  if (threads < 1) threads = 1;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryExecutor::~QueryExecutor() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void QueryExecutor::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      MutexLock lock(mu_);
      while (!stop_ && jobs_.empty()) cv_.Wait(mu_);
      if (jobs_.empty()) break;  // stop_ and nothing left to drain
      job = jobs_.front();
    }
    ProcessJob(job.get());
    {
      MutexLock lock(mu_);
      // Whichever worker drains the job retires it; the shared_ptr
      // identity check makes the pop idempotent across workers.
      if (!jobs_.empty() && jobs_.front() == job) jobs_.pop_front();
    }
  }
}

void QueryExecutor::ProcessJob(Job* job) {
  for (;;) {
    const size_t item = job->next.fetch_add(1, std::memory_order_relaxed);
    if (item >= job->count) return;
    if (!job->failed.load(std::memory_order_acquire)) {
      Status s = job->fn(item);
      if (!s.ok()) {
        MutexLock jl(job->mu);
        if (!job->failed.load(std::memory_order_relaxed)) {
          job->first_error = std::move(s);
          job->failed.store(true, std::memory_order_release);
        }
      }
    }
    if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job->count) {
      MutexLock jl(job->mu);
      job->cv.NotifyAll();
    }
  }
}

Status QueryExecutor::RunJob(size_t count,
                             std::function<Status(size_t item)> fn) {
  if (count == 0) return Status::OK();
  auto job = std::make_shared<Job>();
  job->fn = std::move(fn);
  job->count = count;
  {
    MutexLock lock(mu_);
    jobs_.push_back(job);
  }
  cv_.NotifyAll();
  MutexLock jl(job->mu);
  while (job->done.load(std::memory_order_acquire) != job->count) {
    job->cv.Wait(job->mu);
  }
  return job->failed.load(std::memory_order_relaxed) ? job->first_error
                                                     : Status::OK();
}

Result<std::vector<ObjectId>> QueryExecutor::ParallelWindowQuery(
    const Rect& window, QueryStats* stats) {
  // Scatter set: only the shards whose prefix regions the window
  // overlaps participate; non-overlapping shards are never touched.
  std::vector<uint32_t> shards;
  uint64_t mask = routing_.MaskForRect(window);
  while (mask != 0) {
    shards.push_back(static_cast<uint32_t>(__builtin_ctzll(mask)));
    mask &= mask - 1;
  }
  for (int attempt = 0;; ++attempt) {
    // A group-commit rollback on any participating shard invalidates
    // that shard's pinned epoch mid-flight (Aborted); re-pin everything
    // and retry.
    auto r = ParallelWindowBody(window, stats, shards);
    if (r.ok() || !r.status().IsAborted() || attempt >= 2) return r;
  }
}

Result<std::vector<ObjectId>> QueryExecutor::ParallelWindowBody(
    const Rect& window, QueryStats* stats,
    const std::vector<uint32_t>& shards) {
  const size_t ns = shards.size();

  // Pin one epoch per participating shard: each shard's plan/slice/
  // refine calls all observe that shard's pinned state — per-shard
  // consistency, not one cross-shard state (the scatter-gather contract,
  // see shard/router.cc). Every thread that calls a plan hook opens its
  // own snapshot scope under the shard's pin.
  EpochPinSet pins(ns);
  std::vector<WindowPlan> plans(ns);
  for (size_t i = 0; i < ns; ++i) {
    SpatialIndex* ix = indexes_[shards[i]];
    const EpochPin& pin = pins.Add(ix->PinEpoch());
    std::unique_ptr<SpatialIndex::SnapshotReadScope> driver_scope;
    ZDB_ASSIGN_OR_RETURN(driver_scope, ix->OpenSnapshot(pin));
    ZDB_ASSIGN_OR_RETURN(plans[i], ix->PlanWindow(window));
  }

  // Flatten every shard's slice work into ONE pool job: the workers
  // parallelize across shards first (each claims whatever shard's slice
  // is next), so a skewed shard cannot serialize the query.
  struct ShardSlice {
    size_t shard;  ///< index into `shards`/`plans`
    size_t lo, hi;
  };
  std::vector<ShardSlice> work;
  for (size_t i = 0; i < ns; ++i) {
    const size_t items = plans[i].work_items();
    const size_t slices = std::max<size_t>(
        1, std::min(items, std::max<size_t>(1, threads() * 4 / ns)));
    for (size_t j = 0; j < slices; ++j) {
      work.push_back({i, items * j / slices, items * (j + 1) / slices});
    }
  }
  std::vector<std::vector<ObjectId>> parts(work.size());
  std::vector<QueryStats> part_stats(work.size());
  ZDB_RETURN_IF_ERROR(RunJob(work.size(), [&](size_t i) -> Status {
    SpatialIndex* ix = indexes_[shards[work[i].shard]];
    std::unique_ptr<SpatialIndex::SnapshotReadScope> scope;
    ZDB_ASSIGN_OR_RETURN(scope, ix->OpenSnapshot(pins[work[i].shard]));
    auto r = ix->ExecuteWindowPlanSlice(plans[work[i].shard], work[i].lo,
                                        work[i].hi, &part_stats[i]);
    if (!r.ok()) return r.status();
    parts[i] = std::move(r).value();
    return Status::OK();
  }));

  // Global dedup by oid; a replicated object is refined only in the
  // shard that surfaced it first (replicas store identical exact
  // geometry, so any owning shard refines it correctly).
  std::unordered_set<ObjectId> seen;
  std::vector<std::vector<ObjectId>> cand(ns);
  for (size_t i = 0; i < work.size(); ++i) {
    for (ObjectId oid : parts[i]) {
      if (seen.insert(oid).second) cand[work[i].shard].push_back(oid);
    }
  }

  // Refinement: again one flattened job over per-shard candidate chunks,
  // each shard's candidates in oid order (object-store locality) and the
  // shards sharing the workers evenly.
  std::vector<ShardSlice> rwork;
  for (size_t i = 0; i < ns; ++i) {
    std::sort(cand[i].begin(), cand[i].end());
    const size_t n = cand[i].size();
    const size_t chunks =
        std::max<size_t>(1, std::min(n, (threads() + ns - 1) / ns));
    for (size_t j = 0; j < chunks; ++j) {
      rwork.push_back({i, n * j / chunks, n * (j + 1) / chunks});
    }
  }
  std::vector<std::vector<ObjectId>> refined(rwork.size());
  std::vector<QueryStats> refine_stats(rwork.size());
  ZDB_RETURN_IF_ERROR(RunJob(rwork.size(), [&](size_t i) -> Status {
    SpatialIndex* ix = indexes_[shards[rwork[i].shard]];
    std::unique_ptr<SpatialIndex::SnapshotReadScope> scope;
    ZDB_ASSIGN_OR_RETURN(scope, ix->OpenSnapshot(pins[rwork[i].shard]));
    const auto& list = cand[rwork[i].shard];
    std::vector<ObjectId> chunk(list.begin() + rwork[i].lo,
                                list.begin() + rwork[i].hi);
    auto r = ix->RefineWindowCandidates(window, std::move(chunk),
                                        &refine_stats[i]);
    if (!r.ok()) return r.status();
    refined[i] = std::move(r).value();
    return Status::OK();
  }));

  // Each oid was refined exactly once, so a plain sort yields the same
  // sorted-unique answer SpatialIndex::WindowQuery (and the router's
  // scatter path) returns. One shard's chunks are contiguous ranges of
  // its sorted candidates: concatenated in order, they are sorted.
  std::vector<ObjectId> results;
  for (auto& chunk : refined) {
    results.insert(results.end(), chunk.begin(), chunk.end());
  }
  if (ns > 1) std::sort(results.begin(), results.end());
  if (stats != nullptr) {
    for (const auto& qs : part_stats) stats->Add(qs);
    for (const auto& qs : refine_stats) stats->Add(qs);
    stats->unique_candidates = seen.size();
    stats->results = results.size();
  }
  return results;
}

}  // namespace zdb
