// Copyright (c) zdb authors. Licensed under the MIT license.

#include "exec/executor.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <unordered_set>

#include "shard/scatter.h"

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
  stats_.workers.resize(threads);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
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

void QueryExecutor::ResetStats() {
  for (auto& w : stats_.workers) w = WorkerStats{};
  stats_.writer = WorkerStats{};
}

void QueryExecutor::WorkerLoop(size_t worker_idx) {
  // The worker's I/O shadow: the buffer pool charges this thread's pins,
  // hits and misses here without any shared-counter races.
  SetThreadIoStats(&stats_.workers[worker_idx].io);
  for (;;) {
    std::shared_ptr<Job> job;
    {
      MutexLock lock(mu_);
      while (!stop_ && jobs_.empty()) cv_.Wait(mu_);
      if (jobs_.empty()) break;  // stop_ and nothing left to drain
      job = jobs_.front();
    }
    ProcessJob(job.get(), worker_idx);
    {
      MutexLock lock(mu_);
      // Whichever worker drains the job retires it; the shared_ptr
      // identity check makes the pop idempotent across workers.
      if (!jobs_.empty() && jobs_.front() == job) jobs_.pop_front();
    }
  }
  SetThreadIoStats(nullptr);
}

void QueryExecutor::ProcessJob(Job* job, size_t worker_idx) {
  for (;;) {
    const size_t item = job->next.fetch_add(1, std::memory_order_relaxed);
    if (item >= job->count) return;
    if (!job->failed.load(std::memory_order_acquire)) {
      Status s = job->fn(item, worker_idx);
      ++stats_.workers[worker_idx].tasks;
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

Status QueryExecutor::RunJob(
    size_t count, std::function<Status(size_t item, size_t worker)> fn) {
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

Result<std::vector<std::vector<ObjectId>>> QueryExecutor::WindowBatch(
    const std::vector<Rect>& windows) {
  std::vector<std::vector<ObjectId>> out(windows.size());
  ZDB_RETURN_IF_ERROR(
      RunJob(windows.size(), [&](size_t i, size_t w) -> Status {
        QueryStats qs;
        auto r = shard::ScatterWindow(indexes_, routing_, windows[i], &qs);
        if (!r.ok()) return r.status();
        out[i] = std::move(r).value();
        stats_.workers[w].query.Add(qs);
        return Status::OK();
      }));
  return out;
}

Result<std::vector<std::vector<ObjectId>>> QueryExecutor::PointBatch(
    const std::vector<Point>& points) {
  std::vector<std::vector<ObjectId>> out(points.size());
  ZDB_RETURN_IF_ERROR(
      RunJob(points.size(), [&](size_t i, size_t w) -> Status {
        QueryStats qs;
        auto r = shard::ScatterPoint(indexes_, routing_, points[i], &qs);
        if (!r.ok()) return r.status();
        out[i] = std::move(r).value();
        stats_.workers[w].query.Add(qs);
        return Status::OK();
      }));
  return out;
}

Result<std::vector<std::vector<std::pair<ObjectId, double>>>>
QueryExecutor::NearestBatch(const std::vector<Point>& points, size_t k) {
  std::vector<std::vector<std::pair<ObjectId, double>>> out(points.size());
  ZDB_RETURN_IF_ERROR(
      RunJob(points.size(), [&](size_t i, size_t w) -> Status {
        QueryStats qs;
        auto r =
            shard::ScatterNearest(indexes_, routing_, points[i], k, &qs);
        if (!r.ok()) return r.status();
        out[i] = std::move(r).value();
        stats_.workers[w].query.Add(qs);
        return Status::OK();
      }));
  return out;
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
  // see shard/scatter.h). Every thread that calls a plan hook opens its
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
  ZDB_RETURN_IF_ERROR(RunJob(work.size(), [&](size_t i, size_t w) -> Status {
    SpatialIndex* ix = indexes_[shards[work[i].shard]];
    std::unique_ptr<SpatialIndex::SnapshotReadScope> scope;
    ZDB_ASSIGN_OR_RETURN(scope, ix->OpenSnapshot(pins[work[i].shard]));
    auto r = ix->ExecuteWindowPlanSlice(plans[work[i].shard], work[i].lo,
                                        work[i].hi, &part_stats[i]);
    if (!r.ok()) return r.status();
    parts[i] = std::move(r).value();
    stats_.workers[w].query.Add(part_stats[i]);
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
  ZDB_RETURN_IF_ERROR(RunJob(rwork.size(), [&](size_t i, size_t w) -> Status {
    SpatialIndex* ix = indexes_[shards[rwork[i].shard]];
    std::unique_ptr<SpatialIndex::SnapshotReadScope> scope;
    ZDB_ASSIGN_OR_RETURN(scope, ix->OpenSnapshot(pins[rwork[i].shard]));
    const auto& list = cand[rwork[i].shard];
    std::vector<ObjectId> chunk(list.begin() + rwork[i].lo,
                                list.begin() + rwork[i].hi);
    stats_.workers[w].refinements += chunk.size();
    auto r = ix->RefineWindowCandidates(window, std::move(chunk),
                                        &refine_stats[i]);
    if (!r.ok()) return r.status();
    refined[i] = std::move(r).value();
    stats_.workers[w].query.Add(refine_stats[i]);
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

Result<std::vector<MixedRoundResult>> QueryExecutor::MixedWorkload(
    const std::vector<MixedRound>& rounds) {
  if (sharded()) {
    return Status::InvalidArgument(
        "mixed workload requires a single-shard executor");
  }
  SpatialIndex* index = indexes_[0];
  std::vector<MixedRoundResult> out(rounds.size());
  for (size_t r = 0; r < rounds.size(); ++r) {
    out[r].window_results.resize(rounds[r].windows.size());
    out[r].window_epochs.resize(rounds[r].windows.size());
    out[r].point_results.resize(rounds[r].points.size());
    out[r].point_epochs.resize(rounds[r].points.size());
    const size_t nk =
        rounds[r].knn_k > 0 ? rounds[r].knn_points.size() : 0;
    out[r].knn_results.resize(nk);
    out[r].knn_epochs.resize(nk);
  }

  // Dedicated writer: applies the rounds' batches in order, each one an
  // atomic writer section. `writer_status` is only read after join().
  Status writer_status;
  std::thread writer([&] {
    SetThreadIoStats(&stats_.writer.io);
    for (size_t r = 0; r < rounds.size(); ++r) {
      if (rounds[r].writes.empty()) continue;
      auto res = index->ApplyBatch(rounds[r].writes);
      if (!res.ok()) {
        writer_status = res.status();
        break;
      }
      out[r].inserted = std::move(res).value();
      ++stats_.writer.tasks;
    }
    SetThreadIoStats(nullptr);
  });

  // The query side: per round, one pool job per query type. The writer
  // drifts ahead or behind freely; the epochs bracketing each query tell
  // the caller which oracle states the answer may legally match.
  Status query_status = Status::OK();
  for (size_t r = 0; r < rounds.size() && query_status.ok(); ++r) {
    const MixedRound& round = rounds[r];
    MixedRoundResult& res = out[r];
    if (!round.windows.empty()) {
      query_status =
          RunJob(round.windows.size(), [&](size_t i, size_t w) -> Status {
            QueryStats qs;
            res.window_epochs[i].first = index->write_epoch();
            auto q = index->WindowQuery(round.windows[i], &qs);
            res.window_epochs[i].second = index->write_epoch();
            if (!q.ok()) return q.status();
            res.window_results[i] = std::move(q).value();
            stats_.workers[w].query.Add(qs);
            return Status::OK();
          });
      if (!query_status.ok()) break;
    }
    if (!round.points.empty()) {
      query_status =
          RunJob(round.points.size(), [&](size_t i, size_t w) -> Status {
            QueryStats qs;
            res.point_epochs[i].first = index->write_epoch();
            auto q = index->PointQuery(round.points[i], &qs);
            res.point_epochs[i].second = index->write_epoch();
            if (!q.ok()) return q.status();
            res.point_results[i] = std::move(q).value();
            stats_.workers[w].query.Add(qs);
            return Status::OK();
          });
      if (!query_status.ok()) break;
    }
    if (round.knn_k > 0 && !round.knn_points.empty()) {
      query_status = RunJob(
          round.knn_points.size(), [&](size_t i, size_t w) -> Status {
            QueryStats qs;
            res.knn_epochs[i].first = index->write_epoch();
            auto q = index->NearestNeighbors(round.knn_points[i],
                                             round.knn_k, &qs);
            res.knn_epochs[i].second = index->write_epoch();
            if (!q.ok()) return q.status();
            res.knn_results[i] = std::move(q).value();
            stats_.workers[w].query.Add(qs);
            return Status::OK();
          });
    }
  }

  writer.join();
  ZDB_RETURN_IF_ERROR(writer_status);
  ZDB_RETURN_IF_ERROR(query_status);
  return out;
}

}  // namespace zdb
