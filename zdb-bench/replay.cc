// Copyright (c) zdb authors. Licensed under the MIT license.

#include "replay.h"

#include <chrono>
#include <thread>

#include "net/wire.h"

namespace zdb::bench {

namespace {

using Clock = std::chrono::steady_clock;

struct ThreadState {
  std::unique_ptr<SpanLog> log = std::make_unique<SpanLog>();
  QueryStats window_stats;
  uint64_t windows = 0;
  uint64_t knn_rounds = 0;
  uint64_t knns = 0;
  uint64_t batches = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
};

/// One window through the engine's own steps, each under a span:
/// pin + snapshot scope, decomposition, B+-tree scan with local dedup,
/// refinement, release, then the reply codec both ways.
Result<std::vector<ObjectId>> DecomposedWindow(SpatialIndex* ix,
                                               const Rect& w,
                                               uint64_t request,
                                               SpanLog* log) {
  const int32_t root = log->Begin(SpanName::kReplayWindow, request);
  int32_t s = log->Begin(SpanName::kCorePin, request, root);
  EpochPin pin = ix->PinEpoch();
  const uint64_t epoch = pin.epoch();
  auto scope = ix->OpenSnapshot(pin);
  log->End(s);
  if (!scope.ok()) return scope.status();

  QueryStats qs;
  s = log->Begin(SpanName::kCorePlan, request, root);
  auto plan = ix->PlanWindow(w);
  log->End(s);
  if (!plan.ok()) return plan.status();

  s = log->Begin(SpanName::kCoreScan, request, root);
  auto cands = ix->ExecuteWindowPlanSlice(*plan, 0, plan->work_items(), &qs);
  log->End(s);
  if (!cands.ok()) return cands.status();

  s = log->Begin(SpanName::kCoreRefine, request, root);
  auto ids = ix->RefineWindowCandidates(w, std::move(cands).value(), &qs);
  log->End(s);
  if (!ids.ok()) return ids.status();

  s = log->Begin(SpanName::kCoreUnpin, request, root);
  scope.value().reset();
  pin.Release();
  log->End(s);

  s = log->Begin(SpanName::kNetEncodeReply, request, root);
  const std::string payload = net::EncodeIdListReply(epoch, epoch, *ids);
  log->End(s);

  s = log->Begin(SpanName::kNetDecodeReply, request, root);
  std::string_view body;
  std::string message;
  uint64_t e0 = 0, e1 = 0;
  std::vector<ObjectId> decoded;
  const bool ok =
      net::ParseReplyStatus(payload, &body, &message) == net::WireError::kOk &&
      net::DecodeIdListReplyBody(body, &e0, &e1, &decoded);
  log->End(s);
  log->End(root);
  if (!ok || decoded != *ids) {
    return Status::Corruption("reply codec round trip changed the ids");
  }
  return decoded;
}

void ReadReplay(const Inputs& in, DB* db, size_t thread, size_t offset,
                bool check, Clock::time_point deadline, ThreadState* out) {
  SpatialIndex* ix = db->index();
  uint64_t seq = 0;
  for (size_t pos = offset; Clock::now() < deadline; ++pos) {
    const ReadOp& op = in.ops[pos % in.ops.size()];
    const uint64_t request = (static_cast<uint64_t>(thread) << 40) | ++seq;
    if (op.kind == OpKind::kWindow) {
      const Rect& w = in.windows[op.index];
      const auto& expected = in.window_answers[op.index];
      out->attempted += 2;
      // Alternate which of the two runs first, so neither always finds
      // the other's cache lines warm.
      auto decomposed = [&] {
        auto ids = DecomposedWindow(ix, w, request, out->log.get());
        if (!ids.ok()) {
          out->Fail("replay.window: " + ids.status().ToString());
        } else if (check && *ids != expected) {
          out->Fail("replay.window " + std::to_string(op.index) +
                    ": differs from the oracle");
        }
      };
      QueryStats qs;
      auto whole = [&] {
        const int32_t s = out->log->Begin(SpanName::kZdbWindow, request);
        auto ids = db->Window(w, &qs);
        out->log->End(s);
        if (!ids.ok()) {
          out->Fail("zdb.window: " + ids.status().ToString());
        } else if (check && *ids != expected) {
          out->Fail("zdb.window " + std::to_string(op.index) +
                    ": differs from the oracle");
        }
      };
      if (seq % 2 == 0) {
        decomposed();
        whole();
      } else {
        whole();
        decomposed();
      }
      out->window_stats.Add(qs);
      ++out->windows;
    } else if (op.kind == OpKind::kKnn) {
      const Point& p = in.knn_points[op.index];
      ++out->attempted;
      QueryStats qs;
      uint32_t rounds = 0;
      const int32_t s = out->log->Begin(SpanName::kCoreKnn, request);
      auto hits = ix->NearestNeighbors(p, kKnnK, &qs, &rounds);
      out->log->End(s);
      if (!hits.ok()) {
        out->Fail("core.knn: " + hits.status().ToString());
      } else if (check && !KnnMatches(in.knn_answers[op.index], *hits,
                                      in.data, p)) {
        out->Fail("core.knn " + std::to_string(op.index) +
                  ": differs from the oracle");
      }
      out->knn_rounds += rounds;
      ++out->knns;
    }
  }
}

void WriteReplay(DB* db, size_t thread, BatchStream* stream,
                 Clock::time_point deadline, ThreadState* out) {
  Pacer pacer;
  uint64_t seq = 0;
  while (Clock::now() < deadline) {
    pacer.Wait();
    const WriteBatch batch = stream->Next();
    const uint64_t request = (static_cast<uint64_t>(thread) << 40) | ++seq;
    ++out->attempted;
    const int32_t root = out->log->Begin(SpanName::kReplayApply, request);
    int32_t s = out->log->Begin(SpanName::kApplyPublish, request, root);
    auto ids = db->Apply(batch, Durability::kPublished);
    out->log->End(s);
    // The batch's own epoch is not returned; the epoch read right after
    // the publish is at or past it, so the wait may also cover a
    // concurrent writer's later batch.
    s = out->log->Begin(SpanName::kApplyWaitDurable, request, root);
    const Status durable = ids.ok() ? db->WaitDurable(db->write_epoch())
                                    : ids.status();
    out->log->End(s);
    out->log->End(root);
    if (!durable.ok() || ids->size() != kBatchInserts) {
      out->Fail("replay.apply: " + (durable.ok() ? std::string("bad ids")
                                                 : durable.ToString()));
      continue;
    }
    stream->Acked(*ids);
    ++out->batches;
  }
}

}  // namespace

ReplayResult RunReplay(const WorkloadSpec& spec, const Inputs& in, DB* db,
                       std::vector<BatchStream>* writers, double seconds) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const bool check = writers->empty();
  std::vector<ThreadState> per(spec.readers + writers->size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < static_cast<size_t>(spec.readers); ++i) {
    threads.emplace_back(ReadReplay, std::cref(in), db, i,
                         i * in.ops.size() / spec.readers, check, deadline,
                         &per[i]);
  }
  for (size_t w = 0; w < writers->size(); ++w) {
    const size_t i = spec.readers + w;
    threads.emplace_back(WriteReplay, db, i, &(*writers)[w], deadline,
                         &per[i]);
  }
  for (auto& t : threads) t.join();

  ReplayResult res;
  for (ThreadState& t : per) {
    res.window_stats.Add(t.window_stats);
    res.windows += t.windows;
    res.knn_rounds += t.knn_rounds;
    res.knns += t.knns;
    res.batches += t.batches;
    res.attempted += t.attempted;
    res.failed += t.failed;
    if (res.first_failure.empty()) res.first_failure = t.first_failure;
    res.logs.push_back(std::move(t.log));
  }
  return res;
}

}  // namespace zdb::bench
