// Copyright (c) zdb authors. Licensed under the MIT license.

#include "load.h"

#include <atomic>
#include <chrono>
#include <thread>

#include <time.h>

#include "client/client.h"

namespace zdb::bench {

namespace {

using Clock = std::chrono::steady_clock;

/// The closed loop runs this long before timing starts, so connection
/// set-up and the first requests' cold caches stay out of the numbers.
constexpr double kWarmupSeconds = 2.0;

/// What one connection's thread measured.
struct ThreadResult {
  std::vector<Sample> window_us, point_us, knn_us, apply_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string first_failure;
  double window_reply_bytes = 0;
  /// This thread's CPU time while the window was timed.
  double cpu_s = 0;
  std::unique_ptr<SpanLog> log = std::make_unique<SpanLog>();

  void Fail(const std::string& what, bool mismatch) {
    ++failed;
    if (mismatch) ++mismatches;
    if (first_failure.empty()) first_failure = what;
  }
};

/// Shared run state: the start/stop flags and, while writers run, the
/// exclusive upper bound on any object id a reader may be shown.
struct RunState {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  /// Set after the warm-up; only requests sent from then on are timed.
  std::atomic<bool> measuring{false};
  Clock::time_point start;  ///< written before `measuring` is set
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> oid_bound{0};
};

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

Sample SampleOf(const RunState& st, Clock::time_point t0,
                Clock::time_point t1) {
  return {std::chrono::duration<double>(t1 - st.start).count(), Us(t0, t1)};
}

int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

void WaitForGo(RunState* st) {
  st->ready.fetch_add(1);
  while (!st->go.load(std::memory_order_acquire)) std::this_thread::yield();
}

/// Accumulates a load thread's CPU time from the first request it sends
/// inside the timed window to its last.
class CpuMeter {
 public:
  explicit CpuMeter(double* out) : out_(out) {}
  ~CpuMeter() {
    if (started_) *out_ = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - start_;
  }
  void Measuring() {
    if (!started_) start_ = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    started_ = true;
  }

 private:
  double* out_;
  bool started_ = false;
  double start_ = 0;
};

/// Beside writers the answer changes under the reader, so a reply is
/// checked for form: strictly ascending ids below the issued bound, and
/// every bulk-loaded object it names really matches the query (their
/// geometry never changes; erased ones may still show in older
/// snapshots).
template <typename Matches>
bool WellFormed(const std::vector<ObjectId>& ids, uint64_t bound,
                const std::vector<Rect>& data, Matches matches) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0 && ids[i] <= ids[i - 1]) return false;
    if (ids[i] >= bound) return false;
    if (ids[i] < data.size() && !matches(data[ids[i]])) return false;
  }
  return true;
}

void ReaderLoop(net::Client* client, size_t conn, size_t offset,
                const Inputs& in, const LoadOptions& opt, bool writes_active,
                RunState* st, ThreadResult* out) {
  WaitForGo(st);
  CpuMeter cpu(&out->cpu_s);
  uint64_t seq = 0;
  for (size_t pos = offset; !st->stop.load(std::memory_order_relaxed);
       ++pos) {
    const ReadOp& op = in.ops[pos % in.ops.size()];
    const uint64_t request = (static_cast<uint64_t>(conn) << 40) | ++seq;
    ++out->attempted;
    const bool measured = st->measuring.load(std::memory_order_acquire);
    if (measured) cpu.Measuring();
    const auto t0 = Clock::now();
    switch (op.kind) {
      case OpKind::kWindow: {
        const Rect& w = in.windows[op.index];
        auto r = client->Window(w);
        const auto t1 = Clock::now();
        if (!r.ok()) {
          out->Fail("WINDOW: " + r.status().ToString(), false);
          break;
        }
        const bool good =
            writes_active
                ? WellFormed(r->ids, st->oid_bound.load(), in.data,
                             [&](const Rect& o) { return o.Intersects(w); })
                : r->ids == in.window_answers[op.index];
        if (!good) {
          out->Fail("WINDOW " + std::to_string(op.index) +
                        ": reply differs from the oracle",
                    true);
          break;
        }
        if (measured) out->window_us.push_back(SampleOf(*st, t0, t1));
        if (opt.trace && measured) {
          out->log->Add(SpanName::kClientWindow, request, Ns(t0), Ns(t1));
          out->window_reply_bytes +=
              net::EncodeIdListReply(r->epoch_before, r->epoch_after,
                                     r->ids)
                  .size();
        }
        break;
      }
      case OpKind::kPoint: {
        const Point& p = in.points[op.index];
        auto r = client->Point(p);
        const auto t1 = Clock::now();
        if (!r.ok()) {
          out->Fail("POINT: " + r.status().ToString(), false);
          break;
        }
        const bool good =
            writes_active
                ? WellFormed(r->ids, st->oid_bound.load(), in.data,
                             [&](const Rect& o) { return o.Contains(p); })
                : r->ids == in.point_answers[op.index];
        if (!good) {
          out->Fail("POINT " + std::to_string(op.index) +
                        ": reply differs from the oracle",
                    true);
          break;
        }
        if (measured) out->point_us.push_back(SampleOf(*st, t0, t1));
        if (opt.trace && measured) {
          out->log->Add(SpanName::kClientPoint, request, Ns(t0), Ns(t1));
        }
        break;
      }
      case OpKind::kKnn: {
        const Point& p = in.knn_points[op.index];
        auto r = client->Nearest(p, kKnnK);
        const auto t1 = Clock::now();
        if (!r.ok()) {
          out->Fail("KNN: " + r.status().ToString(), false);
          break;
        }
        if (!KnnMatches(in.knn_answers[op.index], r->hits, in.data, p)) {
          out->Fail("KNN " + std::to_string(op.index) +
                        ": reply differs from the oracle",
                    true);
          break;
        }
        if (measured) out->knn_us.push_back(SampleOf(*st, t0, t1));
        if (opt.trace && measured) {
          out->log->Add(SpanName::kClientKnn, request, Ns(t0), Ns(t1));
        }
        break;
      }
    }
  }
}

void WriterLoop(net::Client* client, size_t conn, BatchStream* stream,
                const LoadOptions& opt, RunState* st, ThreadResult* out) {
  WaitForGo(st);
  CpuMeter cpu(&out->cpu_s);
  Pacer pacer;
  uint64_t seq = 0;
  while (!st->stop.load(std::memory_order_relaxed)) {
    pacer.Wait();
    const WriteBatch batch = stream->Next();
    const uint64_t request = (static_cast<uint64_t>(conn) << 40) | ++seq;
    st->oid_bound.fetch_add(kBatchInserts);
    ++out->attempted;
    const bool measured = st->measuring.load(std::memory_order_acquire);
    if (measured) cpu.Measuring();
    const auto t0 = Clock::now();
    auto r = client->Apply(batch, Durability::kDurable);
    const auto t1 = Clock::now();
    if (!r.ok()) {
      out->Fail("APPLY: " + r.status().ToString(), false);
      continue;
    }
    if (r->inserted.size() != kBatchInserts) {
      out->Fail("APPLY: wrong number of inserted ids", true);
      continue;
    }
    stream->Acked(r->inserted);
    if (measured) out->apply_us.push_back(SampleOf(*st, t0, t1));
    if (opt.trace && measured) {
      out->log->Add(SpanName::kClientApply, request, Ns(t0), Ns(t1));
    }
  }
}

void Append(std::vector<Sample>* to, const std::vector<Sample>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

Counters TakeCounters(const DB& db, const net::Server& server) {
  Counters c;
  const IoStats& io = db.io_stats();
  c.page_reads = io.page_reads.load(std::memory_order_relaxed);
  c.page_writes = io.page_writes.load(std::memory_order_relaxed);
  c.pool_hits = io.pool_hits.load(std::memory_order_relaxed);
  c.pool_misses = io.pool_misses.load(std::memory_order_relaxed);
  c.pool_evictions = io.pool_evictions.load(std::memory_order_relaxed);
  c.db = db.Stats();
  const net::ServerCounters& sc = server.counters();
  for (size_t op = 0; op < net::kOpcodeLimit; ++op) {
    c.op_count[op] = sc.ops[op].count.load(std::memory_order_relaxed);
    c.op_micros[op] = sc.ops[op].total_micros.load(std::memory_order_relaxed);
  }
  c.busy_rejected = sc.busy_rejected.load(std::memory_order_relaxed);
  c.framing_errors = sc.framing_errors.load(std::memory_order_relaxed);
  return c;
}

LoadResult RunLoad(const WorkloadSpec& spec, const Inputs& in, DB* db,
                   const net::Server& server,
                   std::vector<BatchStream>* writers,
                   const LoadOptions& opt) {
  LoadResult res;
  const std::string endpoint = "tcp://127.0.0.1:" + std::to_string(opt.port);
  const size_t conns = spec.readers + writers->size();
  std::vector<net::Client> clients;
  for (size_t i = 0; i < conns; ++i) {
    auto c = net::Client::Connect(endpoint);
    if (!c.ok()) {
      res.attempted = res.failed = 1;
      res.first_failure = "connect: " + c.status().ToString();
      return res;
    }
    clients.push_back(std::move(c).value());
  }

  RunState st;
  st.oid_bound = in.data.size();
  for (const BatchStream& w : *writers) st.oid_bound += w.inserted().size();
  std::vector<ThreadResult> per(conns);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < static_cast<size_t>(spec.readers); ++i) {
    const size_t offset = i * in.ops.size() / spec.readers;
    threads.emplace_back(ReaderLoop, &clients[i], i, offset, std::cref(in),
                         std::cref(opt), !writers->empty(), &st, &per[i]);
  }
  for (size_t w = 0; w < writers->size(); ++w) {
    const size_t i = spec.readers + w;
    threads.emplace_back(WriterLoop, &clients[i], i, &(*writers)[w],
                         std::cref(opt), &st, &per[i]);
  }
  while (st.ready.load() < static_cast<int>(conns)) std::this_thread::yield();

  // The sampler is part of tracing: it polls DB::Stats() for the
  // durability lag and the version-chain footprint.
  std::atomic<bool> sampler_stop{false};
  std::thread sampler;
  if (opt.trace) {
    sampler = std::thread([&] {
      while (!sampler_stop.load()) {
        const DBStats s = db->Stats();
        res.max_durable_lag = std::max(res.max_durable_lag,
                                       s.write_epoch - s.durable_epoch);
        res.max_version_bytes = std::max(res.max_version_bytes,
                                         s.version_bytes);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  st.go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  res.before = TakeCounters(*db, server);
  const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  st.start = Clock::now();
  st.measuring.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  st.stop.store(true);
  for (auto& t : threads) t.join();
  res.server_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  res.after = TakeCounters(*db, server);
  sampler_stop.store(true);
  if (sampler.joinable()) sampler.join();

  for (ThreadResult& t : per) {
    Append(&res.window_us, t.window_us);
    Append(&res.point_us, t.point_us);
    Append(&res.knn_us, t.knn_us);
    Append(&res.apply_us, t.apply_us);
    res.attempted += t.attempted;
    res.failed += t.failed;
    res.mismatches += t.mismatches;
    if (res.first_failure.empty()) res.first_failure = t.first_failure;
    res.window_reply_bytes += t.window_reply_bytes;
    res.server_cpu_s -= t.cpu_s;
    res.logs.push_back(std::move(t.log));
  }
  res.reads = res.window_us.size() + res.point_us.size() + res.knn_us.size();
  res.batches = res.apply_us.size();
  return res;
}

}  // namespace zdb::bench
