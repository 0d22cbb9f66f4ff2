// Copyright (c) zdb authors. Licensed under the MIT license.
//
// zdb-bench: loads a data set into a file-backed zdb::DB, serves it
// through net::Server(DB*) on loopback in this process, drives it from
// closed-loop net::Client connections for a fixed time, checks every
// answer and prints every metric by name with its unit. The last line
// of standard output is one JSON object: the end-to-end metrics of an
// untraced run, or (--trace 1) the per-layer metrics of a traced run,
// which adds client spans, counter deltas and an in-process layer
// replay. See run.py for how it is built and invoked.
//
//   zdb_bench --workload hot_read --seed 1 --seconds 10 --trace 0
//             --out <dir> [--rev <source revision>]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "load.h"
#include "replay.h"
#include "server/server.h"
#include "trace.h"
#include "workload.h"
#include "zdb/db.h"

#ifndef ZDB_BENCH_BUILD_TYPE
#define ZDB_BENCH_BUILD_TYPE "unknown"
#endif

namespace zdb::bench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr int kSetupRepeats = 3;
constexpr double kReplaySeconds = 2.0;
/// A traced run first measures the untraced read rate (for
/// trace.overhead_ratio) over this share of --seconds.
constexpr double kBaselineShare = 0.25;
constexpr size_t kDurabilityWindows = 64;
/// Rates are the median over slices of the timed window this long, so
/// a stall that hits a few slices does not move them.
constexpr double kIntervalSeconds = 1.0;
/// The decomposed replay's core self times must cover the zdb.window
/// span to within this share.
constexpr double kCoverageTolerance = 0.2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string rev = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--rev") {
      a->rev = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->out.empty();
}

/// Timing numbers from a Debug or sanitizer build are not reported.
const char* UnfitBuild() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return "assertions on or optimisation off";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (std::strcmp(ZDB_BENCH_BUILD_TYPE, "Debug") == 0) return "Debug build";
  return nullptr;
#endif
}

net::ServerOptions FixedServerOptions() {
  net::ServerOptions o;  // the defaults, on an ephemeral loopback port
  o.host = "127.0.0.1";
  o.port = 0;
  return o;
}

// ------------------------------------------------------------- set-up

/// A served DB. The server is declared last so it stops first.
struct Service {
  std::unique_ptr<DB> db;
  std::unique_ptr<net::Server> server;
};

void RemoveDbFiles(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path + "-journal", ec);
}

/// Open + generate + BulkLoad + Checkpoint + warm-up + server start.
Result<Service> SetUp(const WorkloadSpec& spec, const std::string& path,
                      const std::vector<Rect>& expected_data) {
  RemoveDbFiles(path);
  DBOptions opt;
  opt.cache_pages = spec.cache_pages;
  Service s;
  ZDB_ASSIGN_OR_RETURN(s.db, DB::Open(path, opt));
  const std::vector<Rect> data = GenerateDataSet(spec);
  if (!(data == expected_data)) {
    return Status::Corruption("data set generation is not deterministic");
  }
  ZDB_RETURN_IF_ERROR(s.db->BulkLoad(data));
  ZDB_RETURN_IF_ERROR(s.db->Checkpoint());
  // One whole-world window touches every index leaf and object record,
  // so a pool that can hold the file holds all of it afterwards.
  std::vector<ObjectId> all;
  ZDB_ASSIGN_OR_RETURN(all, s.db->Window(Rect{0, 0, 1, 1}));
  if (all.size() != data.size()) {
    return Status::Corruption("warm-up scan missed objects");
  }
  s.server = std::make_unique<net::Server>(s.db.get(), FixedServerOptions());
  ZDB_RETURN_IF_ERROR(s.server->Start());
  return s;
}

void TearDown(Service* s, const std::string& path) {
  if (s->server) s->server->Stop();
  s->server.reset();
  s->db.reset();
  RemoveDbFiles(path);
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  ///< sample count or ratio base, printed alongside
};

struct Percentiles {
  double p50 = 0, p90 = 0, p99 = 0;
  size_t n = 0, beyond_p99 = 0;
};

Percentiles Percentile(std::vector<double> v) {
  Percentiles p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  auto rank = [&](double q) {
    const size_t r = static_cast<size_t>(std::ceil(q * v.size()));
    return v[std::max<size_t>(r, 1) - 1];
  };
  p.p50 = rank(0.50);
  p.p90 = rank(0.90);
  p.p99 = rank(0.99);
  p.beyond_p99 = v.end() - std::upper_bound(v.begin(), v.end(), p.p99);
  return p;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : (v[(n - 1) / 2] + v[n / 2]) / 2;
}

/// Completed requests per second in each of the equal slices of the
/// timed window, about kIntervalSeconds long (the few requests
/// completing after the window join the last slice).
std::vector<double> IntervalRates(
    const std::vector<const std::vector<Sample>*>& streams, double seconds) {
  const size_t n = std::max<size_t>(
      4, static_cast<size_t>(std::lround(seconds / kIntervalSeconds)));
  std::vector<double> rates(n, 0);
  for (const auto* stream : streams) {
    for (const Sample& s : *stream) {
      const size_t i =
          std::min(n - 1, static_cast<size_t>(s.end_s * n / seconds));
      rates[i] += n / seconds;
    }
  }
  return rates;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<double> LatenciesUs(const std::vector<Sample>& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const Sample& s : v) out.push_back(s.us);
  return out;
}

double MeanUs(const std::vector<Sample>& v) {
  double s = 0;
  for (const Sample& x : v) s += x.us;
  return Ratio(s, v.size());
}

/// File pages times page size per live object: the space cost of the
/// redundant index, data and directories together.
double BytesPerObject(const DBStats& s) {
  return Ratio(static_cast<double>(s.pages) * s.page_size, s.objects);
}

double PeakRssMiB() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += JsonString(ms[i].name) + ": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": " + JsonString(ms[i].unit) + "}";
  }
  return out + "}";
}

// ------------------------------------------------------- durability

/// The live set after every acked batch: bulk-loaded objects minus the
/// acked erases plus the acked inserts with the ids the server returned.
std::vector<std::pair<ObjectId, Rect>> AckedLiveSet(
    const std::vector<Rect>& data, const std::vector<BatchStream>& writers) {
  std::vector<std::pair<ObjectId, Rect>> all;
  for (ObjectId i = 0; i < data.size(); ++i) all.push_back({i, data[i]});
  std::vector<ObjectId> erased;
  for (const BatchStream& w : writers) {
    all.insert(all.end(), w.inserted().begin(), w.inserted().end());
    erased.insert(erased.end(), w.erased().begin(), w.erased().end());
  }
  std::sort(erased.begin(), erased.end());
  std::vector<std::pair<ObjectId, Rect>> live;
  for (const auto& e : all) {
    if (!std::binary_search(erased.begin(), erased.end(), e.first)) {
      live.push_back(e);
    }
  }
  return live;
}

/// Reopens `path` and checks the object count and a fixed set of
/// windows against `live`.
Status VerifyReopened(const std::string& path, const WorkloadSpec& spec,
                      const std::vector<std::pair<ObjectId, Rect>>& live,
                      const std::vector<Rect>& windows) {
  DBOptions opt;
  opt.cache_pages = spec.cache_pages;
  std::unique_ptr<DB> db;
  ZDB_ASSIGN_OR_RETURN(db, DB::Open(path, opt));
  if (db->Stats().objects != live.size()) {
    return Status::Corruption(
        "reopened object count " + std::to_string(db->Stats().objects) +
        " != acked live set " + std::to_string(live.size()));
  }
  for (size_t q = 0; q < kDurabilityWindows && q < windows.size(); ++q) {
    std::vector<ObjectId> got;
    ZDB_ASSIGN_OR_RETURN(got, db->Window(windows[q]));
    if (got != BruteWindow(live, windows[q])) {
      return Status::Corruption("reopened window " + std::to_string(q) +
                                " differs from the acked-batch oracle");
    }
  }
  return Status::OK();
}

/// Copies the files once every acked batch is durable (a crash image:
/// the armed journal rolls back to the last durable group on open),
/// closes the service cleanly, and reopens both copies.
Status CheckDurability(Service* svc, const std::string& path,
                       const std::string& crash, const WorkloadSpec& spec,
                       const Inputs& in,
                       const std::vector<BatchStream>& writers,
                       size_t* live_objects) {
  RemoveDbFiles(crash);
  std::error_code ec;
  fs::copy_file(path, crash, ec);
  if (!ec && fs::exists(path + "-journal")) {
    fs::copy_file(path + "-journal", crash + "-journal", ec);
  }
  svc->server->Stop();
  svc->server.reset();
  svc->db.reset();
  if (ec) return Status::IOError("crash image copy: " + ec.message());
  const auto live = AckedLiveSet(in.data, writers);
  *live_objects = live.size();
  Status st = VerifyReopened(path, spec, live, in.windows);
  if (st.ok()) st = VerifyReopened(crash, spec, live, in.windows);
  RemoveDbFiles(crash);
  return st;
}

// ------------------------------------------------------------- report

void PrintHeader(const Args& a, const WorkloadSpec& spec, const Inputs& in) {
  const net::ServerOptions so = FixedServerOptions();
  const DBOptions dbo;
  std::printf("zdb-bench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);
  std::printf("  build: rev=%s type=%s compiler=\"%s\" nproc=%ld\n",
              a.rev.c_str(), ZDB_BENCH_BUILD_TYPE, __VERSION__,
              sysconf(_SC_NPROCESSORS_ONLN));
  const double ops = in.ops.size();
  std::printf(
      "  data: %zu objects %s; queries (one per grid cell, seeded): %zu "
      "windows of area %g, %zu points, %zu kNN points (k=%u); read stream "
      "%zu ops, each query %u/%u/%u times, mix window %.2f point %.2f knn "
      "%.2f\n",
      spec.objects, DistributionName(spec.distribution).c_str(),
      in.windows.size(), spec.window_area, in.points.size(),
      in.knn_points.size(), kKnnK, in.ops.size(), spec.window_repeats,
      spec.point_repeats, spec.knn_repeats,
      in.windows.size() * spec.window_repeats / ops,
      in.points.size() * spec.point_repeats / ops,
      in.knn_points.size() * spec.knn_repeats / ops);
  std::printf(
      "  load: closed loop, %d reader + %d writer connections; writers "
      "paced to one batch per %g ms, batches of %zu inserts + %zu "
      "erases\n",
      spec.readers, spec.writers, kWriterPeriodMs, kBatchInserts,
      kBatchErases);
  std::printf(
      "  DBOptions: page_size=%u cache_pages=%zu shards=%u group_commit=%d "
      "snapshot_reads=%d grid_bits=%u data=size-bound(%u) "
      "query=size-bound(%u) store_mbr_in_leaf=%d\n",
      dbo.page_size, spec.cache_pages, dbo.shards, dbo.group_commit,
      dbo.snapshot_reads, dbo.index.grid_bits, dbo.index.data.max_elements,
      dbo.index.query.max_elements, dbo.index.store_mbr_in_leaf);
  std::printf(
      "  ServerOptions: net_threads=%zu workers=%zu exec_threads=%zu "
      "queue_capacity=%zu parallel_window_area=%g\n",
      so.net_threads, so.workers, so.exec_threads, so.queue_capacity,
      so.parallel_window_area);
  std::printf(
      "  flush policy: file-backed DB with rollback journal; group-commit "
      "pipeline, one fdatasync of file + journal per commit group; writers "
      "ack on kDurable\n");
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-34s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

double ReadQps(const LoadResult& load, double seconds) {
  return Median(
      IntervalRates({&load.window_us, &load.point_us, &load.knn_us}, seconds));
}

double PoolHitRate(const LoadResult& load) {
  const double hits = load.after.pool_hits - load.before.pool_hits;
  const double misses = load.after.pool_misses - load.before.pool_misses;
  return Ratio(hits, hits + misses);
}

double PageReadsPerQuery(const LoadResult& load) {
  return Ratio(load.after.page_reads - load.before.page_reads, load.reads);
}

std::string SampleBase(const Percentiles& p) {
  return "n=" + std::to_string(p.n) + ", " + std::to_string(p.beyond_p99) +
         " beyond p99";
}

/// The traced run's per-layer metrics (besides the per-operation ones).
/// `*coverage` receives the share of the zdb.window span that the core
/// self times account for.
std::vector<Metric> LayerMetrics(const Args& a, const WorkloadSpec& spec,
                                 const LoadResult& load,
                                 const ReplayResult& replay,
                                 const DBStats& fin, double untraced_qps,
                                 double* coverage) {
  const Counters& c0 = load.before;
  const Counters& c1 = load.after;
  const double reads = load.reads;
  const double batches = load.batches;
  const double win_n = load.window_us.size();
  const std::string read_base = "reads=" + std::to_string(load.reads);
  const std::string batch_base = "batches=" + std::to_string(load.batches);

  std::vector<const SpanLog*> logs;
  for (const auto& l : load.logs) logs.push_back(l.get());
  for (const auto& l : replay.logs) logs.push_back(l.get());
  const SpanSummary sum = Summarize(logs);
  const std::string spans_path = a.out + "/spans-" + spec.name + ".tsv";
  if (!WriteSpans(spans_path, logs)) {
    std::fprintf(stderr, "could not write %s\n", spans_path.c_str());
  }
  auto exec_us = [&](net::Opcode op) {
    const size_t i = static_cast<size_t>(op);
    return Ratio(c1.op_micros[i] - c0.op_micros[i],
                 c1.op_count[i] - c0.op_count[i]);
  };
  const double pin = sum.MeanSelfUs(SpanName::kCorePin) +
                     sum.MeanSelfUs(SpanName::kCoreUnpin);
  const double plan = sum.MeanSelfUs(SpanName::kCorePlan);
  const double scan = sum.MeanSelfUs(SpanName::kCoreScan);
  const double refine = sum.MeanSelfUs(SpanName::kCoreRefine);
  const double zdb_window = sum.MeanUs(SpanName::kZdbWindow);
  const QueryStats& qs = replay.window_stats;
  const double wins = replay.windows;
  const std::string win_base =
      "replayed windows=" + std::to_string(replay.windows);
  const uint64_t commits = c1.db.journal_commits - c0.db.journal_commits;
  *coverage = Ratio(pin + plan + scan + refine, zdb_window);
  return {
      {"server.exec_us.window", exec_us(net::Opcode::kWindow), "us", ""},
      {"server.exec_us.point", exec_us(net::Opcode::kPoint), "us", ""},
      {"server.exec_us.knn", exec_us(net::Opcode::kKnn), "us", ""},
      {"server.exec_us.apply", exec_us(net::Opcode::kApply), "us", ""},
      {"server.overhead_us.window",
       win_n ? MeanUs(load.window_us) - exec_us(net::Opcode::kWindow) : 0,
       "us", "mean client RTT - server exec"},
      {"server.busy_rejected",
       static_cast<double>(c1.busy_rejected - c0.busy_rejected), "count",
       ""},
      {"server.framing_errors",
       static_cast<double>(c1.framing_errors - c0.framing_errors), "count",
       ""},
      {"net.reply_bytes.window", Ratio(load.window_reply_bytes, win_n),
       "B", "n=" + std::to_string(load.window_us.size())},
      {"net.codec_us.window",
       sum.MeanUs(SpanName::kNetEncodeReply) +
           sum.MeanUs(SpanName::kNetDecodeReply),
       "us", win_base},
      {"zdb.window_us", zdb_window, "us", win_base},
      {"zdb.facade_us.window", zdb_window - (pin + plan + scan + refine),
       "us", win_base},
      {"core.pin_us", pin, "us", "pin+snapshot open and close"},
      {"core.plan_us", plan, "us", win_base},
      {"core.scan_us", scan, "us", win_base},
      {"core.refine_us", refine, "us", win_base},
      {"core.knn_us", sum.MeanUs(SpanName::kCoreKnn), "us",
       "replayed knn=" + std::to_string(replay.knns)},
      {"core.knn_rounds", Ratio(replay.knn_rounds, replay.knns), "count",
       "per knn"},
      {"core.query_elements", Ratio(qs.query_elements, wins), "count",
       "per window"},
      {"core.ancestor_probes", Ratio(qs.ancestor_probes, wins), "count",
       "per window"},
      {"core.candidates", Ratio(qs.candidates, wins), "count",
       "per window"},
      {"core.results", Ratio(qs.results, wins), "count", "per window"},
      {"core.duplicate_ratio", Ratio(qs.duplicates(), qs.candidates),
       "ratio", "duplicates / candidates"},
      {"core.false_hit_ratio", Ratio(qs.false_hits, qs.unique_candidates),
       "ratio", "false hits / unique candidates"},
      {"core.redundancy", fin.redundancy, "count", "entries per object"},
      {"btree.entries_scanned", Ratio(qs.index_entries, wins), "count",
       "per window"},
      {"btree.bigmin_jumps", Ratio(qs.bigmin_jumps, wins), "count",
       "per window"},
      {"storage.page_reads_per_query", PageReadsPerQuery(load), "count",
       read_base},
      {"storage.pool_hit_rate", PoolHitRate(load), "ratio",
       "hits / (hits + misses)"},
      {"storage.evictions_per_query",
       Ratio(c1.pool_evictions - c0.pool_evictions, reads), "count",
       read_base},
      {"storage.page_writes_per_batch",
       Ratio(c1.page_writes - c0.page_writes, batches), "count",
       batch_base},
      {"commit.batches_per_commit", Ratio(batches, commits), "count",
       "commits=" + std::to_string(commits)},
      {"commit.durable_lag_epochs",
       static_cast<double>(load.max_durable_lag), "count", "max sampled"},
      {"zdb.apply_publish_us", sum.MeanUs(SpanName::kApplyPublish), "us",
       "replayed batches=" + std::to_string(replay.batches)},
      {"zdb.apply_durable_wait_us",
       sum.MeanUs(SpanName::kApplyWaitDurable), "us",
       "replayed batches=" + std::to_string(replay.batches)},
      {"epoch.pins_per_query",
       Ratio(c1.db.pins_taken - c0.db.pins_taken, reads), "count",
       read_base},
      {"snapshot.versions_saved_per_batch",
       Ratio(c1.db.versions_saved - c0.db.versions_saved, batches),
       "count", batch_base},
      {"snapshot.version_bytes_peak",
       static_cast<double>(load.max_version_bytes), "B", "max sampled"},
      {"trace.overhead_ratio", Ratio(ReadQps(load, a.seconds), untraced_qps),
       "ratio", "traced / untraced read_qps"},
  };
}

int Run(const Args& a) {
  const WorkloadSpec* spec = FindWorkload(a.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  if (const char* why = UnfitBuild()) {
    std::fprintf(stderr, "refusing to report from this build: %s\n", why);
    return 2;
  }
  std::error_code ec;
  fs::create_directories(a.out, ec);
  const std::string path = a.out + "/" + spec->name + ".zdb";

  // Inputs and the oracle, before (and outside) the timed set-up.
  Inputs in = MakeQueries(*spec, a.seed);
  in.data = GenerateDataSet(*spec);
  const auto oracle_t0 = Clock::now();
  ComputeOracle(&in);
  const double oracle_s =
      std::chrono::duration<double>(Clock::now() - oracle_t0).count();
  PrintHeader(a, *spec, in);
  std::printf("  oracle precomputation: %.3f s (not in setup_s)\n",
              oracle_s);

  // Set up several times; report the median, serve from the last.
  std::vector<double> setup_times;
  Service svc;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) TearDown(&svc, path);
    const auto t0 = Clock::now();
    auto s = SetUp(*spec, path, in.data);
    setup_times.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   s.status().ToString().c_str());
      return 2;
    }
    svc = std::move(s).value();
  }
  DB* db = svc.db.get();
  // Space of the loaded data set, before any workload churn.
  const DBStats loaded = db->Stats();

  std::vector<BatchStream> writers;
  for (int w = 0; w < spec->writers; ++w) {
    std::vector<ObjectId> owned;
    for (ObjectId oid = w; oid < in.data.size(); oid += spec->writers) {
      owned.push_back(oid);
    }
    writers.emplace_back(a.seed, w, std::move(owned));
  }

  LoadOptions lo;
  lo.port = svc.server->port();
  lo.seconds = a.seconds;
  double untraced_qps = 0;
  uint64_t attempted = 0, failed = 0, mismatches = 0;
  std::string first_failure;
  auto tally = [&](uint64_t att, uint64_t fail, uint64_t mis,
                   const std::string& first) {
    attempted += att;
    failed += fail;
    mismatches += mis;
    if (first_failure.empty()) first_failure = first;
  };
  if (a.trace) {
    // The untraced rate first, for trace.overhead_ratio.
    LoadOptions base_opt = lo;
    base_opt.seconds = std::max(1.0, a.seconds * kBaselineShare);
    LoadResult base = RunLoad(*spec, in, db, *svc.server, &writers, base_opt);
    tally(base.attempted, base.failed, base.mismatches, base.first_failure);
    untraced_qps = ReadQps(base, base_opt.seconds);
  }
  lo.trace = a.trace;
  LoadResult load = RunLoad(*spec, in, db, *svc.server, &writers, lo);
  tally(load.attempted, load.failed, load.mismatches, load.first_failure);
  ReplayResult replay;
  if (a.trace) {
    replay = RunReplay(*spec, in, db, &writers, kReplaySeconds);
    tally(replay.attempted, replay.failed, replay.failed,
          replay.first_failure);
  }

  const double pool_hit_rate = PoolHitRate(load);
  const double page_reads_per_query = PageReadsPerQuery(load);
  const std::vector<double> read_rates = IntervalRates(
      {&load.window_us, &load.point_us, &load.knn_us}, a.seconds);

  // Space after the run's churn, at a final checkpoint.
  Status st = db->Checkpoint();
  const DBStats fin = db->Stats();

  std::string durability = "not run (no writers)";
  if (st.ok() && !writers.empty()) {
    size_t live = 0;
    st = CheckDurability(&svc, path, a.out + "/" + spec->name + ".crash.zdb",
                         *spec, in, writers, &live);
    durability = st.ok() ? "pass (" + std::to_string(live) +
                               " live objects, clean close and crash image)"
                         : "FAIL";
  }
  if (!st.ok()) tally(1, 1, 1, "durability: " + st.ToString());
  TearDown(&svc, path);

  // ---- metrics
  const Percentiles win = Percentile(LatenciesUs(load.window_us));
  const Percentiles pt = Percentile(LatenciesUs(load.point_us));
  const Percentiles knn = Percentile(LatenciesUs(load.knn_us));
  const Percentiles app = Percentile(LatenciesUs(load.apply_us));
  const double error_ratio = Ratio(failed, attempted);
  const std::string err_base = std::to_string(failed) + " failed / " +
                               std::to_string(attempted) + " attempted, " +
                               std::to_string(mismatches) +
                               " oracle mismatches";
  const std::string read_base = "reads=" + std::to_string(load.reads);
  const std::string batch_base = "batches=" + std::to_string(load.batches);

  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_times), "s",
       "median of " + std::to_string(kSetupRepeats) + " set-ups"},
      {"read_qps", Median(read_rates), "1/s", read_base},
      {"server_cpu_us_per_op",
       Ratio(load.server_cpu_s * 1e6, load.reads + load.batches), "us",
       "server threads' CPU time / (reads + batches)"},
      {"window_p50_us", win.p50, "us", SampleBase(win)},
      {"window_p90_us", win.p90, "us", SampleBase(win)},
      {"point_p50_us", pt.p50, "us", SampleBase(pt)},
      {"stored_bytes_per_object", BytesPerObject(loaded), "B",
       "after set-up: pages=" + std::to_string(loaded.pages) +
           " objects=" + std::to_string(loaded.objects)},
      {"peak_rss_mb", PeakRssMiB(), "MiB", "VmHWM"},
  };
  // Unbounded: the tails too noisy on a shared VM to bound, ops only one
  // workload runs, the failure ratio, and space after the run's churn.
  std::vector<Metric> op_metrics = {
      {"window_p99_us", win.p99, "us", SampleBase(win)},
      {"point_p90_us", pt.p90, "us", SampleBase(pt)},
      {"point_p99_us", pt.p99, "us", SampleBase(pt)},
      {"knn_p50_us", knn.p50, "us", SampleBase(knn)},
      {"knn_p99_us", knn.p99, "us", SampleBase(knn)},
      {"apply_p50_us", app.p50, "us", SampleBase(app)},
      {"apply_p99_us", app.p99, "us", SampleBase(app)},
      {"write_batches_per_s",
       Median(IntervalRates({&load.apply_us}, a.seconds)), "1/s", batch_base},
      {"error_ratio", error_ratio, "ratio", err_base},
      {"storage.bytes_per_object_after_run", BytesPerObject(fin), "B",
       "pages=" + std::to_string(fin.pages) +
           " objects=" + std::to_string(fin.objects)},
  };

  std::vector<Metric> layer;
  double coverage = 0;
  if (a.trace) {
    layer = op_metrics;
    const std::vector<Metric> more =
        LayerMetrics(a, *spec, load, replay, fin, untraced_qps, &coverage);
    layer.insert(layer.end(), more.begin(), more.end());
  }

  PrintMetrics("end-to-end", e2e);
  PrintMetrics("unbounded", op_metrics);
  if (a.trace) PrintMetrics("per-layer (traced run)", layer);
  std::printf("  read rate per interval (1/s):");
  for (double r : read_rates) std::printf(" %.1f", r);
  std::printf("\n  durability check: %s\n", durability.c_str());
  if (!first_failure.empty()) {
    std::printf("  first failure: %s\n", first_failure.c_str());
  }

  // ---- run validity: guards and percentile honesty
  std::vector<std::string> invalid;
  if (std::string(spec->name) == "hot_read" && pool_hit_rate < 0.999) {
    invalid.push_back("hot_read pool hit rate " + Num(pool_hit_rate) +
                      " < 0.999");
  }
  if (std::string(spec->name) == "cold_scan") {
    if (fin.pages < 10 * spec->cache_pages) {
      invalid.push_back("cold_scan file has " + std::to_string(fin.pages) +
                        " pages, under 10x the pool");
    }
    if (!(page_reads_per_query > 0)) {
      invalid.push_back("cold_scan read no pages");
    }
  }
  for (const auto& [name, p] : {std::pair{"window", win}, {"point", pt},
                                {"knn", knn}, {"apply", app}}) {
    if (p.n > 0 && p.beyond_p99 < 10) {
      invalid.push_back(std::string(name) + " p99 has only " +
                        std::to_string(p.beyond_p99) +
                        " samples beyond it");
    }
  }
  if (a.trace) {
    std::printf(
        "  layer coverage: core self times = %.3f x zdb.window, %s the "
        "%.0f%% tolerance\n",
        coverage,
        std::abs(coverage - 1) <= kCoverageTolerance ? "within" : "OUTSIDE",
        kCoverageTolerance * 100);
  }
  for (const std::string& s : invalid) {
    std::printf("  invalid run: %s\n", s.c_str());
  }

  // ---- results file and the final line
  const bool correct = failed == 0;
  const std::vector<Metric>& reported = a.trace ? layer : e2e;
  const std::string result_json =
      "{\"workload\": " + JsonString(spec->name) +
      ", \"seed\": " + std::to_string(a.seed) +
      ", \"seconds\": " + Num(a.seconds) +
      ", \"trace\": " + (a.trace ? "1" : "0") +
      ", \"rev\": " + JsonString(a.rev) +
      ", \"build_type\": " + JsonString(ZDB_BENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(__VERSION__) +
      ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"objects\": " + std::to_string(spec->objects) +
      ", \"distribution\": " +
      JsonString(DistributionName(spec->distribution)) +
      ", \"cache_pages\": " + std::to_string(spec->cache_pages) +
      ", \"readers\": " + std::to_string(spec->readers) +
      ", \"writers\": " + std::to_string(spec->writers) +
      ", \"durability\": " + JsonString(durability) +
      ", \"end_to_end\": " + MetricsJson(e2e) +
      ", \"per_operation\": " + MetricsJson(op_metrics) +
      ", \"per_layer\": " + MetricsJson(layer) + "}\n";
  const std::string result_path = a.out + "/result-" + spec->name +
                                  "-seed" + std::to_string(a.seed) +
                                  "-trace" + (a.trace ? "1" : "0") + ".json";
  if (FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fputs(result_json.c_str(), f);
    std::fclose(f);
  }
  if (!invalid.empty()) return 3;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(reported).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace zdb::bench

int main(int argc, char** argv) {
  zdb::bench::Args args;
  if (!zdb::bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: zdb_bench --workload <hot_read|cold_scan|"
                 "durable_write> --seed <n> --seconds <s> --trace <0|1> "
                 "--out <dir> [--rev <rev>]\n");
    return 2;
  }
  return zdb::bench::Run(args);
}
