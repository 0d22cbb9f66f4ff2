// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The closed-loop load: one net::Client per connection, each sending
// its next request only after the previous reply arrived, for a fixed
// wall-clock window. Every reply is checked. Counter snapshots bracket
// the window.

#ifndef ZDB_BENCH_LOAD_H_
#define ZDB_BENCH_LOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.h"
#include "server/server.h"
#include "trace.h"
#include "workload.h"
#include "zdb/db.h"

namespace zdb::bench {

/// Engine, pool and server counters at one instant.
struct Counters {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  DBStats db;
  uint64_t op_count[net::kOpcodeLimit] = {};
  uint64_t op_micros[net::kOpcodeLimit] = {};
  uint64_t busy_rejected = 0;
  uint64_t framing_errors = 0;
};

Counters TakeCounters(const DB& db, const net::Server& server);

struct LoadOptions {
  uint16_t port = 0;
  double seconds = 1;
  bool trace = false;
};

/// One completed request: when it completed, counted from the start of
/// the timed window, and its client-observed latency.
struct Sample {
  double end_s;
  double us;
};

struct LoadResult {
  std::vector<Sample> window_us, point_us, knn_us, apply_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string first_failure;
  uint64_t reads = 0;
  uint64_t batches = 0;
  /// CPU time of every thread but the load connections' while the
  /// window was timed: the server's, as it shares the process.
  double server_cpu_s = 0;
  Counters before, after;

  // Traced runs only.
  std::vector<std::unique_ptr<SpanLog>> logs;  ///< one per connection
  double window_reply_bytes = 0;               ///< summed over windows
  uint64_t max_durable_lag = 0;                ///< write - durable epoch
  uint64_t max_version_bytes = 0;
};

/// Runs spec.readers reader connections (each walking in.ops from its
/// own offset) and one writer connection per `writers` entry against
/// the server on `opt.port` for opt.seconds. While writers run, readers
/// check replies for well-formedness only (the answers change under
/// them); otherwise every reply must equal the oracle's.
LoadResult RunLoad(const WorkloadSpec& spec, const Inputs& in, DB* db,
                   const net::Server& server,
                   std::vector<BatchStream>* writers,
                   const LoadOptions& opt);

}  // namespace zdb::bench

#endif  // ZDB_BENCH_LOAD_H_
