// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The traced run's in-process layer replay: after the timed window the
// workload's own read stream (and, on durable_write, its batch stream)
// is replayed on the same DB with the workload's connection count as
// the thread count, and every call into a layer's public functions gets
// a span.

#ifndef ZDB_BENCH_REPLAY_H_
#define ZDB_BENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"
#include "zdb/db.h"

namespace zdb::bench {

struct ReplayResult {
  std::vector<std::unique_ptr<SpanLog>> logs;  ///< one per thread
  QueryStats window_stats;  ///< summed over the zdb.window calls
  uint64_t windows = 0;
  uint64_t knn_rounds = 0;  ///< summed over the core.knn calls
  uint64_t knns = 0;
  uint64_t batches = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
};

/// Replays for `seconds`. Read results are checked against the oracle
/// when no writer runs; replayed batches are acked into `writers`, so
/// the durability oracle covers them.
ReplayResult RunReplay(const WorkloadSpec& spec, const Inputs& in, DB* db,
                       std::vector<BatchStream>* writers, double seconds);

}  // namespace zdb::bench

#endif  // ZDB_BENCH_REPLAY_H_
