// Copyright (c) zdb authors. Licensed under the MIT license.
//
// zdb-bench workloads: the three named traffic mixes, the inputs each
// one derives from the seed, and the brute-force answer oracle every
// reply is checked against. Nothing here touches the engine; the oracle
// shares only the geometry predicates of geom/rect.h with it.

#ifndef ZDB_BENCH_WORKLOAD_H_
#define ZDB_BENCH_WORKLOAD_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/spatial_index.h"
#include "workload/datagen.h"

namespace zdb::bench {

/// One traffic mix. Reader connections cycle through a read stream in
/// which every query of the pools appears the given number of times;
/// writer connections send paced Apply(kDurable) batches.
struct WorkloadSpec {
  const char* name;
  Distribution distribution;
  size_t objects;
  size_t cache_pages;
  int readers;
  int writers;
  double window_area;  ///< fraction of the unit square
  /// Appearances of each window / point / kNN point in one cycle of the
  /// read stream; with the pool sizes below they set the mix (0 = the
  /// operation is not run).
  uint32_t window_repeats;
  uint32_t point_repeats;
  uint32_t knn_repeats;
};

/// The spec named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Query pools: one window centre per cell of a 64x64 grid, one point
/// and one kNN point per cell of a 32x32 grid.
inline constexpr uint32_t kWindowGrid = 64;
inline constexpr uint32_t kPointGrid = 32;

inline constexpr uint32_t kKnnK = 8;
inline constexpr size_t kBatchInserts = 16;
inline constexpr size_t kBatchErases = 8;
/// Each writer sends at most one batch per period, so the write load the
/// readers see does not follow how fast the disk syncs that day.
inline constexpr double kWriterPeriodMs = 20;

enum class OpKind : uint8_t { kWindow, kPoint, kKnn };

/// One read of the stream; `index` selects the window/point/kNN point.
struct ReadOp {
  OpKind kind;
  uint32_t index;
};

using KnnAnswer = std::vector<std::pair<ObjectId, double>>;

/// Everything a run derives from (spec, seed). The data set is the only
/// part built inside the timed set-up; the expected answers are
/// precomputed before it by ComputeOracle.
struct Inputs {
  std::vector<Rect> data;  ///< bulk-loaded; object id = position
  std::vector<Rect> windows;
  std::vector<Point> points;
  std::vector<Point> knn_points;
  /// The read stream, cycled by every reader: each query of the pools
  /// its spec's number of times, in a seeded random order.
  std::vector<ReadOp> ops;

  std::vector<std::vector<ObjectId>> window_answers;
  std::vector<std::vector<ObjectId>> point_answers;
  std::vector<KnnAnswer> knn_answers;
};

/// The bulk-load data set of `spec` (the same for every seed).
std::vector<Rect> GenerateDataSet(const WorkloadSpec& spec);

/// Queries and the read stream (not the data set).
Inputs MakeQueries(const WorkloadSpec& spec, uint64_t seed);

/// Brute-force expected answers for every query in `in` against
/// `in->data`.
void ComputeOracle(Inputs* in);

/// Brute-force answers against an arbitrary live set (the durability
/// check's oracle): ids of `live` whose rect intersects `w`, sorted.
std::vector<ObjectId> BruteWindow(
    const std::vector<std::pair<ObjectId, Rect>>& live, const Rect& w);

/// An exact kNN match: the same distances (to rounding), each reported
/// id at its true distance, and every object strictly closer than the
/// k-th distance present. Ties at the k-th distance may resolve to any
/// of the tied ids.
bool KnnMatches(const KnnAnswer& expected, const KnnAnswer& got,
                const std::vector<Rect>& data, const Point& p);

/// Holds a writer to one batch per kWriterPeriodMs. A batch whose ack
/// comes late is followed at once, without a catch-up burst.
class Pacer {
 public:
  Pacer() : next_(std::chrono::steady_clock::now()) {}

  /// Sleeps until the next slot and books the one after it.
  void Wait() {
    std::this_thread::sleep_until(next_);
    next_ = std::max(next_ + kPeriod, std::chrono::steady_clock::now());
  }

 private:
  static constexpr auto kPeriod =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(kWriterPeriodMs));
  std::chrono::steady_clock::time_point next_;
};

/// Deterministic writer batches: batch `n` of writer `w` inserts
/// kBatchInserts uniform small rects and erases kBatchErases ids drawn
/// from (and removed from) `*owned`, the writer's own live ids.
class BatchStream {
 public:
  BatchStream(uint64_t seed, int writer, std::vector<ObjectId> owned);

  WriteBatch Next();
  /// Records the ids the server assigned to the last batch's inserts;
  /// they join the owned set, so later batches may erase them.
  void Acked(const std::vector<ObjectId>& inserted);

  /// Inserts of every acked batch (oid, rect) and every acked erase.
  const std::vector<std::pair<ObjectId, Rect>>& inserted() const {
    return inserted_;
  }
  const std::vector<ObjectId>& erased() const { return erased_; }

 private:
  Random rng_;
  std::vector<ObjectId> owned_;
  WriteBatch pending_;
  std::vector<std::pair<ObjectId, Rect>> inserted_;
  std::vector<ObjectId> erased_;
};

}  // namespace zdb::bench

#endif  // ZDB_BENCH_WORKLOAD_H_
