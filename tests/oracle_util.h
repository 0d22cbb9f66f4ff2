// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Shared brute-force oracle plumbing for the concurrency suites
// (stress_mixed_test.cc, snapshot_test.cc). One root seed derives a
// deterministic workload: an initial object set, a sequence of write
// batches (inserts + erases), the exact oracle state after each batch,
// and query sets to replay against any of those states.
//
// Two checking modes:
//   * range checks (Matches*InRange) — for auto-pinned concurrent readers,
//     whose answer must equal the oracle at exactly one epoch in the
//     [e0, e1] bracket the reader observed;
//   * exact-state checks (ExpectedWindow/ExpectedPoint/KnnMatchesState)
//     — for epoch-pinned snapshot readers, whose answer must equal the
//     oracle at precisely the pinned epoch, every time it is re-read.

#ifndef ZDB_TESTS_ORACLE_UTIL_H_
#define ZDB_TESTS_ORACLE_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/spatial_index.h"
#include "workload/datagen.h"
#include "workload/querygen.h"

namespace zdb {
namespace oracle {

/// Live set at one write-batch boundary.
using OracleState = std::map<ObjectId, Rect>;

/// Workload sizing. The defaults match the historical stress_mixed
/// shape; the snapshot suite uses smaller numbers (its oracle is
/// re-evaluated per pinned reader per iteration).
struct WorkloadShape {
  size_t initial_objects = 300;
  size_t batches = 12;
  size_t inserts_per_batch = 24;
  size_t erases_per_batch = 18;
  size_t window_queries = 18;
  size_t point_queries = 12;
  size_t knn_queries = 6;
  size_t knn_k = 5;
};

/// The full deterministic workload: per-epoch oracle states plus the
/// batches that step between them.
struct Workload {
  std::vector<Rect> initial;           ///< objects inserted before epoch 0
  std::vector<WriteBatch> batches;     ///< batches[k]: epoch k -> k+1
  std::vector<std::vector<ObjectId>> batch_oids;  ///< expected insert oids
  std::vector<OracleState> states;     ///< states[k]: after k batches
  std::vector<Rect> windows;
  std::vector<Point> points;
  std::vector<Point> knn_points;
};

inline Workload MakeWorkload(uint64_t seed,
                             const WorkloadShape& shape = {}) {
  Workload w;
  DataGenOptions dg;
  dg.distribution = Distribution::kClusters;
  dg.seed = seed;
  w.initial = GenerateData(shape.initial_objects, dg);

  OracleState state;
  for (size_t i = 0; i < w.initial.size(); ++i) {
    state[static_cast<ObjectId>(i)] = w.initial[i];
  }
  w.states.push_back(state);

  // Fresh rects for the batch inserts, drawn from a different stream.
  DataGenOptions dg2;
  dg2.distribution = Distribution::kUniformLarge;
  dg2.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  const auto extra =
      GenerateData(shape.batches * shape.inserts_per_batch, dg2);

  Random rng(seed + 1);
  ObjectId next_oid = static_cast<ObjectId>(w.initial.size());
  for (size_t b = 0; b < shape.batches; ++b) {
    WriteBatch batch;
    std::vector<ObjectId> oids;
    // Erase a random sample of the currently live objects...
    std::vector<ObjectId> live;
    live.reserve(state.size());
    for (const auto& [oid, rect] : state) live.push_back(oid);
    for (size_t e = 0; e < shape.erases_per_batch && !live.empty(); ++e) {
      const size_t pick = rng.Uniform(live.size());
      batch.Erase(live[pick]);
      state.erase(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    // ...and insert fresh ones. Oids are deterministic: the object store
    // assigns them densely in insertion order and the single writer
    // applies batches in sequence.
    for (size_t i = 0; i < shape.inserts_per_batch; ++i) {
      const Rect& r = extra[b * shape.inserts_per_batch + i];
      batch.Insert(r);
      state[next_oid] = r;
      oids.push_back(next_oid);
      ++next_oid;
    }
    w.batches.push_back(std::move(batch));
    w.batch_oids.push_back(std::move(oids));
    w.states.push_back(state);
  }

  QueryGenOptions qopt;
  qopt.seed = seed + 2;
  qopt.aspect_jitter = 0.5;
  w.windows = GenerateWindows(shape.window_queries, 0.01, qopt);
  const auto big =
      GenerateWindows(4, 0.08, QueryGenOptions{.seed = seed + 3});
  w.windows.insert(w.windows.end(), big.begin(), big.end());
  w.points = GeneratePoints(shape.point_queries, seed + 4);
  w.knn_points = GeneratePoints(shape.knn_queries, seed + 5);
  return w;
}

inline std::vector<ObjectId> ExpectedWindow(const OracleState& st,
                                            const Rect& w) {
  std::vector<ObjectId> out;
  for (const auto& [oid, rect] : st) {
    if (rect.Intersects(w)) out.push_back(oid);
  }
  return out;
}

inline std::vector<ObjectId> ExpectedPoint(const OracleState& st,
                                           const Point& p) {
  std::vector<ObjectId> out;
  for (const auto& [oid, rect] : st) {
    if (rect.Contains(p)) out.push_back(oid);
  }
  return out;
}

/// True if `got` (sorted by oid) equals the brute-force window answer at
/// some single epoch in [e0, e1].
inline bool MatchesWindowInRange(const std::vector<OracleState>& states,
                                 const Rect& w,
                                 const std::vector<ObjectId>& got,
                                 uint64_t e0, uint64_t e1) {
  for (uint64_t k = e0; k <= e1 && k < states.size(); ++k) {
    if (got == ExpectedWindow(states[k], w)) return true;
  }
  return false;
}

inline bool MatchesPointInRange(const std::vector<OracleState>& states,
                                const Point& p,
                                const std::vector<ObjectId>& got,
                                uint64_t e0, uint64_t e1) {
  for (uint64_t k = e0; k <= e1 && k < states.size(); ++k) {
    if (got == ExpectedPoint(states[k], p)) return true;
  }
  return false;
}

/// True if a kNN answer is exactly the brute-force answer at state `st`:
/// right size, every returned object live with its exact distance,
/// ascending order, and no bypassed closer object. Tie-tolerant: equal
/// distances may order either way.
inline bool KnnMatchesState(
    const OracleState& st, const Point& p, size_t k,
    const std::vector<std::pair<ObjectId, double>>& got) {
  constexpr double kEps = 1e-9;
  if (got.size() != std::min(k, st.size())) return false;
  double prev = -1.0;
  for (const auto& [oid, dist] : got) {
    auto it = st.find(oid);
    if (it == st.end()) return false;  // dead object returned
    if (std::abs(it->second.DistanceTo(p) - dist) > kEps) return false;
    if (dist + kEps < prev) return false;  // not ascending
    prev = dist;
  }
  // No live object outside the answer may be strictly closer than the
  // farthest returned one.
  if (!got.empty()) {
    const double worst = got.back().second;
    std::vector<ObjectId> returned;
    for (const auto& [oid, dist] : got) returned.push_back(oid);
    std::sort(returned.begin(), returned.end());
    for (const auto& [oid, rect] : st) {
      if (std::binary_search(returned.begin(), returned.end(), oid)) {
        continue;
      }
      if (rect.DistanceTo(p) + kEps < worst) return false;
    }
  }
  return true;
}

inline bool MatchesKnnInRange(
    const std::vector<OracleState>& states, const Point& p, size_t k,
    const std::vector<std::pair<ObjectId, double>>& got, uint64_t e0,
    uint64_t e1) {
  for (uint64_t s = e0; s <= e1 && s < states.size(); ++s) {
    if (KnnMatchesState(states[s], p, k, got)) return true;
  }
  return false;
}

}  // namespace oracle
}  // namespace zdb

#endif  // ZDB_TESTS_ORACLE_UTIL_H_
