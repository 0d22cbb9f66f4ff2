// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Per-operation counters reported by the experiments: what the filter
// retrieved, how much of it was redundant, and how much of it was wrong.

#ifndef ZDB_CORE_STATS_H_
#define ZDB_CORE_STATS_H_

#include <cstdint>

namespace zdb {

/// Statistics of one query. A kNN (best-first search) counts cells
/// expanded as query_elements, probes of a large cell's own entries as
/// ancestor_probes, entries read as index_entries, entries pushed on its
/// heap as candidates and records fetched as unique_candidates.
struct QueryStats {
  uint64_t query_elements = 0;   ///< elements the query decomposed into
  uint64_t ancestor_probes = 0;  ///< enclosing-element probes issued
  uint64_t index_entries = 0;    ///< (element, oid) entries scanned
  uint64_t candidates = 0;       ///< entries hitting the query's elements
  uint64_t unique_candidates = 0;  ///< after duplicate elimination
  uint64_t false_hits = 0;       ///< unique candidates failing refinement
  uint64_t results = 0;          ///< final answers
  uint64_t bigmin_jumps = 0;     ///< re-seeks due to BIGMIN skipping

  uint64_t duplicates() const { return candidates - unique_candidates; }

  void Add(const QueryStats& o) {
    query_elements += o.query_elements;
    ancestor_probes += o.ancestor_probes;
    index_entries += o.index_entries;
    candidates += o.candidates;
    unique_candidates += o.unique_candidates;
    false_hits += o.false_hits;
    results += o.results;
    bigmin_jumps += o.bigmin_jumps;
  }
};

/// Statistics of one z-merge spatial join.
struct JoinStats {
  uint64_t entries_scanned = 0;   ///< total index entries consumed
  uint64_t candidate_pairs = 0;   ///< element-level pair hits
  uint64_t unique_pairs = 0;      ///< after pair deduplication
  uint64_t false_pairs = 0;       ///< unique pairs failing refinement
  uint64_t results = 0;

  uint64_t duplicate_pairs() const { return candidate_pairs - unique_pairs; }
};

/// Whole-index accounting used by the build/size experiments.
struct IndexBuildStats {
  uint64_t objects = 0;
  uint64_t index_entries = 0;  ///< sum of per-object redundancy
  double total_error = 0.0;    ///< sum of per-object approximation error

  double redundancy() const {
    return objects ? static_cast<double>(index_entries) / objects : 0.0;
  }
  double avg_error() const {
    return objects ? total_error / static_cast<double>(objects) : 0.0;
  }
};

}  // namespace zdb

#endif  // ZDB_CORE_STATS_H_
