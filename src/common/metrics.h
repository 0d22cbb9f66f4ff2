// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Logical I/O accounting. All experiment results in this repository are
// reported in page accesses (the 1989 literature's unit), so the counters
// here are the measurement substrate for every bench.
//
// Concurrency: the shared IoStats counters are lock-free atomics so the
// storage layer can be exercised from many threads without racing the
// accounting. Copies/snapshots (Since, assignment) are relaxed loads —
// they are statistically consistent, which is all the benches need.
// Pool hits are not counted here on the hot path: each thread bumps its
// own slot in the pager (Pager::CountPoolHit), and Pager::io_stats()
// sums the slots into pool_hits.
//
// Thread-safety contracts: this header deliberately has no lockable
// members and therefore no GUARDED_BY annotations (see DESIGN.md,
// "Concurrency contracts"). Everything shared is a lone relaxed atomic
// — no multi-field invariant to guard — and JsonWriter is a plain value
// owned by whoever builds the dump. If a future counter couples two
// fields under one invariant, promote this to a zdb::Mutex +
// GUARDED_BY rather than widening the atomics.

#ifndef ZDB_COMMON_METRICS_H_
#define ZDB_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace zdb {

/// Counters for page-level I/O. Pager increments reads/writes; BufferPool
/// increments misses/evictions and counts hits per thread through
/// Pager::CountPoolHit (Pager::io_stats() fills in their sum).
/// "Accesses" in benches means reads + writes (i.e. buffer-pool misses
/// that reached the pager). Safe under concurrent queries.
struct IoStats {
  std::atomic<uint64_t> page_reads{0};     ///< pages fetched from the file
  std::atomic<uint64_t> page_writes{0};    ///< pages written back to the file
  std::atomic<uint64_t> pool_hits{0};      ///< buffer-pool hits (no file access)
  std::atomic<uint64_t> pool_misses{0};    ///< buffer-pool misses
  std::atomic<uint64_t> pool_evictions{0}; ///< pages evicted to make room

  IoStats() = default;
  IoStats(const IoStats& o) { *this = o; }
  IoStats& operator=(const IoStats& o) {
    page_reads.store(o.page_reads.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    page_writes.store(o.page_writes.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    pool_hits.store(o.pool_hits.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    pool_misses.store(o.pool_misses.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    pool_evictions.store(o.pool_evictions.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    return *this;
  }

  uint64_t accesses() const {
    return page_reads.load(std::memory_order_relaxed) +
           page_writes.load(std::memory_order_relaxed);
  }

  /// Adds `o`'s counters (sums the I/O of several pagers).
  void Add(const IoStats& o) {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    page_reads.fetch_add(o.page_reads.load(kRelaxed), kRelaxed);
    page_writes.fetch_add(o.page_writes.load(kRelaxed), kRelaxed);
    pool_hits.fetch_add(o.pool_hits.load(kRelaxed), kRelaxed);
    pool_misses.fetch_add(o.pool_misses.load(kRelaxed), kRelaxed);
    pool_evictions.fetch_add(o.pool_evictions.load(kRelaxed), kRelaxed);
  }

  /// Difference since a snapshot; used to attribute I/O to one operation.
  IoStats Since(const IoStats& snap) const {
    IoStats d;
    d.page_reads = page_reads.load(std::memory_order_relaxed) -
                   snap.page_reads.load(std::memory_order_relaxed);
    d.page_writes = page_writes.load(std::memory_order_relaxed) -
                    snap.page_writes.load(std::memory_order_relaxed);
    d.pool_hits = pool_hits.load(std::memory_order_relaxed) -
                  snap.pool_hits.load(std::memory_order_relaxed);
    d.pool_misses = pool_misses.load(std::memory_order_relaxed) -
                    snap.pool_misses.load(std::memory_order_relaxed);
    d.pool_evictions = pool_evictions.load(std::memory_order_relaxed) -
                       snap.pool_evictions.load(std::memory_order_relaxed);
    return d;
  }
};

// ----------------------------- structured counter dumps (JSON) ---------
//
// Counters cross process boundaries in two places — the server's STATS
// opcode and the benches' machine-readable output — so the dump format is
// centralized here instead of hand-formatted at every call site.

/// Minimal streaming JSON writer: objects, arrays, string escaping,
/// integer/double/bool values. Keys and values are emitted in call
/// order; the caller is responsible for well-formed nesting (an
/// unbalanced Begin/End pair produces invalid JSON, not UB).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits `"key":` — must be followed by a value or Begin*().
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(double v);  ///< non-finite values are emitted as null
  JsonWriter& Value(bool v);
  JsonWriter& Value(std::string_view v);
  // Disambiguating forwards (int literals would otherwise be ambiguous,
  // and a const char* would standard-convert to bool before string_view).
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(unsigned v) { return Value(static_cast<uint64_t>(v)); }
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }

  /// Key + value in one call.
  template <typename T>
  JsonWriter& Field(std::string_view key, T v) {
    Key(key);
    return Value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void MaybeComma();
  void AppendEscaped(std::string_view s);

  std::string out_;
  bool need_comma_ = false;
};

/// Appends `stats` as a JSON object under `key` to an already-open
/// object: {"page_reads":N,...,"accesses":N}.
void AppendJson(JsonWriter* w, std::string_view key, const IoStats& stats);

}  // namespace zdb

#endif  // ZDB_COMMON_METRICS_H_
