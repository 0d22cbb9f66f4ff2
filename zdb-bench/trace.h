// Copyright (c) zdb authors. Licensed under the MIT license.
//
// In-memory spans for the traced run. Each thread records into its own
// SpanLog (no locking); the logs are merged, summarised and written out
// when the run ends. A span names the layer call it wraps, its parent
// (for self time) and the request it belongs to.

#ifndef ZDB_BENCH_TRACE_H_
#define ZDB_BENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace zdb::bench {

enum class SpanName : uint8_t {
  kClientWindow,
  kClientPoint,
  kClientKnn,
  kClientApply,
  kReplayWindow,
  kCorePin,
  kCorePlan,
  kCoreScan,
  kCoreRefine,
  kCoreUnpin,
  kNetEncodeReply,
  kNetDecodeReply,
  kZdbWindow,
  kCoreKnn,
  kReplayApply,
  kApplyPublish,
  kApplyWaitDurable,
  kCount,
};

const char* SpanNameString(SpanName n);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t request;  ///< shared by a request's spans
  int32_t parent;    ///< index in the same log, -1 for a root
  SpanName name;
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  /// Opens a span and returns its index for End().
  int32_t Begin(SpanName name, uint64_t request, int32_t parent = -1) {
    spans_.push_back({request, parent, name, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t idx) { spans_[idx].end_ns = NowNs(); }

  /// Records an already-timed span.
  void Add(SpanName name, uint64_t request, int64_t start_ns,
           int64_t end_ns) {
    spans_.push_back({request, -1, name, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-name totals over a set of logs. Self time is a span's duration
/// minus the durations of its children (children of one span never
/// overlap: each log is one thread's call stack).
struct SpanSummary {
  uint64_t count[static_cast<size_t>(SpanName::kCount)] = {};
  double total_us[static_cast<size_t>(SpanName::kCount)] = {};
  double self_us[static_cast<size_t>(SpanName::kCount)] = {};

  double MeanUs(SpanName n) const {
    const size_t i = static_cast<size_t>(n);
    return count[i] ? total_us[i] / count[i] : 0.0;
  }
  double MeanSelfUs(SpanName n) const {
    const size_t i = static_cast<size_t>(n);
    return count[i] ? self_us[i] / count[i] : 0.0;
  }
};

SpanSummary Summarize(const std::vector<const SpanLog*>& logs);

/// Writes every span as one tab-separated line (log, index, parent,
/// request, name, start_ns, end_ns). Returns false on an I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace zdb::bench

#endif  // ZDB_BENCH_TRACE_H_
