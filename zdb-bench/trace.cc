// Copyright (c) zdb authors. Licensed under the MIT license.

#include "trace.h"

#include <cstdio>

namespace zdb::bench {

const char* SpanNameString(SpanName n) {
  switch (n) {
    case SpanName::kClientWindow: return "client.window";
    case SpanName::kClientPoint: return "client.point";
    case SpanName::kClientKnn: return "client.knn";
    case SpanName::kClientApply: return "client.apply";
    case SpanName::kReplayWindow: return "replay.window";
    case SpanName::kCorePin: return "core.pin";
    case SpanName::kCorePlan: return "core.plan";
    case SpanName::kCoreScan: return "core.scan";
    case SpanName::kCoreRefine: return "core.refine";
    case SpanName::kCoreUnpin: return "core.unpin";
    case SpanName::kNetEncodeReply: return "net.encode_reply";
    case SpanName::kNetDecodeReply: return "net.decode_reply";
    case SpanName::kZdbWindow: return "zdb.window";
    case SpanName::kCoreKnn: return "core.knn";
    case SpanName::kReplayApply: return "replay.apply";
    case SpanName::kApplyPublish: return "zdb.apply.publish";
    case SpanName::kApplyWaitDurable: return "zdb.apply.wait_durable";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanSummary Summarize(const std::vector<const SpanLog*>& logs) {
  SpanSummary s;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& sp : spans) {
      if (sp.parent >= 0) {
        child_us[sp.parent] += (sp.end_ns - sp.start_ns) / 1e3;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const size_t n = static_cast<size_t>(spans[i].name);
      const double us = (spans[i].end_ns - spans[i].start_ns) / 1e3;
      s.count[n] += 1;
      s.total_us[n] += us;
      s.self_us[n] += us - child_us[i];
    }
  }
  return s;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "log\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (size_t l = 0; l < logs.size(); ++l) {
    const auto& spans = logs[l]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      std::fprintf(f, "%zu\t%zu\t%d\t%llu\t%s\t%lld\t%lld\n", l, i,
                   sp.parent, static_cast<unsigned long long>(sp.request),
                   SpanNameString(sp.name),
                   static_cast<long long>(sp.start_ns),
                   static_cast<long long>(sp.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace zdb::bench
