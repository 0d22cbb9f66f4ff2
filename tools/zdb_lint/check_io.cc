// Copyright (c) zdb authors. Licensed under the MIT license.
//
// io-under-latch: the publish/durability split. Any call site executed
// inside a configured exclusive section (the index's scoped
// WriterSection, or a REQUIRES contract naming one) must not reach a
// configured I/O sink through any interprocedural path. Functions on the
// io_allow list (group-commit bootstrap, crash rollback) cut the search
// with their written reason.

#include <sstream>

#include "lint.h"

namespace zdb {
namespace lint {

namespace {

/// The exclusive section (if any) held at this site.
std::optional<std::string> HeldLatch(const std::vector<HeldLock>& held,
                                     const Config& cfg) {
  for (const HeldLock& h : held) {
    if (h.exclusive && cfg.latches.count(h.name) > 0) return h.name;
  }
  return std::nullopt;
}

std::string JoinPath(const std::vector<std::string>& path) {
  std::ostringstream ss;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) ss << " -> ";
    ss << path[i];
  }
  return ss.str();
}

}  // namespace

std::vector<Diagnostic> CheckIoUnderLatch(const Model& model,
                                          const CallGraph& graph,
                                          const Config& cfg) {
  std::vector<Diagnostic> out;
  for (const auto& [qname, fn] : model.functions) {
    if (cfg.io_allow.count(qname) > 0) continue;  // reasoned exemption
    for (const CallSite& call : fn.calls) {
      const auto latch = HeldLatch(call.held, cfg);
      if (!latch.has_value()) continue;
      const auto path = graph.PathToSink(call, fn);
      if (!path.has_value()) continue;
      Diagnostic d;
      d.file = fn.file;
      d.line = call.line;
      d.check = "io-under-latch";
      d.message = "I/O sink reachable while holding " + *latch +
                  " (exclusive): " + qname + " -> " + JoinPath(*path);
      out.push_back(std::move(d));
    }
  }
  return out;
}

}  // namespace lint
}  // namespace zdb
