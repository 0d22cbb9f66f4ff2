// Copyright (c) zdb authors. Licensed under the MIT license.
//
// requires-held: every call of a function listed in [requires_held]
// must hold the locks its REQUIRES/REQUIRES_SHARED annotation names,
// either through a guard in scope at the call or through the caller's
// own REQUIRES contract. Clang's thread-safety analysis checks the same
// contract, but only under Clang; this check keeps the listed writers
// (the buffer pool's page-table updates, which lock-free readers race)
// honest on every toolchain. Locks match by member name, since a
// contract like REQUIRES(s.mu) names a parameter's mutex.

#include "lint.h"

namespace zdb {
namespace lint {

namespace {

std::string MemberName(const std::string& lock) {
  const size_t pos = lock.rfind("::");
  return pos == std::string::npos ? lock : lock.substr(pos + 2);
}

bool Holds(const std::vector<HeldLock>& held, const HeldLock& want) {
  for (const HeldLock& h : held) {
    if (MemberName(h.name) == MemberName(want.name) &&
        (h.exclusive || !want.exclusive)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<Diagnostic> CheckRequiresHeld(const Model& model,
                                          const CallGraph& graph,
                                          const Config& cfg) {
  std::vector<Diagnostic> out;
  for (const auto& [qname, fn] : model.functions) {
    for (const CallSite& call : fn.calls) {
      for (const Function* callee : graph.Resolve(call, fn)) {
        if (cfg.requires_held.count(callee->qname) == 0) continue;
        for (const HeldLock& want : callee->requires_locks) {
          if (Holds(call.held, want)) continue;
          Diagnostic d;
          d.file = fn.file;
          d.line = call.line;
          d.check = "requires-held";
          d.message = qname + " calls " + callee->qname + " without " +
                      (want.exclusive ? "holding " : "holding (shared) ") +
                      MemberName(want.name) + ", which its REQUIRES names";
          out.push_back(std::move(d));
        }
      }
    }
  }
  return out;
}

}  // namespace lint
}  // namespace zdb
