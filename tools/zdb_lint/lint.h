// Copyright (c) zdb authors. Licensed under the MIT license.
//
// zdb_lint: a project-specific static analysis pass for the engine's
// domain contracts — the invariants that sit one level above what the
// Clang thread-safety analysis can express:
//
//   io-under-latch   no call path from code inside the SpatialIndex
//                    publish section (WriterSection) may reach a
//                    durability/file-I/O sink (the "publish/durability
//                    split" contract), modulo an explicit, reasoned
//                    allowlist for the group-commit bootstrap/rollback
//                    paths.
//   epoch-pin        EpochPin is a stack-scoped capability: it must not
//                    be stored in containers, heap-allocated, held as a
//                    class member, or returned, except by the sanctioned
//                    pin/SnapshotReadScope plumbing.
//   decode-hygiene   every PayloadReader accessor / wire decode result
//                    in the protocol-facing directories must flow into a
//                    checked condition or a consumed status variable —
//                    no (void)-discards, no assign-and-forget.
//   lock-order       lock acquisitions, propagated across translation
//                    units through the call graph, must conform to the
//                    declared partial order (commit_mu_ -> {gc_mu_,
//                    the epoch manager's gc_mu_ and quiesce_mu_},
//                    the DB's write_mu_ -> epoch_mu_) — catching
//                    inversions the per-member ACQUIRED_AFTER
//                    annotations cannot see because the two
//                    acquisitions live in different TUs.
//   requires-held    every call of a function listed in
//                    [requires_held] holds the locks its REQUIRES
//                    annotation names (the buffer pool's page-table
//                    writers), on every toolchain, not just Clang.
//
// The tool is deliberately self-contained: it lexes the project sources
// itself (comments/strings/preprocessor scrubbed, token stream with line
// numbers) and builds an interprocedural call graph by name resolution.
// That makes it buildable with the repo's own toolchain — no libclang
// dependency — at the cost of being tuned to this codebase's idiom
// (Google-style C++, the common/mutex.h RAII vocabulary, PayloadReader).
// Policy lives in zdb_lint.conf, not in code: sinks, allowlists,
// sanctioned pin plumbing and the declared lock order are all data.

#ifndef ZDB_TOOLS_ZDB_LINT_LINT_H_
#define ZDB_TOOLS_ZDB_LINT_LINT_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace zdb {
namespace lint {

// ------------------------------------------------------------ diagnostics

struct Diagnostic {
  std::string file;  ///< path as scanned (relative to the lint root)
  int line = 0;
  std::string check;    ///< "io-under-latch", "epoch-pin", ...
  std::string message;  ///< human-readable, includes the call path
};

// ----------------------------------------------------------------- tokens

struct Token {
  enum class Kind : uint8_t { kIdent, kNumber, kPunct };
  Kind kind;
  std::string text;
  int line;
};

/// Loads `path` and returns its contents, or nullopt on I/O failure.
std::optional<std::string> LoadFile(const std::string& path);

/// Replaces comments, string/char literals and preprocessor directives
/// (including line continuations) with spaces, preserving offsets and
/// newlines so token line numbers match the original file.
std::string Scrub(const std::string& text);

/// Tokenizes scrubbed source text.
std::vector<Token> Lex(const std::string& scrubbed);

// ------------------------------------------------------------------ model

/// A lock named by class-qualified member ("SpatialIndex::commit_mu_")
/// or, if the member could not be attributed to a class, its bare name.
struct HeldLock {
  std::string name;
  bool exclusive = true;
  bool operator<(const HeldLock& o) const {
    return name != o.name ? name < o.name : exclusive < o.exclusive;
  }
};

struct CallSite {
  std::string callee;    ///< name as written; may be "A::B" qualified
  std::string receiver;  ///< "x" for x.f()/x->f(), "A" for A::f(), "" else
  int line = 0;
  std::vector<HeldLock> held;  ///< locks held at the call site
};

struct LockAcquire {
  std::string lock;  ///< qualified lock name
  bool exclusive = true;
  int line = 0;
  std::vector<HeldLock> held;  ///< locks already held at this acquire
};

struct DecodeCall {
  std::string callee;
  int line = 0;
  bool voided = false;       ///< written as (void)call(...)
  bool checked = false;      ///< used in a condition / return / RETURN_IF
  std::string assigned_to;   ///< variable the result was assigned to
  bool assignee_read = false;  ///< that variable is read later on
};

struct PinEvent {
  enum class Kind : uint8_t { kContainer, kHeap, kReturn, kMember };
  Kind kind;
  int line = 0;
  std::string detail;
  std::string enclosing;  ///< function (kReturn) or class (kMember)
  std::string file;
};

struct Function {
  std::string qname;  ///< class-qualified, namespaces dropped
  std::string file;
  int line = 0;
  bool defined = false;
  std::vector<HeldLock> requires_locks;   ///< REQUIRES/REQUIRES_SHARED
  std::vector<HeldLock> acquires_ann;     ///< ACQUIRE/ACQUIRE_SHARED
  std::vector<std::string> releases_ann;  ///< RELEASE/RELEASE_SHARED
  std::vector<CallSite> calls;
  std::vector<LockAcquire> lock_acquires;
  std::vector<DecodeCall> decode_calls;
};

struct ClassInfo {
  std::string name;
  /// mutex member name -> "Mutex" | "SharedMutex"
  std::map<std::string, std::string> mutex_members;
  /// ACQUIRED_AFTER edges harvested from member declarations:
  /// (member, predecessor) means predecessor is acquired first.
  std::vector<std::pair<std::string, std::string>> after_edges;
};

struct Model {
  /// Keyed by qname; a declaration and its out-of-line definition merge.
  std::map<std::string, Function> functions;
  std::map<std::string, ClassInfo> classes;
  std::vector<PinEvent> pin_events;
};

// ----------------------------------------------------------------- config

struct Config {
  /// The exclusive sections the io-under-latch check guards.
  std::set<std::string> latches;
  /// Scoped RAII section types -> (lock, exclusive?).
  std::map<std::string, std::pair<std::string, bool>> section_types;
  /// I/O sink functions ("File::Sync") and bare syscall names ("fsync").
  std::set<std::string> io_sinks;
  /// Functions whose subtree is exempt from io-under-latch, with reason.
  std::map<std::string, std::string> io_allow;
  /// Decode functions whose result must be consumed.
  std::set<std::string> decode_fns;
  /// Path substrings the decode check applies to ("net/", "repl/", ...).
  std::vector<std::string> decode_paths;
  /// Pin type name ("EpochPin") and the plumbing allowed to traffic it.
  std::string pin_type = "EpochPin";
  std::set<std::string> pin_return_allow;  ///< functions may return a pin
  std::vector<std::string> pin_file_allow;  ///< path substrings exempt
  /// Declared lock order edges a -> b (a acquired before b), qualified.
  std::vector<std::pair<std::string, std::string>> lock_order;
  /// Functions the order check skips entirely (with a written reason).
  std::set<std::string> order_allow;
  /// Functions whose every call must hold their REQUIRES locks.
  std::set<std::string> requires_held;
  /// Member-name -> class hints for receiver resolution (pager_ -> Pager).
  std::map<std::string, std::string> receiver_types;
};

/// Parses the .conf (ini-style sections, '#' comments). Returns false and
/// fills *err on malformed input.
bool LoadConfig(const std::string& path, Config* cfg, std::string* err);

// ------------------------------------------------------------ parse/graph

/// Parses one scanned file into the model. `rel` is the path recorded in
/// diagnostics and used for path-scoped checks.
void ParseFile(const std::string& rel, const std::vector<Token>& tokens,
               const Config& cfg, Model* model);

/// Post-parse pass, run once after every file is in: qualifies bare lock
/// names against the class table (members declared after their methods,
/// or in another header, resolve here) and folds the declared-order
/// edges harvested from ACQUIRED_AFTER annotations into cfg-independent
/// model state. Lock names that stay ambiguous are left bare and the
/// order check skips them.
void Normalize(Model* model, const Config& cfg);

/// Name-resolution call graph over the model.
class CallGraph {
 public:
  CallGraph(const Model& model, const Config& cfg);

  /// Functions a call site may invoke (empty for std::/external calls).
  std::vector<const Function*> Resolve(const CallSite& call,
                                       const Function& from) const;

  /// True when the call site itself names a configured I/O sink (either
  /// a resolved project function or a bare syscall wrapper).
  bool IsSinkCall(const CallSite& call, const Function& from) const;

  /// Shortest call path from `from` (starting at one of its call sites)
  /// to any I/O sink, cutting allowlisted subtrees. Returns the chain of
  /// function names ending in the sink, or nullopt.
  std::optional<std::vector<std::string>> PathToSink(
      const CallSite& root_call, const Function& from) const;

  /// Locks (transitively) acquired by resolving `call` from `from`,
  /// with one witness path per lock for diagnostics.
  std::map<std::string, std::vector<std::string>> AcquiredBy(
      const CallSite& call, const Function& from) const;

 private:
  const Model& model_;
  const Config& cfg_;
  std::map<std::string, std::vector<const Function*>> by_name_;
};

// ----------------------------------------------------------------- checks

std::vector<Diagnostic> CheckIoUnderLatch(const Model& model,
                                          const CallGraph& graph,
                                          const Config& cfg);
std::vector<Diagnostic> CheckEpochPins(const Model& model, const Config& cfg);
std::vector<Diagnostic> CheckDecodeHygiene(const Model& model,
                                           const Config& cfg);
std::vector<Diagnostic> CheckLockOrder(const Model& model,
                                       const CallGraph& graph,
                                       const Config& cfg);
std::vector<Diagnostic> CheckRequiresHeld(const Model& model,
                                          const CallGraph& graph,
                                          const Config& cfg);

}  // namespace lint
}  // namespace zdb

#endif  // ZDB_TOOLS_ZDB_LINT_LINT_H_
