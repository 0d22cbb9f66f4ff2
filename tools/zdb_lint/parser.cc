// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Token-stream parser: recognizes namespaces, classes, function
// definitions/declarations, the thread-safety annotation macros, the
// common/mutex.h RAII vocabulary, PayloadReader-style decode calls and
// EpochPin traffic, and records them in the model. This is not a C++
// parser — it is a structural scanner tuned to this repository's idiom
// (Google style, annotated wrappers, no macros that hide braces), which
// is exactly the trade that lets it build with any toolchain.

#include <algorithm>
#include <cassert>

#include "lint.h"

namespace zdb {
namespace lint {

namespace {

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "if",      "else",    "for",     "while",   "do",       "switch",
      "case",    "default", "return",  "break",   "continue", "goto",
      "new",     "delete",  "sizeof",  "alignof", "co_await", "co_return",
      "co_yield", "throw",  "try",     "catch",   "static_cast",
      "dynamic_cast", "reinterpret_cast", "const_cast"};
  return kw;
}

bool IsContainerName(const std::string& s) {
  static const std::set<std::string> kContainers = {
      "vector", "deque", "list", "forward_list", "map", "multimap", "set",
      "multiset", "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset", "queue", "priority_queue", "stack", "array"};
  return kContainers.count(s) > 0;
}

/// Annotation macros that may trail a function signature. The value is
/// what the macro means for the function's lock contract.
enum class AnnKind {
  kRequires,
  kRequiresShared,
  kAcquire,
  kSharedAcquire,
  kRelease,
  kOther,  // EXCLUDES, TRY_ACQUIRE, ASSERT_*, ... parsed and ignored
};

std::optional<AnnKind> AnnotationKind(const std::string& name) {
  if (name == "REQUIRES" || name == "EXCLUSIVE_LOCKS_REQUIRED")
    return AnnKind::kRequires;
  if (name == "REQUIRES_SHARED" || name == "SHARED_LOCKS_REQUIRED")
    return AnnKind::kRequiresShared;
  if (name == "ACQUIRE") return AnnKind::kAcquire;
  if (name == "ACQUIRE_SHARED") return AnnKind::kSharedAcquire;
  if (name == "RELEASE" || name == "RELEASE_SHARED" ||
      name == "RELEASE_GENERIC")
    return AnnKind::kRelease;
  if (name == "EXCLUDES" || name == "TRY_ACQUIRE" ||
      name == "TRY_ACQUIRE_SHARED" || name == "ASSERT_CAPABILITY" ||
      name == "ASSERT_SHARED_CAPABILITY" || name == "RETURN_CAPABILITY" ||
      name == "NO_THREAD_SAFETY_ANALYSIS" || name == "ACQUIRED_AFTER" ||
      name == "ACQUIRED_BEFORE")
    return AnnKind::kOther;
  return std::nullopt;
}

/// Annotations that trail a data member's declarator.
bool IsMemberAnnotation(const std::string& name) {
  return name == "GUARDED_BY" || name == "PT_GUARDED_BY" ||
         name == "ACQUIRED_AFTER" || name == "ACQUIRED_BEFORE";
}

class Parser {
 public:
  Parser(const std::string& rel, const std::vector<Token>& toks,
         const Config& cfg, Model* model)
      : rel_(rel), t_(toks), cfg_(cfg), model_(model) {}

  void Run() { ParseRegion(0, t_.size(), {}); }

 private:
  // ----------------------------------------------------------- utilities

  const Token& Tok(size_t i) const { return t_[i]; }
  bool Is(size_t i, const char* s) const {
    return i < t_.size() && t_[i].text == s;
  }
  bool IsIdent(size_t i) const {
    return i < t_.size() && t_[i].kind == Token::Kind::kIdent;
  }

  /// Index just past the ')' matching the '(' at i (i must be '(').
  size_t SkipParens(size_t i, size_t end) const {
    int depth = 0;
    for (; i < end; ++i) {
      if (t_[i].text == "(") ++depth;
      else if (t_[i].text == ")" && --depth == 0) return i + 1;
    }
    return end;
  }

  size_t SkipBraces(size_t i, size_t end) const {
    int depth = 0;
    for (; i < end; ++i) {
      if (t_[i].text == "{") ++depth;
      else if (t_[i].text == "}" && --depth == 0) return i + 1;
    }
    return end;
  }

  /// Skips a balanced template argument list; i points at '<'. Handles
  /// '>>' closing two levels. Gives up (returns i+1) if unbalanced
  /// within a window — '<' may have been less-than after all.
  size_t SkipAngles(size_t i, size_t end) const {
    int depth = 0;
    const size_t limit = std::min(end, i + 400);
    for (size_t j = i; j < limit; ++j) {
      const std::string& s = t_[j].text;
      if (s == "<") ++depth;
      else if (s == "<<") depth += 2;
      else if (s == ">") {
        if (--depth == 0) return j + 1;
      } else if (s == ">>") {
        depth -= 2;
        if (depth <= 0) return j + 1;
      } else if (s == ";" || s == "{" || s == "}") {
        return i + 1;  // not a template list
      }
    }
    return i + 1;
  }

  /// Collects a qualified name chain ending at index `last` (inclusive):
  /// "A::B::name". Returns the chain and the index of its first token.
  std::pair<std::string, size_t> NameChainEndingAt(size_t last) const {
    std::string name = t_[last].text;
    size_t first = last;
    while (first >= 2 && t_[first - 1].text == "::" &&
           t_[first - 2].kind == Token::Kind::kIdent) {
      name = t_[first - 2].text + "::" + name;
      first -= 2;
    }
    // A leading "::" (global qualification) is dropped.
    return {name, first};
  }

  /// The last identifier within [i, end) — how lock names are pulled out
  /// of annotation args ("ix->commit_mu_" -> "commit_mu_").
  std::string LastIdentIn(size_t i, size_t end) const {
    std::string out;
    for (size_t j = i; j < end; ++j) {
      if (t_[j].kind == Token::Kind::kIdent) out = t_[j].text;
    }
    return out;
  }

  /// Splits annotation args "(a, b->c_)" at top level commas and returns
  /// the last identifier of each arg. `i` points at '('.
  std::vector<std::string> AnnotationArgs(size_t i, size_t end) const {
    std::vector<std::string> args;
    if (!Is(i, "(")) return args;
    const size_t close = SkipParens(i, end) - 1;
    size_t start = i + 1;
    int depth = 0;
    for (size_t j = i + 1; j <= close; ++j) {
      const std::string& s = t_[j].text;
      if (s == "(") ++depth;
      else if (s == ")" && depth > 0) --depth;
      else if ((s == "," && depth == 0) || j == close) {
        const std::string a = LastIdentIn(start, j);
        if (!a.empty()) args.push_back(a);
        start = j + 1;
      }
    }
    return args;
  }

  Function* GetFunction(const std::string& qname, int line) {
    auto it = model_->functions.find(qname);
    if (it == model_->functions.end()) {
      Function f;
      f.qname = qname;
      f.file = rel_;
      f.line = line;
      it = model_->functions.emplace(qname, std::move(f)).first;
    }
    return &it->second;
  }

  static void AddHeld(std::vector<HeldLock>* v, const HeldLock& l) {
    for (const HeldLock& h : *v) {
      if (h.name == l.name && h.exclusive == l.exclusive) return;
    }
    v->push_back(l);
  }

  // ------------------------------------------------------ region parsing

  /// Parses a namespace/class/global token region [i, end).
  void ParseRegion(size_t i, size_t end, std::vector<std::string> classes) {
    while (i < end) {
      const Token& tok = t_[i];
      if (tok.kind != Token::Kind::kIdent) {
        // Stray punctuation at declaration scope (};, extra ;) — skip.
        if (tok.text == "{") { i = SkipBraces(i, end); continue; }
        ++i;
        continue;
      }
      const std::string& s = tok.text;
      if (s == "namespace") {
        size_t j = i + 1;
        while (j < end && (IsIdent(j) || Is(j, "::"))) ++j;
        if (Is(j, "{")) {
          const size_t close = SkipBraces(j, end);
          ParseRegion(j + 1, close - 1, classes);  // namespaces dropped
          i = close;
        } else {
          while (j < end && !Is(j, ";")) ++j;
          i = j + 1;
        }
        continue;
      }
      if (s == "class" || s == "struct" || s == "union") {
        i = ParseClassLike(i, end, classes);
        continue;
      }
      if (s == "enum") {
        size_t j = i + 1;
        while (j < end && !Is(j, "{") && !Is(j, ";")) ++j;
        if (Is(j, "{")) j = SkipBraces(j, end);
        while (j < end && !Is(j, ";")) ++j;
        i = j + 1;
        continue;
      }
      if (s == "template") {
        size_t j = i + 1;
        if (Is(j, "<")) j = SkipAngles(j, end);
        i = j;
        continue;
      }
      if (s == "using" || s == "typedef" || s == "static_assert" ||
          s == "friend" || s == "extern") {
        size_t j = i;
        while (j < end && !Is(j, ";") && !Is(j, "{")) ++j;
        if (Is(j, "{")) j = SkipBraces(j, end) ;
        while (j < end && !Is(j, ";")) ++j;
        i = j + 1;
        continue;
      }
      if (s == "public" || s == "private" || s == "protected") {
        i += Is(i + 1, ":") ? 2 : 1;
        continue;
      }
      i = ParseDeclaration(i, end, classes);
    }
  }

  /// Parses "class X ... { ... } ;" starting at the class keyword.
  size_t ParseClassLike(size_t i, size_t end,
                        const std::vector<std::string>& classes) {
    size_t j = i + 1;
    // Skip attributes and macros between keyword and name (CAPABILITY(x),
    // SCOPED_CAPABILITY, alignas(...)).
    std::string name;
    while (j < end) {
      if (IsIdent(j)) {
        if (Is(j + 1, "(")) {
          name = t_[j].text;  // may be overwritten by a later plain ident
          j = SkipParens(j + 1, end);
          name.clear();
          continue;
        }
        name = t_[j].text;
        ++j;
        continue;
      }
      break;
    }
    // j now sits at ':', '{', ';' or something unexpected.
    while (j < end && !Is(j, "{") && !Is(j, ";")) ++j;
    if (!Is(j, "{")) return j + 1;  // forward declaration
    const size_t close = SkipBraces(j, end);
    std::vector<std::string> inner = classes;
    if (!name.empty()) {
      inner.push_back(name);
      model_->classes.emplace(name, ClassInfo{name, {}, {}});
    }
    ParseRegion(j + 1, close - 1, inner);
    size_t k = close;
    while (k < end && !Is(k, ";")) ++k;  // trailing declarator list
    return k + 1;
  }

  /// At declaration scope: parses one member/function/variable starting
  /// at i; returns the index to resume from.
  size_t ParseDeclaration(size_t i, size_t end,
                          const std::vector<std::string>& classes) {
    size_t j = i;
    size_t name_last = 0;
    bool found_call_paren = false;
    // Scan forward to the declarator's '(' (function) or ';'/'='/'{'
    // (member / variable). Angle brackets after an identifier are
    // template args and skipped as a unit.
    while (j < end) {
      const std::string& s = t_[j].text;
      if (s == ";") return HandleMemberDecl(i, j, classes), j + 1;
      if (s == "=" && j > i && t_[j - 1].text == "operator") {
        ++j;  // "operator=": the name of the function, not an initializer
        continue;
      }
      if (s == "=") {  // variable with initializer / "= default"
        size_t k = j;
        while (k < end && !Is(k, ";")) {
          if (Is(k, "{")) { k = SkipBraces(k, end); continue; }
          ++k;
        }
        return HandleMemberDecl(i, j, classes), k + 1;
      }
      if (s == "{") {  // brace-init member or stray block
        size_t k = SkipBraces(j, end);
        while (k < end && !Is(k, ";")) ++k;
        return HandleMemberDecl(i, j, classes), k + 1;
      }
      if (s == "(") {
        // Function if preceded by an identifier (possibly qualified or
        // "operator..."): otherwise skip the parens and continue. A
        // member's trailing annotation ("Mutex mu_ ACQUIRED_AFTER(x);",
        // "int n_ GUARDED_BY(mu_);") is not a function name.
        if (j > i + 1 && IsIdent(j - 1) && IsMemberAnnotation(t_[j - 1].text)) {
          j = SkipParens(j, end);
          continue;
        }
        if (j > i && IsIdent(j - 1)) {
          name_last = j - 1;
          found_call_paren = true;
          break;
        }
        if (j > i && t_[j - 1].kind == Token::Kind::kPunct &&
            j >= 2 && t_[j - 2].text == "operator") {
          name_last = j - 1;  // operator+ etc. — name token is the punct
          found_call_paren = true;
          break;
        }
        j = SkipParens(j, end);
        continue;
      }
      if (s == "<" && j > i && IsIdent(j - 1)) {
        j = SkipAngles(j, end);
        continue;
      }
      ++j;
    }
    if (!found_call_paren) return end;
    return ParseFunctionFrom(i, name_last, j, end, classes);
  }

  /// Handles a non-function declaration spanning [i, stop): records
  /// mutex members, ACQUIRED_AFTER edges and EpochPin storage.
  void HandleMemberDecl(size_t i, size_t stop,
                        const std::vector<std::string>& classes) {
    if (stop <= i) return;
    // First meaningful type token.
    std::string cls = classes.empty() ? "" : classes.back();
    std::string type;
    size_t type_idx = stop;
    for (size_t j = i; j < stop; ++j) {
      if (!IsIdent(j)) continue;
      const std::string& s = t_[j].text;
      if (s == "mutable" || s == "static" || s == "constexpr" ||
          s == "inline" || s == "const" || s == "volatile" || s == "std") {
        continue;
      }
      type = s;
      type_idx = j;
      break;
    }
    if (type.empty()) return;
    if ((type == "Mutex" || type == "SharedMutex") && !cls.empty()) {
      // "Mutex name_ [ACQUIRED_AFTER(pred)] ;"
      std::string member;
      for (size_t j = type_idx + 1; j < stop; ++j) {
        if (IsIdent(j) && member.empty() &&
            AnnotationKind(t_[j].text) == std::nullopt) {
          member = t_[j].text;
        }
        if (IsIdent(j) && (t_[j].text == "ACQUIRED_AFTER" ||
                           t_[j].text == "ACQUIRED_BEFORE")) {
          const bool after = t_[j].text == "ACQUIRED_AFTER";
          for (const std::string& a : AnnotationArgs(j + 1, stop)) {
            if (member.empty()) continue;
            if (after) {
              model_->classes[cls].after_edges.push_back({member, a});
            } else {
              model_->classes[cls].after_edges.push_back({a, member});
            }
          }
        }
      }
      if (!member.empty()) model_->classes[cls].mutex_members[member] = type;
      return;
    }
    // EpochPin storage: as a member, or inside a container template arg.
    for (size_t j = i; j < stop; ++j) {
      if (!IsIdent(j) || t_[j].text != cfg_.pin_type) continue;
      const bool in_template = ContainedInContainerArgs(i, stop, j);
      if (in_template) {
        model_->pin_events.push_back({PinEvent::Kind::kContainer,
                                      t_[j].line, "container of " +
                                      cfg_.pin_type, cls, rel_});
      } else if (j == type_idx && !cls.empty()) {
        model_->pin_events.push_back({PinEvent::Kind::kMember, t_[j].line,
                                      cfg_.pin_type + " class member",
                                      cls, rel_});
      }
      break;
    }
  }

  /// True when token j (a pin-type mention) sits inside the template
  /// args of a container named in [i, j).
  bool ContainedInContainerArgs(size_t i, size_t stop, size_t j) const {
    for (size_t k = i; k < j && k < stop; ++k) {
      if (IsIdent(k) && IsContainerName(t_[k].text) && Is(k + 1, "<")) {
        const size_t close = SkipAngles(k + 1, stop);
        if (j > k + 1 && j < close) return true;
      }
    }
    return false;
  }

  /// Parses a function whose name token is `name_last` and whose
  /// parameter '(' is at `paren`; [decl_start] marks the return type.
  size_t ParseFunctionFrom(size_t decl_start, size_t name_last, size_t paren,
                           size_t end,
                           const std::vector<std::string>& classes) {
    auto [name, name_first] = NameChainEndingAt(name_last);
    if (name_first > decl_start && t_[name_first - 1].text == "~") {
      name = "~" + name;
    }
    std::string qname;
    for (const std::string& c : classes) qname += c + "::";
    qname += name;

    const size_t params_end = SkipParens(paren, end);

    // Trailer: cv/ref qualifiers, annotation macros, trailing return,
    // ctor initializer list; ends at '{' (definition), ';' (declaration)
    // or '= default/delete;'.
    std::vector<HeldLock> req;
    std::vector<HeldLock> acq;
    std::vector<std::string> rel;
    size_t j = params_end;
    bool definition = false;
    while (j < end) {
      const std::string& s = t_[j].text;
      if (s == "{") { definition = true; break; }
      if (s == ";") break;
      if (s == "=") {  // = default / = delete / = 0
        while (j < end && !Is(j, ";")) ++j;
        break;
      }
      if (s == ":") {  // ctor initializer list: skip to body '{'
        int pdepth = 0;
        ++j;
        while (j < end) {
          const std::string& u = t_[j].text;
          if (u == "(" || u == "<") ++pdepth;
          else if (u == ")" || u == ">") --pdepth;
          else if (u == "{" && pdepth == 0) break;
          else if (u == "}" && pdepth == 0) break;
          else if (u == ";") break;
          ++j;
        }
        continue;
      }
      if (s == "->") {  // trailing return type
        ++j;
        continue;
      }
      if (IsIdent(j)) {
        const auto kind = AnnotationKind(s);
        if (kind.has_value()) {
          const std::vector<std::string> args =
              Is(j + 1, "(") ? AnnotationArgs(j + 1, end)
                             : std::vector<std::string>{};
          for (const std::string& a : args) {
            switch (*kind) {
              case AnnKind::kRequires: req.push_back({a, true}); break;
              case AnnKind::kRequiresShared: req.push_back({a, false}); break;
              case AnnKind::kAcquire: acq.push_back({a, true}); break;
              case AnnKind::kSharedAcquire: acq.push_back({a, false}); break;
              case AnnKind::kRelease: rel.push_back(a); break;
              case AnnKind::kOther: break;
            }
          }
          j = Is(j + 1, "(") ? SkipParens(j + 1, end) : j + 1;
          continue;
        }
        if (Is(j + 1, "(")) {  // noexcept(...), __attribute__(...)
          j = SkipParens(j + 1, end);
          continue;
        }
        ++j;  // const, noexcept, override, final, ...
        continue;
      }
      ++j;
    }

    Function* fn = GetFunction(qname, t_[name_last].line);
    for (const HeldLock& h : req) AddHeld(&fn->requires_locks, h);
    for (const HeldLock& h : acq) AddHeld(&fn->acquires_ann, h);
    for (const std::string& r : rel) fn->releases_ann.push_back(r);

    // Return-type pin escape: the return type mentions EpochPin (and is
    // not a reference/pointer — "const EpochPin&" parameters never reach
    // here since we only look at [decl_start, name_first)).
    for (size_t k = decl_start; k + 1 < name_first; ++k) {
      if (IsIdent(k) && t_[k].text == cfg_.pin_type) {
        bool by_ref = false;
        for (size_t m = k + 1; m < name_first; ++m) {
          if (t_[m].text == "&" || t_[m].text == "*") by_ref = true;
        }
        if (!by_ref) {
          model_->pin_events.push_back({PinEvent::Kind::kReturn,
                                        t_[k].line,
                                        "returns " + cfg_.pin_type, qname, rel_});
        }
        break;
      }
    }

    if (!definition) {
      while (j < end && !Is(j, ";")) ++j;
      return j + 1;
    }
    fn->defined = true;
    fn->file = rel_;
    fn->line = t_[name_last].line;
    const size_t body_close = SkipBraces(j, end);
    ParseBody(fn, j + 1, body_close - 1, classes);
    return body_close;
  }

  // -------------------------------------------------------- body parsing

  struct ActiveLock {
    HeldLock lock;
    int depth;    ///< brace depth at declaration; popped when left
    bool manual;  ///< .Lock() style — released by name, not scope
    std::string var;  ///< guard variable, for early `guard.Unlock()`
  };

  std::vector<HeldLock> CurrentHeld(const Function& fn,
                                    const std::vector<ActiveLock>& active) {
    std::vector<HeldLock> held = fn.requires_locks;
    for (const ActiveLock& a : active) AddHeld(&held, a.lock);
    return held;
  }

  void ParseBody(Function* fn, size_t i, size_t end,
                 const std::vector<std::string>& classes) {
    (void)classes;
    std::vector<ActiveLock> active;
    int depth = 0;
    size_t stmt_start = i;
    for (size_t j = i; j < end; ++j) {
      const Token& tok = t_[j];
      const std::string& s = tok.text;
      if (s == "{") { ++depth; stmt_start = j + 1; continue; }
      if (s == "}") {
        --depth;
        while (!active.empty() && !active.back().manual &&
               active.back().depth > depth) {
          active.pop_back();
        }
        stmt_start = j + 1;
        continue;
      }
      if (s == ";") { stmt_start = j + 1; continue; }
      if (tok.kind != Token::Kind::kIdent) continue;

      // Nested class/lambda-free declarations inside bodies that we
      // still want to skip wholesale.
      if (s == "class" || s == "struct" || s == "enum") {
        size_t k = j;
        while (k < end && !Is(k, "{") && !Is(k, ";")) ++k;
        if (Is(k, "{")) {
          // Local structs: parse as a class region for completeness.
          const size_t close = SkipBraces(k, end);
          j = close - 1;
          continue;
        }
        j = k;
        continue;
      }

      // RAII guard declarations: "MutexLock name(arg);" and the
      // configured scoped section types ("WriterSection lock(this);").
      if ((s == "MutexLock" || s == "WriterLock" || s == "ReaderLock") &&
          IsIdent(j + 1) && Is(j + 2, "(")) {
        const bool exclusive = s != "ReaderLock";
        const size_t close = SkipParens(j + 2, end);
        const std::string lock = LastIdentIn(j + 3, close - 1);
        if (!lock.empty()) {
          LockAcquire ev{lock, exclusive, tok.line, CurrentHeld(*fn, active)};
          fn->lock_acquires.push_back(ev);
          active.push_back({{lock, exclusive}, depth, false, t_[j + 1].text});
        }
        j = close - 1;
        continue;
      }
      auto sec = cfg_.section_types.find(s);
      if (sec != cfg_.section_types.end() && IsIdent(j + 1) &&
          Is(j + 2, "(")) {
        const size_t close = SkipParens(j + 2, end);
        LockAcquire ev{sec->second.first, sec->second.second, tok.line,
                       CurrentHeld(*fn, active)};
        fn->lock_acquires.push_back(ev);
        active.push_back({{sec->second.first, sec->second.second}, depth,
                          false, t_[j + 1].text});
        j = close - 1;
        continue;
      }

      // Call sites: ident '(' where the previous token doesn't make this
      // a declaration. "a.b(", "a->b(", "A::b(", "(void)a.b(" all count.
      if (Is(j + 1, "(")) {
        if (Keywords().count(s) > 0) continue;
        std::string receiver;
        bool is_decl = false;
        auto [callee, first] = NameChainEndingAt(j);
        if (first >= 1) {
          const Token& prev = t_[first - 1];
          if (prev.text == "." || prev.text == "->") {
            if (first >= 2 && IsIdent(first - 2)) receiver = t_[first - 2].text;
          } else if (prev.kind == Token::Kind::kIdent &&
                     Keywords().count(prev.text) == 0) {
            is_decl = true;  // "Type name(...)" — constructor args
          } else if (prev.text == ">" &&
                     callee.find("::") == std::string::npos) {
            is_decl = true;  // "unique_ptr<T> name(...)"
          }
        }
        if (callee.find("::") != std::string::npos) {
          const size_t pos = callee.rfind("::");
          receiver = callee.substr(0, pos);
          callee = callee.substr(pos + 2);
          if (receiver == "std") continue;  // std:: calls are external
        }
        if (is_decl) continue;

        // Manual lock/unlock calls keep the active set honest. Unlock on
        // either the mutex itself ("mu_.Unlock()") or a guard variable
        // ("lock.Unlock()", the early-release idiom) releases it, and
        // so does End() on a section guard ("section.End()").
        if ((callee == "Lock" || callee == "LockShared") &&
            !receiver.empty()) {
          const bool excl = callee == "Lock";
          LockAcquire ev{receiver, excl, tok.line, CurrentHeld(*fn, active)};
          fn->lock_acquires.push_back(ev);
          active.push_back({{receiver, excl}, depth, true, receiver});
          continue;
        }
        if ((callee == "Unlock" || callee == "UnlockShared" ||
             callee == "End") &&
            !receiver.empty()) {
          bool released = false;
          for (size_t k = active.size(); k-- > 0;) {
            if (active[k].lock.name == receiver || active[k].var == receiver) {
              active.erase(active.begin() + static_cast<long>(k));
              released = true;
              break;
            }
          }
          if (released || callee != "End") continue;
        }

        CallSite call{callee, receiver, tok.line, CurrentHeld(*fn, active)};
        fn->calls.push_back(call);

        // Decode-hygiene bookkeeping.
        if (cfg_.decode_fns.count(callee) > 0) {
          fn->decode_calls.push_back(
              ClassifyDecode(fn, callee, stmt_start, first, j, end));
        }
        continue;
      }

      // Pin traffic inside bodies.
      if (s == "new" && IsIdent(j + 1)) {
        auto [ty, tfirst] = NameChainEndingAt(j + 1);
        (void)tfirst;
        size_t k = j + 1;
        while (IsIdent(k) && Is(k + 1, "::")) k += 2;
        if (IsIdent(k) && t_[k].text == cfg_.pin_type) {
          model_->pin_events.push_back({PinEvent::Kind::kHeap, tok.line,
                                        "new " + cfg_.pin_type, fn->qname, rel_});
        }
        continue;
      }
      if ((s == "make_unique" || s == "make_shared") && Is(j + 1, "<")) {
        const size_t close = SkipAngles(j + 1, end);
        for (size_t k = j + 2; k + 1 < close; ++k) {
          if (IsIdent(k) && t_[k].text == cfg_.pin_type) {
            model_->pin_events.push_back({PinEvent::Kind::kHeap, tok.line,
                                          s + "<" + cfg_.pin_type + ">",
                                          fn->qname, rel_});
            break;
          }
        }
        continue;
      }
      if (IsContainerName(s) && Is(j + 1, "<")) {
        const size_t close = SkipAngles(j + 1, end);
        for (size_t k = j + 2; k + 1 < close; ++k) {
          if (IsIdent(k) && t_[k].text == cfg_.pin_type) {
            model_->pin_events.push_back({PinEvent::Kind::kContainer,
                                          tok.line,
                                          s + "<" + cfg_.pin_type + ">",
                                          fn->qname, rel_});
            break;
          }
        }
        continue;
      }
    }

    FinalizeDecodeUses(fn, i, end);
  }

  /// Classifies one decode call's statement context. `name_first` is the
  /// first token of the (possibly qualified) callee, `name_last` its
  /// last; the statement spans [stmt_start, ...].
  DecodeCall ClassifyDecode(Function* fn, const std::string& callee,
                            size_t stmt_start, size_t name_first,
                            size_t name_last, size_t end) {
    DecodeCall dc;
    dc.callee = callee;
    dc.line = t_[name_last].line;
    (void)fn;
    (void)end;
    // (void) discard directly before the call or its receiver.
    size_t recv_first = name_first;
    while (recv_first >= 2 && (t_[recv_first - 1].text == "." ||
                               t_[recv_first - 1].text == "->") &&
           IsIdent(recv_first - 2)) {
      recv_first -= 2;
    }
    if (recv_first >= 3 && t_[recv_first - 1].text == ")" &&
        t_[recv_first - 2].text == "void" && t_[recv_first - 3].text == "(") {
      dc.voided = true;
      return dc;
    }
    static const std::set<std::string> kChecked = {
        "if",     "while", "for",    "return", "assert",
        "switch", "ZDB_RETURN_IF_ERROR", "ZDB_ASSIGN_OR_RETURN",
        "CHECK",  "DCHECK", "EXPECT_TRUE", "ASSERT_TRUE", "ABSL_CHECK"};
    for (size_t k = stmt_start; k < recv_first; ++k) {
      const std::string& s = t_[k].text;
      if (t_[k].kind == Token::Kind::kIdent && kChecked.count(s) > 0) {
        dc.checked = true;
        return dc;
      }
      if (s == "&&" || s == "||" || s == "!" || s == "?" || s == "==" ||
          s == "!=") {
        dc.checked = true;
        return dc;
      }
      if (s == "=" && k > stmt_start && IsIdent(k - 1)) {
        dc.assigned_to = t_[k - 1].text;
      }
    }
    return dc;
  }

  /// Second pass over the body: any decode call assigned to a variable
  /// counts as checked only if that variable is read again afterwards
  /// (not just reassigned).
  void FinalizeDecodeUses(Function* fn, size_t i, size_t end) {
    for (DecodeCall& dc : fn->decode_calls) {
      if (dc.assigned_to.empty() || dc.checked || dc.voided) continue;
      for (size_t j = i; j < end; ++j) {
        if (t_[j].kind != Token::Kind::kIdent ||
            t_[j].text != dc.assigned_to || t_[j].line < dc.line) {
          continue;
        }
        const bool reassign = Is(j + 1, "=");
        const bool is_the_def = t_[j].line == dc.line && Is(j + 1, "=");
        if (!reassign && !is_the_def) {
          dc.assignee_read = true;
          break;
        }
        // "ok = ok && ..." — the RHS mention counts as a read.
        if (reassign && t_[j].line > dc.line) continue;
      }
    }
  }

  const std::string rel_;
  const std::vector<Token>& t_;
  const Config& cfg_;
  Model* model_;
};

}  // namespace

void ParseFile(const std::string& rel, const std::vector<Token>& tokens,
               const Config& cfg, Model* model) {
  Parser(rel, tokens, cfg, model).Run();
}

// ------------------------------------------------------------- Normalize

namespace {

/// Qualifies a bare lock name against the class chain of `fn`, then the
/// global class table. Returns the name unchanged when it is already
/// qualified, and empty when the owner is ambiguous.
std::string QualifyLock(const Model& model, const Function& fn,
                        const std::string& name) {
  if (name.find("::") != std::string::npos) return name;
  // Enclosing classes, innermost last ("A::B::f" -> try B, then A).
  std::vector<std::string> chain;
  size_t pos = 0;
  std::string q = fn.qname;
  while ((pos = q.find("::")) != std::string::npos) {
    chain.push_back(q.substr(0, pos));
    q = q.substr(pos + 2);
  }
  for (size_t k = chain.size(); k-- > 0;) {
    auto it = model.classes.find(chain[k]);
    if (it != model.classes.end() &&
        it->second.mutex_members.count(name) > 0) {
      return chain[k] + "::" + name;
    }
  }
  std::string owner;
  int owners = 0;
  for (const auto& [cname, info] : model.classes) {
    if (info.mutex_members.count(name) > 0) {
      owner = cname;
      ++owners;
    }
  }
  if (owners == 1) return owner + "::" + name;
  return "";  // ambiguous or unknown — order checks skip it
}

void QualifyHeld(const Model& model, const Function& fn,
                 std::vector<HeldLock>* held) {
  for (HeldLock& h : *held) {
    const std::string q = QualifyLock(model, fn, h.name);
    if (!q.empty()) h.name = q;
  }
}

}  // namespace

void Normalize(Model* model, const Config& cfg) {
  (void)cfg;
  for (auto& [qname, fn] : model->functions) {
    QualifyHeld(*model, fn, &fn.requires_locks);
    QualifyHeld(*model, fn, &fn.acquires_ann);
    for (CallSite& c : fn.calls) QualifyHeld(*model, fn, &c.held);
    for (LockAcquire& a : fn.lock_acquires) {
      QualifyHeld(*model, fn, &a.held);
      const std::string q = QualifyLock(*model, fn, a.lock);
      if (!q.empty()) a.lock = q;
    }
  }
}

}  // namespace lint
}  // namespace zdb
