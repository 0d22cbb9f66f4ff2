// Copyright (c) zdb authors. Licensed under the MIT license.
//
// zdb_lint driver. Usage:
//
//   zdb_lint --root=<repo root> [--config=<conf>] [--check=<name>]...
//            [--compile-commands=<build/compile_commands.json>]
//
// Scans <root>/src (or <root> itself for fixture trees with loose .cc
// files), headers before sources so class/mutex tables exist by the time
// method bodies resolve. When --compile-commands is given, its file list
// (filtered to the scan root) replaces the directory walk for .cc files
// — headers are still discovered by walking, since they never appear in
// the compilation database. Exit code: 0 clean, 1 findings, 2 usage or
// I/O error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "lint.h"

namespace zdb {
namespace lint {
namespace {

namespace fs = std::filesystem;

struct Options {
  std::string root = ".";
  std::string config;
  std::string compile_commands;
  std::set<std::string> checks;  // empty = all
};

const std::set<std::string> kAllChecks = {"io-under-latch", "epoch-pin",
                                          "decode-hygiene", "lock-order",
                                          "requires-held"};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* prefix) -> std::optional<std::string> {
      const size_t n = std::string(prefix).size();
      if (arg.rfind(prefix, 0) == 0) return arg.substr(n);
      return std::nullopt;
    };
    if (auto root = val("--root=")) {
      opt->root = *root;
    } else if (auto conf = val("--config=")) {
      opt->config = *conf;
    } else if (auto ccj = val("--compile-commands=")) {
      opt->compile_commands = *ccj;
    } else if (auto check = val("--check=")) {
      if (kAllChecks.count(*check) == 0) {
        std::cerr << "zdb_lint: unknown check '" << *check << "'\n";
        return false;
      }
      opt->checks.insert(*check);
    } else {
      std::cerr << "zdb_lint: unknown argument '" << arg << "'\n"
                << "usage: zdb_lint --root=DIR [--config=FILE] "
                   "[--check=NAME]... [--compile-commands=FILE]\n"
                << "checks: io-under-latch epoch-pin decode-hygiene "
                   "lock-order requires-held\n";
      return false;
    }
  }
  if (opt->config.empty()) {
    opt->config = opt->root + "/tools/zdb_lint/zdb_lint.conf";
  }
  return true;
}

/// Pulls the "file" entries out of compile_commands.json. A full JSON
/// parser is overkill for the clang/cmake output shape; we scan for
/// '"file"' keys and take the quoted value, unescaping nothing (paths in
/// this repo have no escapes).
std::vector<std::string> FilesFromCompileCommands(const std::string& path) {
  std::vector<std::string> files;
  const auto text = LoadFile(path);
  if (!text.has_value()) return files;
  const std::string key = "\"file\"";
  size_t pos = 0;
  while ((pos = text->find(key, pos)) != std::string::npos) {
    pos += key.size();
    const size_t q1 = text->find('"', pos);
    if (q1 == std::string::npos) break;
    const size_t q2 = text->find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    files.push_back(text->substr(q1 + 1, q2 - q1 - 1));
    pos = q2 + 1;
  }
  return files;
}

bool IsHeader(const fs::path& p) {
  return p.extension() == ".h" || p.extension() == ".hpp";
}
bool IsSource(const fs::path& p) {
  return p.extension() == ".cc" || p.extension() == ".cpp";
}

/// Collects the scan list: headers first, then sources, both sorted for
/// deterministic output.
std::vector<fs::path> CollectFiles(const Options& opt,
                                   const fs::path& scan_root) {
  std::vector<fs::path> headers;
  std::vector<fs::path> sources;
  for (const auto& entry : fs::recursive_directory_iterator(scan_root)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (IsHeader(p)) headers.push_back(p);
    else if (IsSource(p) && opt.compile_commands.empty()) sources.push_back(p);
  }
  if (!opt.compile_commands.empty()) {
    const fs::path root_abs = fs::absolute(scan_root).lexically_normal();
    for (const std::string& f : FilesFromCompileCommands(
             opt.compile_commands)) {
      fs::path p = fs::path(f).lexically_normal();
      // Keep only files under the scan root.
      const std::string ps = fs::absolute(p).lexically_normal().string();
      if (ps.rfind(root_abs.string(), 0) == 0 && IsSource(p)) {
        sources.push_back(p);
      }
    }
  }
  std::sort(headers.begin(), headers.end());
  std::sort(sources.begin(), sources.end());
  std::vector<fs::path> all = std::move(headers);
  all.insert(all.end(), sources.begin(), sources.end());
  return all;
}

int Run(const Options& opt) {
  Config cfg;
  std::string err;
  if (!LoadConfig(opt.config, &cfg, &err)) {
    std::cerr << "zdb_lint: " << err << "\n";
    return 2;
  }

  const fs::path root(opt.root);
  fs::path scan_root = root / "src";
  std::error_code ec;
  if (!fs::is_directory(scan_root, ec)) scan_root = root;
  if (!fs::is_directory(scan_root, ec)) {
    std::cerr << "zdb_lint: no such directory: " << scan_root << "\n";
    return 2;
  }

  Model model;
  int parsed = 0;
  for (const fs::path& p : CollectFiles(opt, scan_root)) {
    const auto text = LoadFile(p.string());
    if (!text.has_value()) {
      std::cerr << "zdb_lint: cannot read " << p << "\n";
      return 2;
    }
    const std::string rel =
        fs::relative(p, root, ec).string().empty() || ec
            ? p.string()
            : fs::relative(p, root).string();
    ParseFile(rel, Lex(Scrub(*text)), cfg, &model);
    ++parsed;
  }
  Normalize(&model, cfg);
  const CallGraph graph(model, cfg);

  auto want = [&](const char* name) {
    return opt.checks.empty() || opt.checks.count(name) > 0;
  };
  std::vector<Diagnostic> diags;
  auto append = [&](std::vector<Diagnostic> v) {
    diags.insert(diags.end(), std::make_move_iterator(v.begin()),
                 std::make_move_iterator(v.end()));
  };
  if (want("io-under-latch")) append(CheckIoUnderLatch(model, graph, cfg));
  if (want("epoch-pin")) append(CheckEpochPins(model, cfg));
  if (want("decode-hygiene")) append(CheckDecodeHygiene(model, cfg));
  if (want("lock-order")) append(CheckLockOrder(model, graph, cfg));
  if (want("requires-held")) append(CheckRequiresHeld(model, graph, cfg));

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  for (const Diagnostic& d : diags) {
    std::cout << d.file << ":" << d.line << ": error: [" << d.check << "] "
              << d.message << "\n";
  }
  std::cerr << "zdb_lint: " << parsed << " files, "
            << model.functions.size() << " functions, " << diags.size()
            << " finding" << (diags.size() == 1 ? "" : "s") << "\n";
  return diags.empty() ? 0 : 1;
}

}  // namespace
}  // namespace lint
}  // namespace zdb

int main(int argc, char** argv) {
  zdb::lint::Options opt;
  if (!zdb::lint::ParseArgs(argc, argv, &opt)) return 2;
  return zdb::lint::Run(opt);
}
