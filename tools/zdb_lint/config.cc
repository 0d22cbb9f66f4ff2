// Copyright (c) zdb authors. Licensed under the MIT license.
//
// zdb_lint.conf parsing. The format is deliberately dumb: ini-style
// [section] headers, one entry per line, '#' comments. Policy (sinks,
// allowlists, sanctioned plumbing, the declared lock order) lives here
// so tightening or relaxing a contract is a data change with a reasoned
// comment, not a tool rebuild.

#include <fstream>
#include <sstream>

#include "lint.h"

namespace zdb {
namespace lint {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Splits "a -> b" / "Name = Lock, shared" style lines.
std::vector<std::string> SplitOn(const std::string& s, const std::string& sep) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (true) {
    const size_t next = s.find(sep, pos);
    if (next == std::string::npos) {
      out.push_back(Trim(s.substr(pos)));
      return out;
    }
    out.push_back(Trim(s.substr(pos, next - pos)));
    pos = next + sep.size();
  }
}

}  // namespace

bool LoadConfig(const std::string& path, Config* cfg, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot open config: " + path;
    return false;
  }
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    std::string reason;
    if (hash != std::string::npos) {
      reason = Trim(line.substr(hash + 1));
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) continue;
    if (line.front() == '[' && line.back() == ']') {
      section = Trim(line.substr(1, line.size() - 2));
      continue;
    }
    auto bad = [&](const std::string& why) {
      *err = path + ":" + std::to_string(lineno) + ": " + why;
      return false;
    };
    if (section == "latches") {
      cfg->latches.insert(line);
    } else if (section == "section_types") {
      // "WriterSection = SpatialIndex::WriterSection, exclusive"
      const auto kv = SplitOn(line, "=");
      if (kv.size() != 2) return bad("want 'Name = Lock, exclusive|shared'");
      const auto lockmode = SplitOn(kv[1], ",");
      if (lockmode.size() != 2 ||
          (lockmode[1] != "exclusive" && lockmode[1] != "shared")) {
        return bad("want 'Name = Lock, exclusive|shared'");
      }
      cfg->section_types[kv[0]] = {lockmode[0], lockmode[1] == "exclusive"};
    } else if (section == "io_sinks") {
      cfg->io_sinks.insert(line);
    } else if (section == "io_allow") {
      cfg->io_allow[line] = reason.empty() ? "allowlisted" : reason;
    } else if (section == "decode_fns") {
      cfg->decode_fns.insert(line);
    } else if (section == "decode_paths") {
      cfg->decode_paths.push_back(line);
    } else if (section == "pin_type") {
      cfg->pin_type = line;
    } else if (section == "pin_return_allow") {
      cfg->pin_return_allow.insert(line);
    } else if (section == "pin_file_allow") {
      cfg->pin_file_allow.push_back(line);
    } else if (section == "lock_order") {
      const auto ab = SplitOn(line, "->");
      if (ab.size() != 2 || ab[0].empty() || ab[1].empty()) {
        return bad("want 'LockA -> LockB' (A acquired before B)");
      }
      cfg->lock_order.push_back({ab[0], ab[1]});
    } else if (section == "order_allow") {
      cfg->order_allow.insert(line);
    } else if (section == "requires_held") {
      cfg->requires_held.insert(line);
    } else if (section == "receiver_types") {
      const auto kv = SplitOn(line, "=");
      if (kv.size() != 2) return bad("want 'member_ = ClassName'");
      cfg->receiver_types[kv[0]] = kv[1];
    } else {
      return bad("unknown section [" + section + "]");
    }
  }
  return true;
}

}  // namespace lint
}  // namespace zdb
