// Copyright (c) zdb authors. Licensed under the MIT license.

#include "common/metrics.h"

#include <cmath>
#include <cstdio>

namespace zdb {

// ------------------------------------------------------------ JsonWriter

void JsonWriter::MaybeComma() {
  if (need_comma_) out_.push_back(',');
  need_comma_ = false;
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  need_comma_ = true;
  return *this;
}

void JsonWriter::AppendEscaped(std::string_view s) {
  out_.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_.push_back(static_cast<char>(c));
        }
    }
  }
  out_.push_back('"');
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  MaybeComma();
  AppendEscaped(key);
  out_.push_back(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  MaybeComma();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  MaybeComma();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  MaybeComma();
  if (!std::isfinite(v)) {
    out_ += "null";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out_ += buf;
  }
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  MaybeComma();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view v) {
  MaybeComma();
  AppendEscaped(v);
  need_comma_ = true;
  return *this;
}

// ----------------------------------------------------- counter snapshots

void AppendJson(JsonWriter* w, std::string_view key, const IoStats& stats) {
  w->Key(key).BeginObject();
  w->Field("page_reads", stats.page_reads.load(std::memory_order_relaxed));
  w->Field("page_writes", stats.page_writes.load(std::memory_order_relaxed));
  w->Field("pool_hits", stats.pool_hits.load(std::memory_order_relaxed));
  w->Field("pool_misses", stats.pool_misses.load(std::memory_order_relaxed));
  w->Field("pool_evictions",
           stats.pool_evictions.load(std::memory_order_relaxed));
  w->Field("accesses", stats.accesses());
  w->EndObject();
}

}  // namespace zdb
