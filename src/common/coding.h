// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Order-preserving and fixed-width integer encodings used for page layouts
// and index keys. Big-endian ("Fixed..BE") encodings sort correctly under
// the unsigned lexicographic comparison of Slice; little-endian encodings
// are used inside page layouts where order does not matter.

#ifndef ZDB_COMMON_CODING_H_
#define ZDB_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace zdb {

// -------- little-endian fixed-width (page layouts, wire payloads) --------

inline void EncodeFixed16(char* dst, uint16_t v) { std::memcpy(dst, &v, 2); }
inline void EncodeFixed32(char* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
inline void EncodeFixed64(char* dst, uint64_t v) { std::memcpy(dst, &v, 8); }

inline uint16_t DecodeFixed16(const char* src) {
  uint16_t v;
  std::memcpy(&v, src, 2);
  return v;
}
inline uint32_t DecodeFixed32(const char* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
inline uint64_t DecodeFixed64(const char* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

/// Little-endian appends (wire payloads, replication records).
inline void PutU32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}
inline void PutU64(std::string* dst, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  dst->append(buf, 8);
}
inline void PutDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(dst, bits);
}

// -------- big-endian fixed-width (order-preserving keys) --------

inline void EncodeFixed32BE(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v >> 24);
  dst[1] = static_cast<char>(v >> 16);
  dst[2] = static_cast<char>(v >> 8);
  dst[3] = static_cast<char>(v);
}
inline void EncodeFixed64BE(char* dst, uint64_t v) {
  EncodeFixed32BE(dst, static_cast<uint32_t>(v >> 32));
  EncodeFixed32BE(dst + 4, static_cast<uint32_t>(v));
}
inline uint32_t DecodeFixed32BE(const char* src) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(src);
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}
inline uint64_t DecodeFixed64BE(const char* src) {
  return (static_cast<uint64_t>(DecodeFixed32BE(src)) << 32) |
         DecodeFixed32BE(src + 4);
}

// -------- append helpers --------

inline void PutFixed32BE(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32BE(buf, v);
  dst->append(buf, 4);
}
inline void PutFixed64BE(std::string* dst, uint64_t v) {
  char buf[8];
  EncodeFixed64BE(buf, v);
  dst->append(buf, 8);
}

// -------- varint (compact lengths in page cells) --------

/// Appends v as a LEB128 varint (1-5 bytes for 32-bit values).
void PutVarint32(std::string* dst, uint32_t v);

/// Writes v into dst (which must have >=5 bytes available); returns the
/// number of bytes written.
size_t EncodeVarint32(char* dst, uint32_t v);

/// Parses a varint from [p, limit); advances *p past it. Returns false on
/// truncated or overlong input.
bool GetVarint32(const char** p, const char* limit, uint32_t* value);

/// Bytes EncodeVarint32 would produce for v.
size_t VarintLength32(uint32_t v);

// -------- hex rendering (debugging) --------

/// Lowercase hex dump of a byte slice, e.g. "0a1b2c".
std::string ToHex(const Slice& s);

}  // namespace zdb

#endif  // ZDB_COMMON_CODING_H_
