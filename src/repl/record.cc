// Copyright (c) zdb authors. Licensed under the MIT license.

#include "repl/record.h"

#include "common/coding.h"
#include "net/wire.h"

namespace zdb {
namespace repl {

namespace {

/// FNV-1a over the record body — cheap, order-sensitive, and enough to
/// catch a misaligned or bit-flipped replay before it mutates state.
uint32_t Fnv1a(std::string_view bytes) {
  uint32_t h = 0x811C9DC5u;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x01000193u;
  }
  return h;
}

}  // namespace

std::string EncodeLogRecord(const LogRecord& record) {
  std::string out;
  out.reserve(16 + 41 * record.batch.ops.size());
  PutU64(&out, record.epoch);
  net::EncodeWriteOps(&out, record.batch, true);
  PutU32(&out, Fnv1a(out));
  return out;
}

bool DecodeLogRecord(std::string_view payload, LogRecord* record) {
  if (payload.size() < 16) return false;  // epoch + count + checksum
  const std::string_view body = payload.substr(0, payload.size() - 4);
  const uint32_t stored = DecodeFixed32(payload.data() + payload.size() - 4);
  if (stored != Fnv1a(body)) return false;

  net::PayloadReader r(body);
  return r.GetU64(&record->epoch) &&
         net::DecodeWriteOps(&r, true, &record->batch) && r.AtEnd();
}

// --------------------------------------------------- opcode payload codecs

std::string EncodeSubscribeRequest(uint64_t last_applied_epoch) {
  std::string out;
  PutU64(&out, last_applied_epoch);
  return out;
}

bool DecodeSubscribeRequest(std::string_view payload,
                            uint64_t* last_applied_epoch) {
  net::PayloadReader r(payload);
  return r.GetU64(last_applied_epoch) && r.AtEnd();
}

std::string EncodeSubscribeReply(uint64_t leader_epoch) {
  std::string out;
  out.push_back(static_cast<char>(net::WireError::kOk));
  PutU64(&out, leader_epoch);
  return out;
}

bool DecodeSubscribeReplyBody(std::string_view body, uint64_t* leader_epoch) {
  net::PayloadReader r(body);
  return r.GetU64(leader_epoch) && r.AtEnd();
}

std::string EncodeLogRecordFrame(uint64_t leader_epoch,
                                 std::string_view encoded_record) {
  std::string out;
  out.reserve(8 + encoded_record.size());
  PutU64(&out, leader_epoch);
  out.append(encoded_record.data(), encoded_record.size());
  return out;
}

bool DecodeLogRecordFrame(std::string_view payload, uint64_t* leader_epoch,
                          LogRecord* record) {
  net::PayloadReader r(payload);
  if (!r.GetU64(leader_epoch)) return false;
  return DecodeLogRecord(payload.substr(8), record);
}

std::string EncodeLogAck(uint64_t applied_epoch) {
  std::string out;
  PutU64(&out, applied_epoch);
  return out;
}

bool DecodeLogAck(std::string_view payload, uint64_t* applied_epoch) {
  net::PayloadReader r(payload);
  return r.GetU64(applied_epoch) && r.AtEnd();
}

}  // namespace repl
}  // namespace zdb
