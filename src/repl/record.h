// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Replication log records: the framing of one committed batch as it
// travels from a leader's log shipper to a follower's applier, plus the
// payload codecs of the three replication opcodes (net/wire.h).
//
// Record layout (little-endian, via the net/wire payload primitives):
//
//   u64  epoch        leader publish epoch the batch committed at
//   u32  op_count
//   ops  kind u8 = 0: insert — 4 doubles (MBR), u32 payload, u32 oid
//        kind u8 = 1: erase  — u32 oid
//   u32  checksum     FNV-1a over every preceding byte
//
// op_count and ops are net::EncodeWriteOps with oids: the APPLY
// request's op codec (net/wire.h), plus each insert's oid.
//
// Inserts carry the leader-assigned oid (replayed as a preassigned
// insert), which is what keeps follower object ids byte-identical to
// the leader's. The checksum is defence in depth: TCP already checks
// transport corruption, but a shipper/applier bookkeeping bug that
// misaligns the stream fails loudly here instead of replaying garbage.
//
// Frame payloads:
//   SUBSCRIBE  request: u64 last applied epoch
//              reply body: u64 leader head epoch at subscribe time
//   LOG_RECORD push: u64 leader head epoch at send time + one record
//              (the piggybacked head epoch is how a connected follower
//              tracks its lag without a separate heartbeat — the leader
//              epoch only advances on commits, and every commit ships)
//   LOG_ACK    fire-and-forget: u64 applied epoch

#ifndef ZDB_REPL_RECORD_H_
#define ZDB_REPL_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/spatial_index.h"

namespace zdb {
namespace repl {

/// One committed batch, epoch-stamped. Insert ops carry the assigned
/// oid in WriteOp::preassigned.
struct LogRecord {
  uint64_t epoch = 0;
  WriteBatch batch;
};

std::string EncodeLogRecord(const LogRecord& record);
/// Strict bounds-checked decode; verifies the checksum. False on any
/// truncation, trailing bytes, unknown op kind or checksum mismatch.
[[nodiscard]] bool DecodeLogRecord(std::string_view payload,
                                   LogRecord* record);

// ------------------------------------------------- opcode payload codecs

std::string EncodeSubscribeRequest(uint64_t last_applied_epoch);
[[nodiscard]] bool DecodeSubscribeRequest(std::string_view payload,
                                          uint64_t* last_applied_epoch);

/// SUBSCRIBE success reply body (after the wire status byte).
std::string EncodeSubscribeReply(uint64_t leader_epoch);
[[nodiscard]] bool DecodeSubscribeReplyBody(std::string_view body,
                                            uint64_t* leader_epoch);

std::string EncodeLogRecordFrame(uint64_t leader_epoch,
                                 std::string_view encoded_record);
[[nodiscard]] bool DecodeLogRecordFrame(std::string_view payload,
                                        uint64_t* leader_epoch,
                                        LogRecord* record);

std::string EncodeLogAck(uint64_t applied_epoch);
[[nodiscard]] bool DecodeLogAck(std::string_view payload,
                                uint64_t* applied_epoch);

}  // namespace repl
}  // namespace zdb

#endif  // ZDB_REPL_RECORD_H_
