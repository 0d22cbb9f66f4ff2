// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The zdb binary wire protocol: length-prefixed frames with a versioned
// fixed-size header, carried over TCP or a unix-domain socket.
//
// Frame layout (all integers little-endian, via common/coding.h):
//
//   offset  size  field
//        0     4  magic        kMagic — rejects non-zdb peers
//        4     4  payload_len  bytes following the header (<= kMaxPayload)
//        8     2  version      kWireVersion
//       10     1  opcode       Opcode
//       11     1  flags        bit 0 = reply
//       12     8  request_id   echoed verbatim in the reply
//       20        payload
//
// Every reply payload begins with one status byte (WireError): 0 means
// success and the opcode-specific body follows; anything else is a typed
// error whose body is a length-prefixed message. Parsing is strictly
// bounds-checked: truncated, oversized or malformed input yields a typed
// decode failure (never a crash or over-read), which the server turns
// into an error reply instead of dying.
//
// Framing errors (bad magic, wrong version, oversized length) poison the
// byte stream — the receiver cannot know where the next frame starts —
// so after reporting one the connection must be closed. Payload-level
// errors (unknown opcode, malformed body) leave the stream framed and
// the connection usable.

#ifndef ZDB_NET_WIRE_H_
#define ZDB_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/spatial_index.h"
#include "geom/point.h"
#include "geom/rect.h"

namespace zdb {
namespace net {

constexpr uint32_t kMagic = 0x315A4442u;  // "BDZ1" on the wire
/// The protocol version. Both ends ship in this repository, so there is
/// exactly one: a header carrying any other value is rejected with
/// kBadVersion. Version 4 fixed one payload layout per opcode (the
/// staleness bound on queries and the durability byte on APPLY are
/// always present); versions 1–3 made them optional trailers.
constexpr uint16_t kWireVersion = 4;
/// Upper bound on payload_len; larger headers are rejected with
/// kFrameTooLarge before any allocation happens.
constexpr uint32_t kMaxPayload = 16u << 20;
constexpr size_t kHeaderSize = 20;
constexpr uint8_t kFlagReply = 0x1;

/// Request opcodes. Values are wire contract — append only.
enum class Opcode : uint8_t {
  kPing = 1,      ///< liveness probe; empty payload both ways
  kWindow = 2,    ///< window (intersection) query
  kPoint = 3,     ///< point containment query
  kKnn = 4,       ///< k nearest neighbors
  kApply = 5,     ///< atomic insert/erase batch (ApplyBatch)
  kStats = 6,     ///< server + engine counters as JSON
  kShutdown = 7,  ///< request graceful server shutdown
  /// Replication. A follower SUBSCRIBEs on a leader carrying
  /// its last applied epoch; the leader replies, then pushes LOG_RECORD
  /// frames (flags 0, request_id 0 — the one server-initiated frame in
  /// the protocol) on the same connection; the follower acknowledges
  /// applied records with fire-and-forget LOG_ACK frames (no reply).
  kSubscribe = 8,   ///< follower handshake: u64 last applied epoch
  kLogRecord = 9,   ///< leader push: u64 leader epoch + one log record
  kLogAck = 10,     ///< follower ack: u64 applied epoch (no reply)
};

/// One past the largest opcode value; sizes per-opcode counter arrays.
constexpr size_t kOpcodeLimit = 11;

[[nodiscard]] bool KnownOpcode(uint8_t op);
const char* OpcodeName(Opcode op);

/// Typed wire-level error codes carried in the reply status byte.
/// Values are wire contract — append only. Codes 9+ mirror engine
/// Status codes one-for-one so a server-side Status crosses the wire
/// losslessly (see StatusCodeToWireError / WireErrorToStatus).
enum class WireError : uint8_t {
  kOk = 0,
  kMalformed = 1,      ///< payload failed bounds-checked decoding
  kUnknownOpcode = 2,  ///< opcode outside the known set
  kBadVersion = 3,     ///< header version is not kWireVersion
  kFrameTooLarge = 4,  ///< payload_len > kMaxPayload
  kBadMagic = 5,       ///< header magic mismatch (not a zdb peer)
  kBusy = 6,           ///< admission queue full — backpressure, retry
  kShuttingDown = 7,   ///< server draining; no new work accepted
  kServerError = 8,    ///< internal engine failure (Status::kInternal)
  kNotFound = 9,       ///< Status::kNotFound (e.g. erase of a dead oid)
  kCorruption = 10,    ///< Status::kCorruption
  kInvalidArgument = 11,  ///< Status::kInvalidArgument
  kIOError = 12,       ///< Status::kIOError
  kNoSpace = 13,       ///< Status::kNoSpace
  kAlreadyExists = 14, ///< Status::kAlreadyExists
  kTimedOut = 15,      ///< Status::kTimedOut (durability wait deadline)
  /// Write sent to a follower. The message is the leader's endpoint URI
  /// when known — clients reconnect there and retry (Status::kNotLeader).
  kNotLeader = 16,
  /// Bounded-staleness query rejected: the follower's replication lag
  /// exceeds the request's bound (or its applier is disconnected).
  /// Clients fall back to the leader; maps onto Status::kUnavailable.
  kStaleRead = 17,
};

const char* WireErrorName(WireError e);

// ------------------------------------------- Status <-> WireError table
//
// The single bidirectional mapping between engine Status codes and wire
// error codes. Status -> wire -> Status is the identity for every
// Status::Code, so a typed engine error reaches the remote caller with
// its code and message intact. The wire -> Status direction is total:
// framing/protocol codes (which no Status produces) collapse onto
// kIOError, the catch-all for protocol violations.

WireError StatusCodeToWireError(Status::Code code);
Status::Code WireErrorToStatusCode(WireError e);
/// Rebuilds the Status a server-side error reply encodes.
Status WireErrorToStatus(WireError e, std::string message);

struct FrameHeader {
  uint32_t payload_len = 0;
  uint16_t version = kWireVersion;
  uint8_t opcode = 0;
  uint8_t flags = 0;
  uint64_t request_id = 0;
};

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Writes the 20-byte header for a frame with `header`'s fields.
void EncodeFrameHeader(char* dst, const FrameHeader& header);

/// Strict header decode from kHeaderSize bytes. On kOk, *out is filled.
/// On kBadMagic/kBadVersion/kFrameTooLarge, *out still carries whatever
/// fields were readable (opcode, request_id) so an error reply can echo
/// them. Only kWireVersion is accepted.
[[nodiscard]] WireError DecodeFrameHeader(const char* src, FrameHeader* out);

/// A complete kWireVersion frame: header + payload, ready to write to a
/// socket.
std::string BuildFrame(Opcode op, uint8_t flags, uint64_t request_id,
                       std::string_view payload);

/// Incremental frame reassembly over an arbitrary chunking of the byte
/// stream (a frame may arrive split across many reads, or many frames in
/// one read). Feed() appends bytes; Poll() extracts the next complete
/// frame. A framing error (bad magic/version/length) poisons the
/// assembler: Poll() keeps returning kError and the connection must be
/// closed after sending the error reply.
class FrameAssembler {
 public:
  enum class Next : uint8_t {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< *out holds the next frame
    kError,     ///< framing error; *err/*err_header describe it
  };

  void Feed(const char* data, size_t n);

  /// Extracts the next complete frame into *out, or reports a framing
  /// error (err_header carries the offending header's opcode/request_id
  /// as far as they were parseable).
  Next Poll(Frame* out, WireError* err, FrameHeader* err_header);

  size_t buffered_bytes() const { return buf_.size() - pos_; }
  bool poisoned() const { return poisoned_; }

 private:
  std::string buf_;
  size_t pos_ = 0;  ///< consumed prefix of buf_
  bool poisoned_ = false;
  WireError poison_code_ = WireError::kOk;
  FrameHeader poison_header_;
};

/// Bounds-checked cursor over a payload. Every Get* returns false (and
/// consumes nothing) when fewer bytes remain than requested.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view buf)
      : p_(buf.data()), end_(buf.data() + buf.size()) {}

  [[nodiscard]] bool GetU8(uint8_t* v);
  [[nodiscard]] bool GetU32(uint32_t* v);
  [[nodiscard]] bool GetU64(uint64_t* v);
  [[nodiscard]] bool GetDouble(double* v);
  /// u32 length prefix + that many bytes.
  [[nodiscard]] bool GetLengthPrefixedString(std::string* v);

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool AtEnd() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

// ------------------------------------------------------ request payloads
//
// One layout per opcode; every field is always present, and a payload
// with missing or extra bytes is malformed. Query requests (WINDOW/
// POINT/KNN) end with a u64 staleness bound — the maximum replication
// lag, in epochs, the caller tolerates from a follower.

/// "No staleness bound": any replica state answers the query.
constexpr uint64_t kNoStalenessBound = ~uint64_t{0};

/// WINDOW: 4 doubles (xlo, ylo, xhi, yhi) + u64 bound.
std::string EncodeWindowRequest(const Rect& w,
                                uint64_t max_lag = kNoStalenessBound);
[[nodiscard]] bool DecodeWindowRequest(std::string_view payload, Rect* w,
                                       uint64_t* max_lag);

/// POINT: 2 doubles + u64 bound.
std::string EncodePointRequest(const Point& p,
                               uint64_t max_lag = kNoStalenessBound);
[[nodiscard]] bool DecodePointRequest(std::string_view payload, Point* p,
                                      uint64_t* max_lag);

/// KNN: 2 doubles + u32 k + u64 bound.
std::string EncodeKnnRequest(const Point& p, uint32_t k,
                             uint64_t max_lag = kNoStalenessBound);
[[nodiscard]] bool DecodeKnnRequest(std::string_view payload, Point* p,
                                    uint32_t* k, uint64_t* max_lag);

/// A batch's ops, the one codec of both batch encodings (APPLY below,
/// the replication log record in repl/record.h): u32 op count, then per
/// op a kind byte — 0: insert (4 doubles MBR, u32 payload word and, iff
/// `with_oids`, the u32 WriteOp::preassigned oid), 1: erase (u32 oid).
void EncodeWriteOps(std::string* dst, const WriteBatch& batch,
                    bool with_oids);
/// Reads the ops into *batch (replacing its ops); false on truncation,
/// an unknown kind, or a count the remaining bytes cannot hold.
[[nodiscard]] bool DecodeWriteOps(PayloadReader* r, bool with_oids,
                                  WriteBatch* batch);

/// APPLY: the batch's ops without oids (EncodeWriteOps), then one
/// Durability byte. Applied atomically server-side via zdb::DB::Apply.
std::string EncodeApplyRequest(const WriteBatch& batch,
                               Durability durability = Durability::kDurable);
[[nodiscard]] bool DecodeApplyRequest(std::string_view payload,
                                      WriteBatch* batch,
                                      Durability* durability);

// -------------------------------------------------------- reply payloads
//
// Query replies carry the index write epochs loaded immediately before
// and after execution — the hook remote callers use to cross-check a
// concurrent answer against per-epoch oracles (see stress_mixed_test).

std::string EncodeErrorReply(WireError code, std::string_view message);

/// Window/point replies: epochs + sorted object ids.
std::string EncodeIdListReply(uint64_t epoch_before, uint64_t epoch_after,
                              const std::vector<ObjectId>& ids);
/// kNN replies: epochs + (oid, distance) pairs, closest first.
std::string EncodeKnnReply(
    uint64_t epoch_before, uint64_t epoch_after,
    const std::vector<std::pair<ObjectId, double>>& hits);
/// Apply replies: the write epoch after the batch committed + the
/// inserted oids in op order.
std::string EncodeApplyReply(uint64_t epoch_after,
                             const std::vector<ObjectId>& inserted);
std::string EncodeStatsReply(std::string_view json);
/// Success reply with no body (PING, SHUTDOWN).
std::string EncodeEmptyReply();

/// Splits a reply payload into its status and body: on kOk, *body is the
/// opcode-specific remainder; on error, *error_message is filled from the
/// length-prefixed message. A reply too short to carry a status byte (or
/// an error reply with a malformed message) reports kMalformed.
[[nodiscard]] WireError ParseReplyStatus(std::string_view payload,
                                         std::string_view* body,
                                         std::string* error_message);

[[nodiscard]] bool DecodeIdListReplyBody(std::string_view body,
                                         uint64_t* epoch_before,
                                         uint64_t* epoch_after,
                                         std::vector<ObjectId>* ids);
[[nodiscard]] bool DecodeKnnReplyBody(
    std::string_view body, uint64_t* epoch_before, uint64_t* epoch_after,
    std::vector<std::pair<ObjectId, double>>* hits);
[[nodiscard]] bool DecodeApplyReplyBody(std::string_view body,
                                        uint64_t* epoch_after,
                                        std::vector<ObjectId>* inserted);
[[nodiscard]] bool DecodeStatsReplyBody(std::string_view body,
                                        std::string* json);

}  // namespace net
}  // namespace zdb

#endif  // ZDB_NET_WIRE_H_
