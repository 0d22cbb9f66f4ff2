// Copyright (c) zdb authors. Licensed under the MIT license.

#include "net/wire.h"

#include <cstring>

#include "common/coding.h"

namespace zdb {
namespace net {

bool KnownOpcode(uint8_t op) {
  return op >= static_cast<uint8_t>(Opcode::kPing) &&
         op <= static_cast<uint8_t>(Opcode::kLogAck);
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kPing: return "ping";
    case Opcode::kWindow: return "window";
    case Opcode::kPoint: return "point";
    case Opcode::kKnn: return "knn";
    case Opcode::kApply: return "apply";
    case Opcode::kStats: return "stats";
    case Opcode::kShutdown: return "shutdown";
    case Opcode::kSubscribe: return "subscribe";
    case Opcode::kLogRecord: return "log_record";
    case Opcode::kLogAck: return "log_ack";
  }
  return "unknown";
}

const char* WireErrorName(WireError e) {
  switch (e) {
    case WireError::kOk: return "ok";
    case WireError::kMalformed: return "malformed";
    case WireError::kUnknownOpcode: return "unknown_opcode";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kFrameTooLarge: return "frame_too_large";
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBusy: return "busy";
    case WireError::kShuttingDown: return "shutting_down";
    case WireError::kServerError: return "server_error";
    case WireError::kNotFound: return "not_found";
    case WireError::kCorruption: return "corruption";
    case WireError::kInvalidArgument: return "invalid_argument";
    case WireError::kIOError: return "io_error";
    case WireError::kNoSpace: return "no_space";
    case WireError::kAlreadyExists: return "already_exists";
    case WireError::kTimedOut: return "timed_out";
    case WireError::kNotLeader: return "not_leader";
    case WireError::kStaleRead: return "stale_read";
  }
  return "unknown";
}

// ------------------------------------------- Status <-> WireError table

WireError StatusCodeToWireError(Status::Code code) {
  switch (code) {
    case Status::Code::kOk: return WireError::kOk;
    case Status::Code::kNotFound: return WireError::kNotFound;
    case Status::Code::kCorruption: return WireError::kCorruption;
    case Status::Code::kInvalidArgument: return WireError::kInvalidArgument;
    case Status::Code::kIOError: return WireError::kIOError;
    case Status::Code::kNoSpace: return WireError::kNoSpace;
    case Status::Code::kAlreadyExists: return WireError::kAlreadyExists;
    case Status::Code::kInternal: return WireError::kServerError;
    case Status::Code::kBusy: return WireError::kBusy;
    case Status::Code::kUnavailable: return WireError::kShuttingDown;
    case Status::Code::kTimedOut: return WireError::kTimedOut;
    // No dedicated wire code: a rolled-back snapshot epoch is a server-
    // side condition the client retries like any transient server error.
    case Status::Code::kAborted: return WireError::kServerError;
    case Status::Code::kNotLeader: return WireError::kNotLeader;
  }
  return WireError::kServerError;
}

Status::Code WireErrorToStatusCode(WireError e) {
  switch (e) {
    case WireError::kOk: return Status::Code::kOk;
    case WireError::kBusy: return Status::Code::kBusy;
    case WireError::kShuttingDown: return Status::Code::kUnavailable;
    case WireError::kServerError: return Status::Code::kInternal;
    case WireError::kNotFound: return Status::Code::kNotFound;
    case WireError::kCorruption: return Status::Code::kCorruption;
    case WireError::kInvalidArgument: return Status::Code::kInvalidArgument;
    case WireError::kIOError: return Status::Code::kIOError;
    case WireError::kNoSpace: return Status::Code::kNoSpace;
    case WireError::kAlreadyExists: return Status::Code::kAlreadyExists;
    case WireError::kTimedOut: return Status::Code::kTimedOut;
    case WireError::kNotLeader: return Status::Code::kNotLeader;
    // A stale-read rejection is a retry-elsewhere condition, like a
    // draining server: the replica is reachable but cannot honour the
    // staleness bound right now.
    case WireError::kStaleRead: return Status::Code::kUnavailable;
    // Framing/protocol violations have no engine-side Status of their
    // own; they collapse onto the protocol catch-all.
    case WireError::kMalformed:
    case WireError::kUnknownOpcode:
    case WireError::kBadVersion:
    case WireError::kFrameTooLarge:
    case WireError::kBadMagic:
      return Status::Code::kIOError;
  }
  return Status::Code::kIOError;
}

Status WireErrorToStatus(WireError e, std::string message) {
  switch (WireErrorToStatusCode(e)) {
    case Status::Code::kOk: return Status::OK();
    case Status::Code::kNotFound: return Status::NotFound(std::move(message));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(message));
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case Status::Code::kIOError: return Status::IOError(std::move(message));
    case Status::Code::kNoSpace: return Status::NoSpace(std::move(message));
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case Status::Code::kInternal: return Status::Internal(std::move(message));
    case Status::Code::kBusy: return Status::Busy(std::move(message));
    case Status::Code::kUnavailable:
      return Status::Unavailable(std::move(message));
    case Status::Code::kTimedOut: return Status::TimedOut(std::move(message));
    case Status::Code::kAborted: return Status::Aborted(std::move(message));
    case Status::Code::kNotLeader:
      return Status::NotLeader(std::move(message));
  }
  return Status::IOError(std::move(message));
}

// --------------------------------------------------------------- framing

void EncodeFrameHeader(char* dst, const FrameHeader& header) {
  EncodeFixed32(dst, kMagic);
  EncodeFixed32(dst + 4, header.payload_len);
  EncodeFixed16(dst + 8, header.version);
  dst[10] = static_cast<char>(header.opcode);
  dst[11] = static_cast<char>(header.flags);
  EncodeFixed64(dst + 12, header.request_id);
}

WireError DecodeFrameHeader(const char* src, FrameHeader* out) {
  const uint32_t magic = DecodeFixed32(src);
  out->payload_len = DecodeFixed32(src + 4);
  out->version = DecodeFixed16(src + 8);
  out->opcode = static_cast<uint8_t>(src[10]);
  out->flags = static_cast<uint8_t>(src[11]);
  out->request_id = DecodeFixed64(src + 12);
  if (magic != kMagic) return WireError::kBadMagic;
  if (out->version != kWireVersion) return WireError::kBadVersion;
  if (out->payload_len > kMaxPayload) return WireError::kFrameTooLarge;
  return WireError::kOk;
}

std::string BuildFrame(Opcode op, uint8_t flags, uint64_t request_id,
                       std::string_view payload) {
  FrameHeader h;
  h.payload_len = static_cast<uint32_t>(payload.size());
  h.opcode = static_cast<uint8_t>(op);
  h.flags = flags;
  h.request_id = request_id;
  std::string out;
  out.resize(kHeaderSize);
  EncodeFrameHeader(out.data(), h);
  out.append(payload.data(), payload.size());
  return out;
}

void FrameAssembler::Feed(const char* data, size_t n) {
  if (poisoned_) return;  // stream is dead; don't accumulate garbage
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 64 * 1024)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameAssembler::Next FrameAssembler::Poll(Frame* out, WireError* err,
                                          FrameHeader* err_header) {
  if (poisoned_) {
    *err = poison_code_;
    *err_header = poison_header_;
    return Next::kError;
  }
  if (buf_.size() - pos_ < kHeaderSize) return Next::kNeedMore;
  FrameHeader h;
  const WireError he = DecodeFrameHeader(buf_.data() + pos_, &h);
  if (he != WireError::kOk) {
    poisoned_ = true;
    poison_code_ = he;
    poison_header_ = h;
    *err = he;
    *err_header = h;
    return Next::kError;
  }
  if (buf_.size() - pos_ < kHeaderSize + h.payload_len) {
    return Next::kNeedMore;
  }
  out->header = h;
  out->payload.assign(buf_, pos_ + kHeaderSize, h.payload_len);
  pos_ += kHeaderSize + h.payload_len;
  return Next::kFrame;
}

// --------------------------------------------------------- PayloadReader

bool PayloadReader::GetU8(uint8_t* v) {
  if (remaining() < 1) return false;
  *v = static_cast<uint8_t>(*p_++);
  return true;
}

bool PayloadReader::GetU32(uint32_t* v) {
  if (remaining() < 4) return false;
  *v = DecodeFixed32(p_);
  p_ += 4;
  return true;
}

bool PayloadReader::GetU64(uint64_t* v) {
  if (remaining() < 8) return false;
  *v = DecodeFixed64(p_);
  p_ += 8;
  return true;
}

bool PayloadReader::GetDouble(double* v) {
  uint64_t bits;
  if (!GetU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool PayloadReader::GetLengthPrefixedString(std::string* v) {
  uint32_t len;
  if (!GetU32(&len)) return false;
  if (remaining() < len) return false;
  v->assign(p_, len);
  p_ += len;
  return true;
}

// ------------------------------------------------------ request payloads

std::string EncodeWindowRequest(const Rect& w, uint64_t max_lag) {
  std::string out;
  out.reserve(40);
  PutDouble(&out, w.xlo);
  PutDouble(&out, w.ylo);
  PutDouble(&out, w.xhi);
  PutDouble(&out, w.yhi);
  PutU64(&out, max_lag);
  return out;
}

bool DecodeWindowRequest(std::string_view payload, Rect* w,
                         uint64_t* max_lag) {
  PayloadReader r(payload);
  return r.GetDouble(&w->xlo) && r.GetDouble(&w->ylo) &&
         r.GetDouble(&w->xhi) && r.GetDouble(&w->yhi) &&
         r.GetU64(max_lag) && r.AtEnd();
}

std::string EncodePointRequest(const Point& p, uint64_t max_lag) {
  std::string out;
  out.reserve(24);
  PutDouble(&out, p.x);
  PutDouble(&out, p.y);
  PutU64(&out, max_lag);
  return out;
}

bool DecodePointRequest(std::string_view payload, Point* p,
                        uint64_t* max_lag) {
  PayloadReader r(payload);
  return r.GetDouble(&p->x) && r.GetDouble(&p->y) && r.GetU64(max_lag) &&
         r.AtEnd();
}

std::string EncodeKnnRequest(const Point& p, uint32_t k, uint64_t max_lag) {
  std::string out;
  out.reserve(28);
  PutDouble(&out, p.x);
  PutDouble(&out, p.y);
  PutU32(&out, k);
  PutU64(&out, max_lag);
  return out;
}

bool DecodeKnnRequest(std::string_view payload, Point* p, uint32_t* k,
                      uint64_t* max_lag) {
  PayloadReader r(payload);
  return r.GetDouble(&p->x) && r.GetDouble(&p->y) && r.GetU32(k) &&
         r.GetU64(max_lag) && r.AtEnd();
}

void EncodeWriteOps(std::string* dst, const WriteBatch& batch,
                    bool with_oids) {
  PutU32(dst, static_cast<uint32_t>(batch.ops.size()));
  for (const WriteOp& op : batch.ops) {
    if (op.kind == WriteOp::Kind::kInsert) {
      dst->push_back(0);
      PutDouble(dst, op.mbr.xlo);
      PutDouble(dst, op.mbr.ylo);
      PutDouble(dst, op.mbr.xhi);
      PutDouble(dst, op.mbr.yhi);
      PutU32(dst, op.payload);
      if (with_oids) PutU32(dst, op.preassigned);
    } else {
      dst->push_back(1);
      PutU32(dst, op.oid);
    }
  }
}

bool DecodeWriteOps(PayloadReader* r, bool with_oids, WriteBatch* batch) {
  uint32_t count;
  if (!r->GetU32(&count)) return false;
  // Each op is at least 5 bytes (kind + oid); a count claiming more ops
  // than the remaining bytes could hold is rejected before any loop (a
  // hostile count can't drive allocation).
  if (count > r->remaining() / 5) return false;
  batch->ops.clear();
  batch->ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t kind;
    if (!r->GetU8(&kind)) return false;
    WriteOp op;
    if (kind == 0) {
      op.kind = WriteOp::Kind::kInsert;
      if (!r->GetDouble(&op.mbr.xlo) || !r->GetDouble(&op.mbr.ylo) ||
          !r->GetDouble(&op.mbr.xhi) || !r->GetDouble(&op.mbr.yhi) ||
          !r->GetU32(&op.payload) ||
          (with_oids && !r->GetU32(&op.preassigned))) {
        return false;
      }
    } else if (kind == 1) {
      op.kind = WriteOp::Kind::kErase;
      if (!r->GetU32(&op.oid)) return false;
    } else {
      return false;
    }
    batch->ops.push_back(op);
  }
  return true;
}

std::string EncodeApplyRequest(const WriteBatch& batch,
                               Durability durability) {
  std::string out;
  EncodeWriteOps(&out, batch, false);
  out.push_back(static_cast<char>(durability));
  return out;
}

bool DecodeApplyRequest(std::string_view payload, WriteBatch* batch,
                        Durability* durability) {
  PayloadReader r(payload);
  uint8_t flag;
  if (!DecodeWriteOps(&r, false, batch) || !r.GetU8(&flag) || !r.AtEnd()) {
    return false;
  }
  if (flag != static_cast<uint8_t>(Durability::kDurable) &&
      flag != static_cast<uint8_t>(Durability::kPublished)) {
    return false;
  }
  *durability = static_cast<Durability>(flag);
  return true;
}

// -------------------------------------------------------- reply payloads

std::string EncodeErrorReply(WireError code, std::string_view message) {
  std::string out;
  out.push_back(static_cast<char>(code));
  PutU32(&out, static_cast<uint32_t>(message.size()));
  out.append(message.data(), message.size());
  return out;
}

std::string EncodeIdListReply(uint64_t epoch_before, uint64_t epoch_after,
                              const std::vector<ObjectId>& ids) {
  std::string out;
  out.reserve(1 + 16 + 4 + 4 * ids.size());
  out.push_back(static_cast<char>(WireError::kOk));
  PutU64(&out, epoch_before);
  PutU64(&out, epoch_after);
  PutU32(&out, static_cast<uint32_t>(ids.size()));
  for (ObjectId oid : ids) PutU32(&out, oid);
  return out;
}

std::string EncodeKnnReply(
    uint64_t epoch_before, uint64_t epoch_after,
    const std::vector<std::pair<ObjectId, double>>& hits) {
  std::string out;
  out.reserve(1 + 16 + 4 + 12 * hits.size());
  out.push_back(static_cast<char>(WireError::kOk));
  PutU64(&out, epoch_before);
  PutU64(&out, epoch_after);
  PutU32(&out, static_cast<uint32_t>(hits.size()));
  for (const auto& [oid, dist] : hits) {
    PutU32(&out, oid);
    PutDouble(&out, dist);
  }
  return out;
}

std::string EncodeApplyReply(uint64_t epoch_after,
                             const std::vector<ObjectId>& inserted) {
  std::string out;
  out.reserve(1 + 8 + 4 + 4 * inserted.size());
  out.push_back(static_cast<char>(WireError::kOk));
  PutU64(&out, epoch_after);
  PutU32(&out, static_cast<uint32_t>(inserted.size()));
  for (ObjectId oid : inserted) PutU32(&out, oid);
  return out;
}

std::string EncodeStatsReply(std::string_view json) {
  std::string out;
  out.reserve(1 + 4 + json.size());
  out.push_back(static_cast<char>(WireError::kOk));
  PutU32(&out, static_cast<uint32_t>(json.size()));
  out.append(json.data(), json.size());
  return out;
}

std::string EncodeEmptyReply() {
  return std::string(1, static_cast<char>(WireError::kOk));
}

WireError ParseReplyStatus(std::string_view payload, std::string_view* body,
                           std::string* error_message) {
  if (payload.empty()) return WireError::kMalformed;
  const auto code = static_cast<WireError>(payload[0]);
  if (code == WireError::kOk) {
    *body = payload.substr(1);
    return WireError::kOk;
  }
  PayloadReader r(payload.substr(1));
  if (!r.GetLengthPrefixedString(error_message) || !r.AtEnd()) {
    error_message->clear();
    return WireError::kMalformed;
  }
  return code;
}

bool DecodeIdListReplyBody(std::string_view body, uint64_t* epoch_before,
                           uint64_t* epoch_after,
                           std::vector<ObjectId>* ids) {
  PayloadReader r(body);
  uint32_t count;
  if (!r.GetU64(epoch_before) || !r.GetU64(epoch_after) ||
      !r.GetU32(&count)) {
    return false;
  }
  if (count > r.remaining() / 4) return false;
  ids->clear();
  ids->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t oid;
    if (!r.GetU32(&oid)) return false;
    ids->push_back(oid);
  }
  return r.AtEnd();
}

bool DecodeKnnReplyBody(std::string_view body, uint64_t* epoch_before,
                        uint64_t* epoch_after,
                        std::vector<std::pair<ObjectId, double>>* hits) {
  PayloadReader r(body);
  uint32_t count;
  if (!r.GetU64(epoch_before) || !r.GetU64(epoch_after) ||
      !r.GetU32(&count)) {
    return false;
  }
  if (count > r.remaining() / 12) return false;
  hits->clear();
  hits->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t oid;
    double dist;
    if (!r.GetU32(&oid) || !r.GetDouble(&dist)) return false;
    hits->emplace_back(oid, dist);
  }
  return r.AtEnd();
}

bool DecodeApplyReplyBody(std::string_view body, uint64_t* epoch_after,
                          std::vector<ObjectId>* inserted) {
  PayloadReader r(body);
  uint32_t count;
  if (!r.GetU64(epoch_after) || !r.GetU32(&count)) return false;
  if (count > r.remaining() / 4) return false;
  inserted->clear();
  inserted->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t oid;
    if (!r.GetU32(&oid)) return false;
    inserted->push_back(oid);
  }
  return r.AtEnd();
}

bool DecodeStatsReplyBody(std::string_view body, std::string* json) {
  PayloadReader r(body);
  return r.GetLengthPrefixedString(json) && r.AtEnd();
}

}  // namespace net
}  // namespace zdb
