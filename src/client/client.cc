// Copyright (c) zdb authors. Licensed under the MIT license.

#include "client/client.h"

namespace zdb {
namespace net {

Client::Client(Channel primary, std::string endpoint, ClientOptions options)
    : primary_(std::move(primary)),
      endpoint_(std::move(endpoint)),
      options_(std::move(options)) {
  followers_.resize(options_.followers.size());
}

Result<Client> Client::Connect(const std::string& endpoint,
                               ClientOptions options) {
  for (const std::string& f : options.followers) {
    // Fail fast on a typo'd follower URI instead of at first query.
    ZDB_RETURN_IF_ERROR(ParseEndpoint(f).status());
  }
  Channel ch;
  ZDB_ASSIGN_OR_RETURN(ch.sock, ConnectEndpoint(endpoint));
  return Client(std::move(ch), endpoint, std::move(options));
}

void Client::Close() {
  primary_.sock.Close();
  for (auto& ch : followers_) {
    if (ch != nullptr) ch->sock.Close();
  }
}

Result<std::string> Client::RoundTripOn(Channel& ch, Opcode op,
                                        std::string_view payload,
                                        WireError* wire_err) {
  if (wire_err != nullptr) *wire_err = WireError::kOk;
  if (!ch.sock.valid()) {
    return Status::Unavailable("client connection is closed");
  }
  const uint64_t id = ch.next_request_id++;
  const std::string frame = BuildFrame(op, 0, id, payload);
  ZDB_RETURN_IF_ERROR(WriteFully(ch.sock, frame.data(), frame.size()));

  char buf[16 * 1024];
  for (;;) {
    Frame reply;
    WireError err;
    FrameHeader err_header;
    const auto next = ch.assembler.Poll(&reply, &err, &err_header);
    if (next == FrameAssembler::Next::kError) {
      ch.sock.Close();
      return Status::IOError(std::string("reply framing error: ") +
                             WireErrorName(err));
    }
    if (next == FrameAssembler::Next::kNeedMore) {
      size_t n = 0;
      ZDB_ASSIGN_OR_RETURN(n, ReadSome(ch.sock, buf, sizeof(buf)));
      if (n == 0) {
        ch.sock.Close();
        return Status::Unavailable("server closed the connection");
      }
      ch.assembler.Feed(buf, n);
      continue;
    }
    if ((reply.header.flags & kFlagReply) == 0 ||
        reply.header.request_id != id ||
        reply.header.opcode != static_cast<uint8_t>(op)) {
      // Single in-flight request per connection: anything else is a
      // protocol violation, and the stream can't be trusted after it.
      ch.sock.Close();
      return Status::IOError("reply does not match the request");
    }

    std::string_view body;
    std::string message;
    const WireError status = ParseReplyStatus(reply.payload, &body, &message);
    if (wire_err != nullptr) *wire_err = status;
    if (status == WireError::kOk) return std::string(body);
    // Protocol-level rejections (framing, version) poison the stream on
    // the server side — it closes after replying, so mirror that here.
    switch (status) {
      case WireError::kMalformed:
      case WireError::kUnknownOpcode:
      case WireError::kBadVersion:
      case WireError::kFrameTooLarge:
      case WireError::kBadMagic:
        if (status != WireError::kMalformed &&
            status != WireError::kUnknownOpcode) {
          ch.sock.Close();
        }
        return Status::IOError(std::string("server rejected request: ") +
                               WireErrorName(status) +
                               (message.empty() ? "" : ": " + message));
      default:
        // Engine-side Status codes cross the wire losslessly.
        return WireErrorToStatus(status, std::move(message));
    }
  }
}

Result<std::string> Client::LeaderRoundTrip(Opcode op,
                                            std::string_view payload) {
  for (int attempt = 0;; ++attempt) {
    WireError err = WireError::kOk;
    auto r = RoundTripOn(primary_, op, payload, &err);
    if (r.ok() || err != WireError::kNotLeader || attempt > 0) return r;
    // NOT_LEADER carries the real leader's URI in the message: move the
    // primary channel there and retry once. A fresh Channel resets the
    // assembler and request-id stream along with the socket.
    const std::string redirect(r.status().message());
    if (redirect.empty()) return r;
    auto redialed = ConnectEndpoint(redirect);
    if (!redialed.ok()) return r;
    primary_ = Channel{};
    primary_.sock = std::move(redialed.value());
    endpoint_ = redirect;
  }
}

Client::Channel* Client::FollowerChannel(size_t idx) {
  std::unique_ptr<Channel>& slot = followers_[idx];
  if (slot != nullptr && slot->sock.valid()) return slot.get();
  auto s = ConnectEndpoint(options_.followers[idx]);
  if (!s.ok()) {
    slot.reset();
    return nullptr;
  }
  slot = std::make_unique<Channel>();
  slot->sock = std::move(s.value());
  return slot.get();
}

uint64_t Client::StalenessBound() const {
  return options_.read_preference == ReadPreference::kBoundedStaleness
             ? options_.max_lag_epochs
             : kNoStalenessBound;
}

Result<std::string> Client::QueryRoundTrip(Opcode op,
                                           std::string_view payload) {
  if (options_.read_preference != ReadPreference::kLeader &&
      !followers_.empty()) {
    for (size_t i = 0; i < followers_.size(); ++i) {
      const size_t idx = (rr_ + i) % followers_.size();
      Channel* ch = FollowerChannel(idx);
      if (ch == nullptr) continue;  // unreachable; try the next
      WireError err = WireError::kOk;
      auto r = RoundTripOn(*ch, op, payload, &err);
      if (r.ok()) {
        rr_ = (idx + 1) % followers_.size();
        return r;
      }
      if (err == WireError::kStaleRead) break;  // leader is never stale
      if (err != WireError::kOk) {
        // The follower answered with a real engine error (bad rect,
        // busy, ...) — that is the result, not a routing failure.
        return r;
      }
      // No reply at all (connect reset, framing loss): drop the channel
      // so the next call re-dials, and try the next follower.
      followers_[idx].reset();
    }
  }
  return LeaderRoundTrip(op, payload);
}

Result<QueryReply> Client::Window(const Rect& w) {
  std::string body;
  ZDB_ASSIGN_OR_RETURN(
      body, QueryRoundTrip(Opcode::kWindow,
                           EncodeWindowRequest(w, StalenessBound())));
  QueryReply out;
  if (!DecodeIdListReplyBody(body, &out.epoch_before, &out.epoch_after,
                             &out.ids)) {
    return Status::IOError("malformed WINDOW reply body");
  }
  return out;
}

Result<QueryReply> Client::Point(const zdb::Point& p) {
  std::string body;
  ZDB_ASSIGN_OR_RETURN(
      body, QueryRoundTrip(Opcode::kPoint,
                           EncodePointRequest(p, StalenessBound())));
  QueryReply out;
  if (!DecodeIdListReplyBody(body, &out.epoch_before, &out.epoch_after,
                             &out.ids)) {
    return Status::IOError("malformed POINT reply body");
  }
  return out;
}

Result<KnnReplyData> Client::Nearest(const zdb::Point& p, uint32_t k) {
  std::string body;
  ZDB_ASSIGN_OR_RETURN(
      body, QueryRoundTrip(Opcode::kKnn,
                           EncodeKnnRequest(p, k, StalenessBound())));
  KnnReplyData out;
  if (!DecodeKnnReplyBody(body, &out.epoch_before, &out.epoch_after,
                          &out.hits)) {
    return Status::IOError("malformed KNN reply body");
  }
  return out;
}

Result<ApplyReplyData> Client::Apply(const WriteBatch& batch,
                                     Durability durability) {
  std::string body;
  ZDB_ASSIGN_OR_RETURN(
      body,
      LeaderRoundTrip(Opcode::kApply, EncodeApplyRequest(batch, durability)));
  ApplyReplyData out;
  if (!DecodeApplyReplyBody(body, &out.epoch_after, &out.inserted)) {
    return Status::IOError("malformed APPLY reply body");
  }
  return out;
}

Result<std::string> Client::Stats() {
  std::string body;
  ZDB_ASSIGN_OR_RETURN(body, LeaderRoundTrip(Opcode::kStats, {}));
  std::string json;
  if (!DecodeStatsReplyBody(body, &json)) {
    return Status::IOError("malformed STATS reply body");
  }
  return json;
}

Status Client::Ping() { return LeaderRoundTrip(Opcode::kPing, {}).status(); }

Status Client::Shutdown() {
  return LeaderRoundTrip(Opcode::kShutdown, {}).status();
}

}  // namespace net
}  // namespace zdb
