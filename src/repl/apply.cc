// Copyright (c) zdb authors. Licensed under the MIT license.

#include "repl/apply.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/wire.h"
#include "repl/record.h"
#include "zdb/db.h"

namespace zdb {
namespace repl {

bool WithinStaleness(uint64_t leader_epoch, uint64_t applied_epoch,
                     bool connected, uint64_t max_lag) {
  if (max_lag == net::kNoStalenessBound) return true;
  // Disconnected means the lag is unknowable — the leader may be
  // arbitrarily far ahead — so a bounded query must not be served.
  if (!connected) return false;
  // applied > leader can transiently happen between the two atomic
  // loads; that is lag zero, not underflow.
  const uint64_t lag =
      leader_epoch > applied_epoch ? leader_epoch - applied_epoch : 0;
  return lag <= max_lag;
}

Applier::Applier(DB* db, ApplierOptions options)
    : db_(db), options_(std::move(options)) {
  applied_epoch_.store(options_.initial_applied_epoch,
                       std::memory_order_release);
}

Applier::~Applier() { Stop(); }

Status Applier::Start() {
  {
    MutexLock lock(mu_);
    if (started_) return Status::OK();
  }
  // Fail fast on a bad URI instead of burying it in reconnect retries.
  ZDB_RETURN_IF_ERROR(net::ParseEndpoint(options_.leader_endpoint).status());
  {
    MutexLock lock(mu_);
    started_ = true;
  }
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void Applier::Stop() {
  {
    MutexLock lock(mu_);
    if (!started_) return;
    stop_requested_ = true;
    if (sock_.valid()) sock_.ShutdownBoth();  // unblock a blocked read
  }
  stop_cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
  MutexLock lock(mu_);
  started_ = false;
}

ApplierStats Applier::Snapshot() const {
  ApplierStats s;
  s.records_applied = records_applied_.load(std::memory_order_relaxed);
  s.duplicates_skipped = duplicates_skipped_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.subscribe_rejects = subscribe_rejects_.load(std::memory_order_relaxed);
  s.stream_errors = stream_errors_.load(std::memory_order_relaxed);
  s.applied_epoch = applied_epoch();
  s.leader_epoch = leader_epoch();
  s.connected = connected();
  return s;
}

bool Applier::SleepBackoff(uint32_t ms) {
  MutexLock lock(mu_);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!stop_requested_) {
    if (!stop_cv_.WaitUntil(mu_, deadline)) break;  // deadline passed
  }
  return !stop_requested_;
}

void Applier::Run() {
  // Start() validated the URI; re-parse is infallible here.
  const net::Endpoint endpoint =
      net::ParseEndpoint(options_.leader_endpoint).value();
  uint32_t backoff_ms = options_.reconnect_min_ms;
  bool first_attempt = true;
  for (;;) {
    {
      MutexLock lock(mu_);
      if (stop_requested_) return;
    }
    if (!first_attempt) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      if (!SleepBackoff(backoff_ms)) return;
      backoff_ms = std::min(backoff_ms * 2, options_.reconnect_max_ms);
    }
    first_attempt = false;

    auto conn = net::Connect(endpoint);
    if (!conn.ok()) continue;
    {
      MutexLock lock(mu_);
      if (stop_requested_) return;
      sock_ = std::move(conn).value();
    }

    RunSession();

    connected_.store(false, std::memory_order_release);
    {
      MutexLock lock(mu_);
      sock_.Close();
      if (stop_requested_) return;
    }
  }
}

void Applier::RunSession() {
  using net::Frame;
  using net::FrameAssembler;
  using net::FrameHeader;
  using net::Opcode;
  using net::WireError;

  // Handshake: SUBSCRIBE from our applied epoch.
  const uint64_t subscribe_id = 1;
  const std::string request = net::BuildFrame(
      Opcode::kSubscribe, /*flags=*/0, subscribe_id,
      EncodeSubscribeRequest(applied_epoch()));
  if (!net::WriteFully(sock_, request.data(), request.size()).ok()) return;

  FrameAssembler assembler;
  char buf[64 * 1024];
  bool subscribed = false;
  for (;;) {
    Frame frame;
    WireError err;
    FrameHeader err_header;
    const auto next = assembler.Poll(&frame, &err, &err_header);
    if (next == FrameAssembler::Next::kError) {
      stream_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (next == FrameAssembler::Next::kNeedMore) {
      auto n = net::ReadSome(sock_, buf, sizeof(buf));
      if (!n.ok() || n.value() == 0) return;  // dropped / shut down
      assembler.Feed(buf, n.value());
      continue;
    }

    if (!subscribed) {
      // First frame must be the subscribe reply.
      if ((frame.header.flags & net::kFlagReply) == 0 ||
          frame.header.request_id != subscribe_id ||
          frame.header.opcode != static_cast<uint8_t>(Opcode::kSubscribe)) {
        stream_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::string_view body;
      std::string message;
      const WireError status =
          net::ParseReplyStatus(frame.payload, &body, &message);
      if (status != WireError::kOk) {
        // Typed refusal (NOT_LEADER, log truncated, ...). Nothing the
        // applier can do but keep retrying at backoff; the operator
        // sees subscribe_rejects climbing in STATS.
        subscribe_rejects_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      uint64_t head = 0;
      if (!DecodeSubscribeReplyBody(body, &head)) {
        stream_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      leader_epoch_.store(head, std::memory_order_release);
      connected_.store(true, std::memory_order_release);
      subscribed = true;
      continue;
    }

    // Streaming: leader-initiated LOG_RECORD pushes, or the leader's
    // SUBSCRIBE rejection when its log ring evicted our cursor.
    if (frame.header.opcode == static_cast<uint8_t>(Opcode::kSubscribe) &&
        (frame.header.flags & net::kFlagReply) != 0) {
      std::string_view body;
      std::string message;
      if (net::ParseReplyStatus(frame.payload, &body, &message) ==
          WireError::kOk) {
        stream_errors_.fetch_add(1, std::memory_order_relaxed);
      } else {
        subscribe_rejects_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    if (frame.header.opcode != static_cast<uint8_t>(Opcode::kLogRecord) ||
        (frame.header.flags & net::kFlagReply) != 0) {
      stream_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    uint64_t head = 0;
    LogRecord record;
    if (!DecodeLogRecordFrame(frame.payload, &head, &record)) {
      stream_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    leader_epoch_.store(head, std::memory_order_release);

    if (record.epoch <= applied_epoch()) {
      // Reconnect overlap: the leader resent a record we already hold.
      duplicates_skipped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (!db_->ApplyReplicated(record.batch).ok()) {
        // Replay must never fail on a healthy follower; if it does the
        // replica may have diverged, so drop the link loudly rather
        // than silently continuing past a hole.
        stream_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Counter before watermark: the release store below orders the
      // relaxed increment, so anyone who acquires applied_epoch() >= e
      // also sees the records_applied count that includes record e.
      records_applied_.fetch_add(1, std::memory_order_relaxed);
      applied_epoch_.store(record.epoch, std::memory_order_release);
    }

    // Ack every received record (duplicates too — the ack is also the
    // leader's in-flight window release).
    const std::string ack =
        net::BuildFrame(Opcode::kLogAck, /*flags=*/0, /*request_id=*/0,
                        EncodeLogAck(applied_epoch()));
    if (!net::WriteFully(sock_, ack.data(), ack.size()).ok()) return;
  }
}

}  // namespace repl
}  // namespace zdb
