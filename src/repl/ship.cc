// Copyright (c) zdb authors. Licensed under the MIT license.

#include "repl/ship.h"

#include <algorithm>
#include <utility>

#include "net/wire.h"
#include "repl/record.h"

namespace zdb {
namespace repl {

LogShipper::LogShipper(uint64_t attach_epoch, ShipperOptions options)
    : options_(options),
      head_epoch_(attach_epoch),
      floor_epoch_(attach_epoch) {}

LogShipper::~LogShipper() { Stop(); }

void LogShipper::Start() {
  {
    MutexLock lock(ship_mu_);
    if (started_) return;
    started_ = true;
  }
  thread_ = std::thread([this] { ShipLoop(); });
}

void LogShipper::Stop() {
  {
    MutexLock lock(ship_mu_);
    if (!started_) return;
    stop_ = true;
  }
  ship_cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
  MutexLock lock(ship_mu_);
  started_ = false;
}

void LogShipper::OnCommit(uint64_t epoch, const WriteBatch& resolved) {
  {
    MutexLock lock(ship_mu_);
    pending_.push_back(Pending{epoch, resolved});
  }
  ship_cv_.NotifyAll();
}

Status LogShipper::TruncatedLocked(uint64_t last_applied) const {
  return Status::NotFound(
      "log truncated before epoch " + std::to_string(last_applied) +
      " (floor " + std::to_string(floor_epoch_) +
      "); follower must resync from a fresh copy of the leader");
}

Result<uint64_t> LogShipper::Subscribe(uint64_t token, uint64_t last_applied,
                                       SendFn send) {
  MutexLock lock(ship_mu_);
  if (last_applied < floor_epoch_) return TruncatedLocked(last_applied);
  if (last_applied > head_epoch_) {
    return Status::InvalidArgument(
        "follower claims epoch " + std::to_string(last_applied) +
        " ahead of log head " + std::to_string(head_epoch_));
  }
  // First retained record the follower has not applied. Epochs in the
  // ring are strictly increasing, so a binary search positions the
  // cursor; everything below last_applied was either applied already or
  // evicted (and the floor check above proved the follower has it).
  const auto it = std::upper_bound(
      records_.begin(), records_.end(), last_applied,
      [](uint64_t epoch, const Record& rec) { return epoch < rec.epoch; });
  Follower f;
  f.send = std::move(send);
  f.next_index = base_index_ + static_cast<size_t>(it - records_.begin());
  f.acked_epoch = last_applied;
  followers_[token] = std::move(f);
  ++subscribes_;
  return head_epoch_;
}

void LogShipper::Activate(uint64_t token) {
  {
    MutexLock lock(ship_mu_);
    auto it = followers_.find(token);
    if (it == followers_.end()) return;
    it->second.active = true;
  }
  ship_cv_.NotifyAll();  // the unparked cursor may have records to ship
}

void LogShipper::Ack(uint64_t token, uint64_t applied_epoch) {
  MutexLock lock(ship_mu_);
  ++acks_received_;
  auto it = followers_.find(token);
  if (it == followers_.end()) return;
  Follower& f = it->second;
  f.acked_epoch = std::max(f.acked_epoch, applied_epoch);
  if (f.inflight > 0) {
    if (--f.inflight == options_.window - 1) ship_cv_.NotifyAll();
  }
}

void LogShipper::Unsubscribe(uint64_t token) {
  MutexLock lock(ship_mu_);
  followers_.erase(token);
}

ShipperStats LogShipper::Snapshot() const {
  MutexLock lock(ship_mu_);
  ShipperStats s;
  s.records_appended = records_appended_;
  s.records_shipped = records_shipped_;
  s.acks_received = acks_received_;
  s.records_evicted = records_evicted_;
  s.subscribes = subscribes_;
  s.head_epoch = head_epoch_;
  s.floor_epoch = floor_epoch_;
  s.followers = followers_.size();
  s.retained = records_.size();
  if (!followers_.empty()) {
    uint64_t min_acked = ~uint64_t{0};
    for (const auto& [token, f] : followers_) {
      min_acked = std::min(min_acked, f.acked_epoch);
    }
    s.min_acked_epoch = min_acked;
  }
  return s;
}

bool LogShipper::ShippableLocked() const {
  const size_t end_index = base_index_ + records_.size();
  for (const auto& [token, f] : followers_) {
    if (f.active && f.next_index < end_index && f.inflight < options_.window) {
      return true;
    }
  }
  return false;
}

void LogShipper::ShipLoop() {
  // Frames staged under the lock, sent outside it: the send callbacks
  // take connection write locks, which must stay leaves of ship_mu_.
  std::vector<std::pair<SendFn, std::string>> outbox;
  for (;;) {
    outbox.clear();
    {
      MutexLock lock(ship_mu_);
      while (!stop_ && pending_.empty() && !ShippableLocked()) {
        ship_cv_.Wait(ship_mu_);
      }
      if (stop_) return;

      // Serialize newly committed batches into the ring.
      while (!pending_.empty()) {
        Pending p = std::move(pending_.front());
        pending_.pop_front();
        LogRecord rec;
        rec.epoch = p.epoch;
        rec.batch = std::move(p.batch);
        records_.push_back(Record{p.epoch, EncodeLogRecord(rec)});
        head_epoch_ = p.epoch;
        ++records_appended_;
      }

      // Enforce the retention cap. A follower whose cursor falls off
      // the evicted tail can no longer be caught up incrementally: it
      // gets the rejection a subscribe from its epoch would get, and its
      // subscription is dropped.
      if (options_.retain_records > 0) {
        while (records_.size() > options_.retain_records) {
          floor_epoch_ = records_.front().epoch;
          records_.pop_front();
          ++base_index_;
          ++records_evicted_;
        }
        for (auto it = followers_.begin(); it != followers_.end();) {
          if (it->second.next_index < base_index_) {
            const Status truncated = TruncatedLocked(it->second.acked_epoch);
            outbox.emplace_back(
                std::move(it->second.send),
                net::BuildFrame(net::Opcode::kSubscribe, net::kFlagReply,
                                /*request_id=*/0,
                                net::EncodeErrorReply(
                                    net::StatusCodeToWireError(
                                        truncated.code()),
                                    truncated.message())));
            it = followers_.erase(it);
          } else {
            ++it;
          }
        }
      }

      // Stage frames for every follower with window room. Frames are
      // staged in cursor order per follower, and the single shipper
      // thread sends them in staging order, so each follower observes
      // records in log order.
      for (auto& [token, f] : followers_) {
        if (!f.active) continue;
        while (f.next_index < base_index_ + records_.size() &&
               f.inflight < options_.window) {
          const Record& rec = records_[f.next_index - base_index_];
          outbox.emplace_back(
              f.send,
              net::BuildFrame(net::Opcode::kLogRecord, /*flags=*/0,
                              /*request_id=*/0,
                              EncodeLogRecordFrame(head_epoch_, rec.encoded)));
          ++f.next_index;
          ++f.inflight;
          ++records_shipped_;
        }
      }
    }
    for (auto& [send, frame] : outbox) {
      send(std::move(frame));
    }
  }
}

}  // namespace repl
}  // namespace zdb
