// Copyright (c) zdb authors. Licensed under the MIT license.
//
// LogShipper: the leader side of replication. It is the DB's
// CommitSink — every committed batch is enqueued (a cheap copy on the
// committing thread) and a dedicated shipper thread serializes it into
// a log record, appends it to the retained tail ring, and pushes
// LOG_RECORD frames to every subscribed follower whose in-flight
// window has room.
//
// Cursors: each follower is a (token -> Follower) entry holding its
// send callback, its absolute log-index cursor, its last acked epoch
// and its unacked in-flight count. Everything is GUARDED_BY(ship_mu_);
// send callbacks are invoked *outside* the lock (they append to a
// connection write buffer under its own mutex), in cursor order, from
// the single shipper thread — so per-follower record order is the log
// order by construction.
//
// Retention: the ring keeps at most `retain_records` encoded records
// (0 = unlimited). `floor_epoch_` is the epoch below which history is
// gone — initially the leader's publish epoch when the sink attached
// (batches committed before that never produced records), advanced as
// the ring evicts. A follower subscribing with last_applied below the
// floor gets a typed NotFound ("log truncated"): it must resync from a
// fresh copy of the leader, it cannot be caught up incrementally. A
// subscribed follower whose cursor the ring evicts gets the same
// rejection, as an unsolicited SUBSCRIBE error reply (request id 0),
// and its subscription is dropped.
//
// Lock order: ship_mu_ is acquired after the DB's write mutex (OnCommit
// runs under it) and before nothing — the send callbacks
// that take connection locks run outside ship_mu_. The negative-compile
// suite (tests/static_analysis/repl_cursor_unlocked.cc) pins the
// cursor-map discipline.

#ifndef ZDB_REPL_SHIP_H_
#define ZDB_REPL_SHIP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/commit_sink.h"

namespace zdb {
namespace repl {

struct ShipperOptions {
  /// Encoded records retained in the tail ring; 0 = unlimited. A
  /// follower whose cursor falls off the evicted tail is sent a "log
  /// truncated" rejection and dropped: it must resync.
  size_t retain_records = 0;
  /// Max unacked LOG_RECORD frames in flight per follower — flow
  /// control so a stalled follower cannot balloon its connection's
  /// write buffer without bound.
  size_t window = 64;
};

/// Counters surfaced through the server's STATS "replication" object.
struct ShipperStats {
  uint64_t records_appended = 0;  ///< committed batches logged
  uint64_t records_shipped = 0;   ///< LOG_RECORD frames pushed
  uint64_t acks_received = 0;     ///< LOG_ACK frames consumed
  uint64_t records_evicted = 0;   ///< ring evictions (retention cap)
  uint64_t subscribes = 0;        ///< accepted SUBSCRIBE handshakes
  uint64_t head_epoch = 0;        ///< newest record epoch (log head)
  uint64_t floor_epoch = 0;       ///< history below this is gone
  uint64_t min_acked_epoch = 0;   ///< slowest follower's ack (0 if none)
  size_t followers = 0;           ///< live subscriptions
  size_t retained = 0;            ///< records currently in the ring
};

class LogShipper : public CommitSink {
 public:
  /// Pushes one fully framed LOG_RECORD (header + payload) at a
  /// follower connection. Must be cheap and non-blocking (buffered
  /// write); invoked from the shipper thread only.
  using SendFn = std::function<void(std::string frame)>;

  /// `attach_epoch` is the DB's publish epoch at sink attach — the
  /// initial log floor and head.
  LogShipper(uint64_t attach_epoch, ShipperOptions options);
  ~LogShipper() override;

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  void Start();
  /// Stops and joins the shipper thread; idempotent. Detach the sink
  /// from the DB before calling (no OnCommit may arrive afterwards).
  void Stop();

  // CommitSink: enqueue the batch for the shipper thread.
  void OnCommit(uint64_t epoch, const WriteBatch& resolved) override;

  /// Registers a follower whose last applied epoch is `last_applied`.
  /// Returns the current head epoch, or NotFound when the requested
  /// resume point was truncated / never logged (resync required), or
  /// InvalidArgument when the follower claims to be ahead of the log.
  /// `token` identifies the subscription for Ack/Unsubscribe (the
  /// server uses the connection identity). The cursor starts *parked*:
  /// nothing ships until Activate(token) — the caller buffers its
  /// subscribe reply in between, which is what guarantees the reply
  /// precedes the first pushed record on the wire.
  [[nodiscard]] Result<uint64_t> Subscribe(uint64_t token,
                                           uint64_t last_applied,
                                           SendFn send);

  /// Unparks a subscribed cursor; shipping to it begins. No-op for an
  /// unknown token (the connection may have closed in between).
  void Activate(uint64_t token);

  /// Consumes one LOG_ACK: opens the follower's in-flight window by one
  /// and advances its acked-epoch watermark. Unknown tokens are ignored
  /// (the follower may have been dropped by retention).
  void Ack(uint64_t token, uint64_t applied_epoch);

  /// Drops a subscription (connection closed). Idempotent.
  void Unsubscribe(uint64_t token);

  ShipperStats Snapshot() const;

 private:
  struct Pending {
    uint64_t epoch;
    WriteBatch batch;
  };
  struct Record {
    uint64_t epoch;
    std::string encoded;  ///< EncodeLogRecord output
  };
  struct Follower {
    SendFn send;
    size_t next_index;      ///< absolute log index of the next record
    uint64_t acked_epoch;   ///< last epoch the follower acked
    size_t inflight = 0;    ///< shipped, not yet acked
    bool active = false;    ///< parked until Activate (reply ordering)
  };

  void ShipLoop();

  /// True when some follower has unshipped records and window room.
  bool ShippableLocked() const REQUIRES(ship_mu_);

  /// The "log truncated" rejection of a follower at `last_applied`.
  Status TruncatedLocked(uint64_t last_applied) const REQUIRES(ship_mu_);

  const ShipperOptions options_;

  mutable Mutex ship_mu_;
  CondVar ship_cv_;  ///< shipper thread waits for commits/acks/stop
  /// Committed batches awaiting serialization (OnCommit -> ShipLoop).
  std::deque<Pending> pending_ GUARDED_BY(ship_mu_);
  /// The retained tail ring; records_[i] has absolute index
  /// base_index_ + i, epochs strictly increasing.
  std::deque<Record> records_ GUARDED_BY(ship_mu_);
  size_t base_index_ GUARDED_BY(ship_mu_) = 0;
  uint64_t head_epoch_ GUARDED_BY(ship_mu_);
  uint64_t floor_epoch_ GUARDED_BY(ship_mu_);
  /// Per-follower cursors, keyed by the server's connection token.
  std::unordered_map<uint64_t, Follower> followers_ GUARDED_BY(ship_mu_);
  bool stop_ GUARDED_BY(ship_mu_) = false;

  // Counters (under ship_mu_: every touch point already holds it).
  uint64_t records_appended_ GUARDED_BY(ship_mu_) = 0;
  uint64_t records_shipped_ GUARDED_BY(ship_mu_) = 0;
  uint64_t acks_received_ GUARDED_BY(ship_mu_) = 0;
  uint64_t records_evicted_ GUARDED_BY(ship_mu_) = 0;
  uint64_t subscribes_ GUARDED_BY(ship_mu_) = 0;

  /// The shipper thread. Deliberately unannotated: callers must
  /// serialize Start/Stop with each other (spawn and join cannot happen
  /// under a mutex), which is the same external contract the server's
  /// lifecycle already provides.
  std::thread thread_;
  bool started_ GUARDED_BY(ship_mu_) = false;  ///< Start/Stop bookkeeping
};

}  // namespace repl
}  // namespace zdb

#endif  // ZDB_REPL_SHIP_H_
