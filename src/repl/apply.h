// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Applier: the follower side of replication. A dedicated thread dials
// the leader ("tcp://host:port" / "unix://path"), SUBSCRIBEs with the
// last epoch it applied, and replays every pushed LOG_RECORD through
// DB::ApplyReplicated — preassigned-oid replay, so the follower's
// object ids are byte-identical to the leader's. Each applied record is
// acknowledged with a fire-and-forget LOG_ACK (which is also the
// leader's flow-control window release).
//
// Lag accounting: every LOG_RECORD piggybacks the leader's log head
// epoch at send time, so `leader_epoch() - applied_epoch()` is the
// follower's staleness in epochs whenever the applier is connected.
// When it is not connected the follower cannot bound its lag at all —
// WithinStaleness() treats that as infinitely stale.
//
// A dropped connection (leader restart, network blip) is retried with
// exponential backoff; on reconnect the applier resubscribes from its
// applied epoch, and a duplicate-skip guard makes a record replayed
// twice across the reconnect harmless.

#ifndef ZDB_REPL_APPLY_H_
#define ZDB_REPL_APPLY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/socket.h"

namespace zdb {

class DB;

namespace repl {

struct ApplierOptions {
  /// Leader endpoint URI ("tcp://host:port" or "unix://path").
  std::string leader_endpoint;
  /// Epoch the local DB has already applied up to — 0 for a fresh
  /// follower; a restarted follower process passes its predecessor's
  /// applied epoch so it resumes instead of demanding truncated history.
  uint64_t initial_applied_epoch = 0;
  /// Reconnect backoff: doubles from min to max per failed attempt,
  /// resets after a successful subscribe.
  uint32_t reconnect_min_ms = 50;
  uint32_t reconnect_max_ms = 2000;
};

/// Counters surfaced through the follower server's STATS.
struct ApplierStats {
  uint64_t records_applied = 0;
  uint64_t duplicates_skipped = 0;  ///< reconnect overlap, not an error
  uint64_t reconnects = 0;          ///< connection attempts after the first
  uint64_t subscribe_rejects = 0;   ///< leader refused the handshake,
                                    ///< or evicted our cursor mid-stream
  uint64_t stream_errors = 0;       ///< decode/apply failures (drops the link)
  uint64_t applied_epoch = 0;
  uint64_t leader_epoch = 0;  ///< log head last heard from the leader
  bool connected = false;
};

/// The staleness admission rule a follower applies to a bounded query
/// (net/wire.h kNoStalenessBound means unbounded). Free function so the
/// arithmetic is unit-testable without sockets.
[[nodiscard]] bool WithinStaleness(uint64_t leader_epoch,
                                   uint64_t applied_epoch, bool connected,
                                   uint64_t max_lag);

class Applier {
 public:
  /// `db` must outlive the applier and is the applier's to write: all
  /// other writes to a follower DB are rejected at the server layer.
  Applier(DB* db, ApplierOptions options);
  ~Applier();

  Applier(const Applier&) = delete;
  Applier& operator=(const Applier&) = delete;

  /// Validates the endpoint URI and starts the replication thread.
  [[nodiscard]] Status Start();

  /// Stops and joins the thread (interrupting a blocked read or a
  /// backoff sleep); idempotent.
  void Stop();

  uint64_t applied_epoch() const {
    return applied_epoch_.load(std::memory_order_acquire);
  }
  uint64_t leader_epoch() const {
    return leader_epoch_.load(std::memory_order_acquire);
  }
  bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }

  ApplierStats Snapshot() const;

 private:
  void Run();
  /// One subscribe + stream session over the installed socket. Returns
  /// when the connection drops or Stop() is requested.
  void RunSession();
  /// Interruptible backoff sleep; returns false when stopping.
  bool SleepBackoff(uint32_t ms);

  DB* const db_;
  const ApplierOptions options_;

  Mutex mu_;
  CondVar stop_cv_;  ///< wakes a backoff sleep on Stop()
  /// The live session socket. Installed/cleared/shut down under mu_;
  /// the session thread does its blocking reads outside the lock (the
  /// fd stays allocated until the session thread Closes it, and
  /// ShutdownBoth from Stop() is exactly the unblock-a-reader path the
  /// socket layer documents), so the field is deliberately unannotated.
  net::Socket sock_;
  bool stop_requested_ GUARDED_BY(mu_) = false;

  std::atomic<uint64_t> applied_epoch_{0};
  std::atomic<uint64_t> leader_epoch_{0};
  std::atomic<bool> connected_{false};
  std::atomic<uint64_t> records_applied_{0};
  std::atomic<uint64_t> duplicates_skipped_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> subscribe_rejects_{0};
  std::atomic<uint64_t> stream_errors_{0};

  /// The session thread. Deliberately unannotated: callers must
  /// serialize Start/Stop with each other (spawn and join cannot happen
  /// under a mutex) — the same external contract the DB/server
  /// lifecycle already provides.
  std::thread thread_;
  bool started_ GUARDED_BY(mu_) = false;  ///< Start/Stop bookkeeping
};

}  // namespace repl
}  // namespace zdb

#endif  // ZDB_REPL_APPLY_H_
