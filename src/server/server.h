// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Event-driven network server exposing one zdb::DB over the zdb wire
// protocol (net/wire.h), on TCP and/or a unix-domain socket.
//
// Threading model (one epoll loop per net thread, tarantool-iproto
// style; NOT thread-per-connection):
//
//   * a small fixed pool of `net_threads` epoll event loops. Every
//     connection is owned by exactly one net thread, assigned
//     round-robin at accept. Net thread 0 additionally owns the
//     listeners: nonblocking accept bursts, transient accept errors
//     (ECONNABORTED, EPROTO, ...) are retried, fd exhaustion
//     (EMFILE/ENFILE) backs the listener off briefly and re-arms it —
//     an accept failure never kills the listener (counters:
//     accept_retries / accept_backoffs).
//   * the owning net thread does all socket I/O for its connections:
//     nonblocking reads feeding an incremental FrameAssembler, framing
//     replies and typed rejections (BUSY, SHUTTING_DOWN) written
//     inline, decoded requests pushed into the bounded admission queue.
//   * a fixed worker pool pops requests from the queue and executes
//     them against the DB — each WINDOW/POINT/KNN is one DB query that
//     also reports the epoch range its answer reflects (the DB
//     fills it: one pinned epoch on a one-shard DB, the
//     write_epoch() bracket of the scatter on a sharded one); windows
//     of at least
//     parallel_window_area run through the DB's QueryExecutor instead,
//     bracketed by write_epoch(). Mutations go through DB::Apply. The
//     reply is appended to the connection's write buffer and the
//     owning net thread is woken through its eventfd to flush it.
//   * writes are buffered per connection: the net thread flushes with
//     nonblocking sends and arms EPOLLOUT only while a partial write
//     is outstanding. A connection whose buffered output exceeds
//     `out_buffer_limit` stops being read (its EPOLLIN interest is
//     dropped) until the peer drains it below half — flow control, so
//     one slow reader cannot balloon server memory.
//
// Idle connections are reaped by deadline: each net thread tracks
// per-connection last-activity and scans on a coarse tick; a
// connection with a pending reply or buffered output is never idle.
// Closed connections release their fd and Connection state immediately
// (the pre-epoll server leaked finished reader threads until the next
// accept).
//
// Backpressure: the admission queue is bounded. A frame arriving while
// the queue is full is answered immediately with a typed BUSY error —
// the request is never queued, so a saturated server sheds load at the
// door instead of queueing unboundedly. Clients treat BUSY as "retry
// later" (Status::Busy).
//
// Graceful shutdown (Stop()): listeners shut down first (new
// connections are refused), then the server drains — requests already
// admitted keep executing and their replies are delivered, while
// frames arriving during the drain get a typed SHUTTING_DOWN reply —
// then the worker pool stops, and finally each net thread flushes any
// still-buffered reply bytes (bounded by drain_flush_ms) before
// closing its connections and exiting. A client's SHUTDOWN request
// sets a flag the daemon observes via WaitForShutdownRequest(); the
// daemon then calls Stop().
//
// STATS reports one `engine` layout for every DB: the aggregate
// counters (objects, write_epoch, shard_count, snapshots), a `shards`
// array with one entry per shard engine (one for a single-shard DB) and
// I/O summed over the shards' pagers.
//
// The executor's worker pool only ever runs the plan hooks (via
// ParallelWindowQuery); every query reads a pinned snapshot and takes
// no index lock, so a pool job never waits on a writer.
//
// Lock order: a net thread takes its NetThread::mu and a connection's
// write_mu strictly one at a time, never nested; no server lock is
// held while calling into the engine.

#ifndef ZDB_SERVER_SERVER_H_
#define ZDB_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"
#include "net/epoll.h"
#include "net/socket.h"
#include "net/wire.h"
#include "repl/apply.h"
#include "repl/ship.h"
#include "zdb/db.h"

namespace zdb {
namespace net {

/// Replication role of a server process (see DESIGN.md "Replication &
/// log shipping").
enum class ServerRole : uint8_t {
  /// No replication: today's single-node server, byte-for-byte.
  kStandalone,
  /// Accepts writes, attaches a log shipper to the DB's commit stream
  /// and serves SUBSCRIBE/LOG_ACK from follower processes.
  kLeader,
  /// Runs an applier that replays the leader's log into the local DB;
  /// serves reads (with optional bounded-staleness admission) and
  /// rejects writes with a typed NOT_LEADER naming the leader.
  kFollower,
};

struct ServerOptions {
  bool tcp = true;               ///< listen on host:port
  std::string host = "127.0.0.1";
  uint16_t port = 0;             ///< 0 = ephemeral; Server::port() tells
  std::string unix_path;         ///< empty = no unix-domain listener
  size_t net_threads = 2;        ///< epoll event-loop threads (>= 1)
  size_t workers = 4;            ///< request execution threads
  size_t queue_capacity = 64;    ///< admission queue bound (BUSY beyond)
  int idle_timeout_ms = 30000;   ///< close idle connections; <= 0 = never
  int listen_backlog = 128;      ///< listen(2) backlog per listener
  size_t exec_threads = 2;       ///< intra-query pool; 0 = no executor
  /// Windows at least this large (fraction of the unit square) run
  /// through QueryExecutor::ParallelWindowQuery instead of the scalar
  /// path (when exec_threads > 0).
  double parallel_window_area = 0.02;
  /// Flow control: a connection with more than this many reply bytes
  /// buffered stops being read until the peer drains it below half.
  size_t out_buffer_limit = 1u << 20;
  /// Stop() bound on flushing still-buffered replies to slow peers.
  int drain_flush_ms = 2000;
  /// Test-only fault injection: when set, called before every real
  /// accept(2); a nonzero return is treated as accept failing with that
  /// errno (the real accept is skipped for that attempt). Lets tests
  /// exercise the EMFILE/ECONNABORTED retry paths deterministically.
  std::function<int()> accept_fault_injection;

  // ----------------------------------------------------------- replication

  ServerRole role = ServerRole::kStandalone;
  /// kFollower: the leader's endpoint URI ("tcp://host:port" or
  /// "unix://path"). Required for followers, rejected otherwise.
  std::string leader_endpoint;
  /// kLeader: log records retained for resubscribing followers
  /// (0 = unlimited; see repl::ShipperOptions::retain_records).
  size_t repl_retain_records = 0;
  /// kLeader: per-follower in-flight window (flow control).
  size_t repl_window = 64;
  /// kFollower: epoch the local DB is already replicated up to (a
  /// restarted follower resumes instead of demanding ancient history).
  uint64_t repl_initial_applied_epoch = 0;

  /// Typed rejection of every statically invalid knob combination (no
  /// listener, zero workers or net threads, follower without a parseable
  /// leader endpoint, ...). Start() calls this first, so a misconfigured
  /// server fails with this exact Status before binding anything.
  [[nodiscard]] Status Validate() const;
};

/// Per-opcode latency/throughput counters. Relaxed atomics: written by
/// the workers, read by STATS.
struct OpcodeCounters {
  std::atomic<uint64_t> count{0};        ///< completed requests
  std::atomic<uint64_t> errors{0};       ///< typed error replies
  std::atomic<uint64_t> total_micros{0}; ///< summed execution time
  std::atomic<uint64_t> max_micros{0};   ///< worst single execution
};

struct ServerCounters {
  OpcodeCounters ops[kOpcodeLimit];
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> closed{0};
  std::atomic<uint64_t> idle_closed{0};
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> framing_errors{0};
  std::atomic<uint64_t> busy_rejected{0};
  std::atomic<uint64_t> shutdown_rejected{0};
  /// Transient accept failures retried instead of killing the listener.
  std::atomic<uint64_t> accept_retries{0};
  /// Accept backoffs taken because the fd table was exhausted.
  std::atomic<uint64_t> accept_backoffs{0};
  /// Reads paused for out_buffer_limit flow control.
  std::atomic<uint64_t> read_pauses{0};
  /// Follower: bounded-staleness queries rejected with STALE_READ.
  std::atomic<uint64_t> stale_rejected{0};
  /// Follower: writes rejected with NOT_LEADER.
  std::atomic<uint64_t> not_leader_rejected{0};
};

class Server {
 public:
  /// Serves `db`, whatever its shard count: queries and mutations go
  /// through the DB facade, which scatter-gathers over its shards (each
  /// shard engine pinning its own epoch). The DB must outlive the
  /// server. Call Start() to begin serving.
  Server(DB* db, ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and starts the net/worker threads.
  Status Start();

  /// The bound TCP port (after Start(); useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// Graceful shutdown: refuse new connections, drain admitted requests,
  /// reply SHUTTING_DOWN to late frames, flush buffered replies, then
  /// stop all threads and close connections. Idempotent; also run by
  /// the destructor.
  void Stop();

  /// Blocks until a client's SHUTDOWN request arrives (or the timeout,
  /// if >= 0, elapses). Returns whether shutdown was requested.
  bool WaitForShutdownRequest(int timeout_ms = -1);

  /// Machine-readable snapshot of the server + engine counters (the
  /// STATS opcode's payload).
  std::string StatsJson() const;

  const ServerCounters& counters() const { return counters_; }

  /// Live connection gauge (accepted minus closed).
  uint64_t open_connections() const {
    return counters_.accepted.load(std::memory_order_relaxed) -
           counters_.closed.load(std::memory_order_relaxed);
  }

 private:
  /// One client connection. Socket I/O and the fields below the marker
  /// are confined to the owning net thread; the write buffer is the
  /// worker -> net thread handoff and is the only cross-thread state.
  struct Connection {
    Socket sock;
    size_t owner = 0;                 ///< owning net thread index
    uint64_t token = 0;               ///< process-unique id (repl cursors)
    std::atomic<bool> closed{false};  ///< set once by the owner; SendReply drops
    std::atomic<uint32_t> pending{0}; ///< admitted, reply not yet buffered
    /// A follower subscribed on this connection: exempt from idle
    /// reaping (a caught-up follower is silent between commits).
    std::atomic<bool> subscriber{false};

    /// Write buffer: workers append encoded reply frames under write_mu
    /// and wake the owner to flush. `flush_queued` dedups wakeups while
    /// a flush is already scheduled or EPOLLOUT is armed.
    Mutex write_mu;
    std::string out_buf GUARDED_BY(write_mu);
    size_t out_off GUARDED_BY(write_mu) = 0;
    bool flush_queued GUARDED_BY(write_mu) = false;

    // ---- owning-net-thread state (no lock: single-thread confined) ----
    FrameAssembler assembler;
    std::chrono::steady_clock::time_point last_active;
    bool want_write = false;        ///< EPOLLOUT currently armed
    bool read_paused = false;       ///< EPOLLIN dropped (flow control/drain)
    bool close_after_flush = false; ///< framing error / drain: close at empty
  };
  using ConnPtr = std::shared_ptr<Connection>;

  struct Request {
    ConnPtr conn;
    Frame frame;
  };

  /// One epoll event loop. Everything except `mu` and the queues it
  /// guards is confined to the loop's own thread.
  struct NetThread {
    Epoll epoll;
    EventFd wakeup;
    std::thread thread;

    Mutex mu;
    /// Accepted connections awaiting epoll registration by the owner.
    std::vector<ConnPtr> incoming GUARDED_BY(mu);
    /// Connections with freshly buffered output to flush.
    std::vector<ConnPtr> flush_queue GUARDED_BY(mu);
    /// Stop(): flush remaining output, close everything, exit.
    bool drain GUARDED_BY(mu) = false;

    // ---- loop-thread state ----
    std::unordered_map<int, ConnPtr> conns;  ///< fd -> connection
  };

  /// Net thread 0's per-listener accept state.
  struct ListenerState {
    Socket* sock = nullptr;
    bool armed = false;  ///< registered in the epoll set
    std::chrono::steady_clock::time_point backoff_until;
    bool backed_off = false;
  };

  void NetLoop(size_t idx);
  void WorkerLoop();

  /// Accept burst on one listener (net thread 0). Classifies failures:
  /// transient -> retry, fd exhaustion -> back off + re-arm, listener
  /// shutdown -> disarm.
  void HandleAccept(NetThread& nt, ListenerState& ls);

  /// Drains the cross-thread queues: registers incoming connections and
  /// flushes connections the workers marked.
  void ProcessQueues(NetThread& nt);

  /// Nonblocking read burst: feed the assembler, dispatch frames.
  void HandleReadable(NetThread& nt, const ConnPtr& conn, char* buf,
                      size_t buf_cap);

  /// Writes as much buffered output as the socket accepts; arms/disarms
  /// EPOLLOUT and applies flow control; may close the connection.
  void FlushConnection(NetThread& nt, const ConnPtr& conn);

  /// Applies the connection's current EPOLLIN/EPOLLOUT interest.
  void UpdateInterest(NetThread& nt, const ConnPtr& conn);

  void CloseConnection(NetThread& nt, const ConnPtr& conn, bool idle);

  /// Closes connections idle past the deadline; returns the next scan
  /// due time.
  std::chrono::steady_clock::time_point IdleScan(
      NetThread& nt, std::chrono::steady_clock::time_point now);

  /// Routes one framed request: typed rejections (unknown opcode, BUSY,
  /// SHUTTING_DOWN) reply inline from the net thread; everything else
  /// is admitted to the queue.
  void DispatchFrame(const ConnPtr& conn, Frame frame);

  /// Executes an admitted request on a worker and buffers its reply.
  void HandleRequest(const Request& req);

  /// Opcode-specific execution; returns the reply payload.
  std::string ExecuteRequest(const Frame& frame, bool* is_error);

  /// SUBSCRIBE handshake on a leader: validates, buffers the success
  /// reply, then activates the shipper cursor — in that order, so the
  /// reply always precedes the first pushed LOG_RECORD in the
  /// connection's write buffer. Returns whether the handshake errored.
  bool HandleSubscribe(const Request& req);

  /// Appends an encoded reply frame to the connection's write buffer
  /// and schedules the owning net thread to flush it. Any thread.
  void SendReply(const ConnPtr& conn, uint8_t opcode, uint64_t request_id,
                 std::string_view payload);

  /// SendReply's raw sibling: buffers an already-framed byte string
  /// (the log shipper's push path). Any thread.
  void PushFrame(const ConnPtr& conn, std::string frame);

  DB* db_;
  ServerOptions options_;
  std::unique_ptr<QueryExecutor> exec_;
  uint16_t port_ = 0;

  /// kLeader: the DB's commit sink + follower cursor fan-out. Stopped
  /// (and the sink detached) before the net threads go away — its send
  /// callbacks resolve connections through net_.
  std::unique_ptr<repl::LogShipper> shipper_;
  /// kFollower: replays the leader's log into db_.
  std::unique_ptr<repl::Applier> applier_;
  std::atomic<uint64_t> next_conn_token_{1};

  Socket tcp_listener_;
  Socket unix_listener_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  std::vector<std::unique_ptr<NetThread>> net_;
  size_t next_owner_ = 0;  ///< round-robin assignment; net thread 0 only

  // Admission queue + drain accounting. Mutable: StatsJson() (const)
  // snapshots the queue depth under the lock.
  mutable Mutex queue_mu_;
  CondVar queue_cv_;  ///< workers wait for requests
  CondVar drain_cv_;  ///< Stop() waits for quiescence
  std::deque<Request> queue_ GUARDED_BY(queue_mu_);
  /// Popped but reply not yet buffered.
  size_t in_flight_ GUARDED_BY(queue_mu_) = 0;
  /// Reject new admissions (SHUTTING_DOWN).
  bool draining_ GUARDED_BY(queue_mu_) = false;
  bool stop_workers_ GUARDED_BY(queue_mu_) = false;
  std::vector<std::thread> workers_;

  mutable Mutex shutdown_mu_;
  CondVar shutdown_cv_;
  bool shutdown_requested_ GUARDED_BY(shutdown_mu_) = false;

  ServerCounters counters_;
};

}  // namespace net
}  // namespace zdb

#endif  // ZDB_SERVER_SERVER_H_
