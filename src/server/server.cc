// Copyright (c) zdb authors. Licensed under the MIT license.

#include "server/server.h"

#include "repl/record.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace zdb {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            t0)
          .count());
}

void BumpMax(std::atomic<uint64_t>* slot, uint64_t v) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (v > cur &&
         !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Whole milliseconds until `when` (0 if already due), saturated into
/// an int for epoll_wait.
int MsUntil(Clock::time_point now, Clock::time_point when) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(when - now)
          .count();
  if (ms <= 0) return 0;
  if (ms > 60 * 1000) return 60 * 1000;
  return static_cast<int>(ms) + 1;  // round up: don't spin before the deadline
}

/// Merges a deadline into an epoll timeout (-1 = none yet).
int MinTimeout(int current, int candidate) {
  return current < 0 ? candidate : std::min(current, candidate);
}

/// How long a listener sits out after fd exhaustion before re-arming.
constexpr std::chrono::milliseconds kAcceptBackoff{10};

/// Per-event read budget. Level-triggered epoll re-fires for whatever
/// is left, so a bounded burst keeps one firehose connection from
/// starving its net thread's siblings.
constexpr size_t kReadBudget = 256 * 1024;

/// Compact the flushed prefix of a write buffer once it crosses this
/// size, so a long partial-flush sequence cannot pin stale bytes.
constexpr size_t kCompactThreshold = 256 * 1024;

}  // namespace

Status ServerOptions::Validate() const {
  if (!tcp && unix_path.empty()) {
    return Status::InvalidArgument("no listener configured");
  }
  if (workers == 0) {
    return Status::InvalidArgument("server needs at least one worker");
  }
  if (net_threads == 0) {
    return Status::InvalidArgument("server needs at least one net thread");
  }
  if (role == ServerRole::kFollower) {
    if (leader_endpoint.empty()) {
      return Status::InvalidArgument(
          "follower role requires a leader endpoint "
          "(tcp://host:port or unix://path)");
    }
    ZDB_RETURN_IF_ERROR(ParseEndpoint(leader_endpoint).status());
  } else if (!leader_endpoint.empty()) {
    return Status::InvalidArgument(
        "leader_endpoint is only meaningful for the follower role");
  }
  return Status::OK();
}

Server::Server(DB* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::AlreadyExists("server already started");
  }
  ZDB_RETURN_IF_ERROR(options_.Validate());

  if (options_.tcp) {
    ZDB_ASSIGN_OR_RETURN(
        tcp_listener_,
        TcpListen(options_.host, options_.port, options_.listen_backlog));
    ZDB_ASSIGN_OR_RETURN(port_, LocalPort(tcp_listener_));
    ZDB_RETURN_IF_ERROR(SetNonBlocking(tcp_listener_));
  }
  if (!options_.unix_path.empty()) {
    ZDB_ASSIGN_OR_RETURN(
        unix_listener_,
        UnixListen(options_.unix_path, options_.listen_backlog));
    ZDB_RETURN_IF_ERROR(SetNonBlocking(unix_listener_));
  }
  // Replication roles, wired before serving begins so no committed
  // batch can slip past the sink and no follower query can observe a
  // half-started applier.
  if (options_.role == ServerRole::kLeader) {
    repl::ShipperOptions sopt;
    sopt.retain_records = options_.repl_retain_records;
    sopt.window = options_.repl_window;
    shipper_ =
        std::make_unique<repl::LogShipper>(db_->write_epoch(), sopt);
    ZDB_RETURN_IF_ERROR(db_->SetCommitSink(shipper_.get()));
    shipper_->Start();
  } else if (options_.role == ServerRole::kFollower) {
    repl::ApplierOptions aopt;
    aopt.leader_endpoint = options_.leader_endpoint;
    aopt.initial_applied_epoch = options_.repl_initial_applied_epoch;
    applier_ = std::make_unique<repl::Applier>(db_, aopt);
    ZDB_RETURN_IF_ERROR(applier_->Start());
  }

  // Create every fallible per-thread resource before spawning anything,
  // so a failure here unwinds through plain destructors.
  net_.reserve(options_.net_threads);
  for (size_t i = 0; i < options_.net_threads; ++i) {
    auto nt = std::make_unique<NetThread>();
    ZDB_ASSIGN_OR_RETURN(nt->epoll, Epoll::Create());
    ZDB_ASSIGN_OR_RETURN(nt->wakeup, EventFd::Create());
    net_.push_back(std::move(nt));
  }

  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  for (size_t i = 0; i < net_.size(); ++i) {
    net_[i]->thread = std::thread([this, i] { NetLoop(i); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;

  // 1. Refuse new connections. shutdown(2) on a listening socket makes
  //    the kernel refuse connects and fails pending/future accepts with
  //    EINVAL, which the accept path classifies as kShutdown and
  //    disarms — without racing the fd number (it stays allocated until
  //    the close at the bottom).
  tcp_listener_.ShutdownBoth();
  unix_listener_.ShutdownBoth();

  // 2. Drain: frames arriving from here on are answered SHUTTING_DOWN
  //    by the net threads; requests already admitted keep executing and
  //    buffer their replies.
  {
    MutexLock lock(queue_mu_);
    draining_ = true;
    while (!(queue_.empty() && in_flight_ == 0)) drain_cv_.Wait(queue_mu_);
    // 3. Quiesced — stop the worker pool.
    stop_workers_ = true;
  }
  queue_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
  workers_.clear();

  // Replication teardown sits between the worker join and the net-thread
  // join: workers are gone (no new SUBSCRIBEs), but the net threads are
  // still alive — the shipper's send callbacks resolve connections
  // through net_, so it must be fully stopped before net_.clear().
  if (applier_ != nullptr) applier_->Stop();
  if (shipper_ != nullptr) {
    // Detach first so no commit can reach OnCommit after the join.
    (void)db_->SetCommitSink(nullptr);
    shipper_->Stop();
  }

  // 4. Net threads flush whatever replies are still buffered (bounded
  //    by drain_flush_ms against stuck peers), close their connections,
  //    and exit.
  for (auto& nt : net_) {
    {
      MutexLock lock(nt->mu);
      nt->drain = true;
    }
    nt->wakeup.Signal();
  }
  for (auto& nt : net_) {
    if (nt->thread.joinable()) nt->thread.join();
  }
  net_.clear();

  tcp_listener_.Close();
  unix_listener_.Close();
  if (!options_.unix_path.empty()) {
    ::unlink(options_.unix_path.c_str());
  }
}

bool Server::WaitForShutdownRequest(int timeout_ms) {
  MutexLock lock(shutdown_mu_);
  if (timeout_ms < 0) {
    while (!shutdown_requested_) shutdown_cv_.Wait(shutdown_mu_);
    return true;
  }
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!shutdown_requested_) {
    if (!shutdown_cv_.WaitUntil(shutdown_mu_, deadline)) {
      return shutdown_requested_;
    }
  }
  return true;
}

// ------------------------------------------------------ net event loops

void Server::NetLoop(size_t idx) {
  NetThread& nt = *net_[idx];
  std::vector<char> read_buf(64 * 1024);

  // Net thread 0 owns the listeners.
  std::vector<ListenerState> listeners;
  if (idx == 0) {
    if (tcp_listener_.valid()) listeners.push_back({&tcp_listener_, false, {}, false});
    if (unix_listener_.valid()) listeners.push_back({&unix_listener_, false, {}, false});
    for (ListenerState& ls : listeners) {
      const int fd = ls.sock->fd();
      ls.armed = nt.epoll.Add(fd, EPOLLIN, static_cast<uint64_t>(fd)).ok();
    }
  }
  (void)nt.epoll.Add(nt.wakeup.fd(), EPOLLIN,
                     static_cast<uint64_t>(nt.wakeup.fd()));

  auto now = Clock::now();
  auto next_idle_scan = now;
  bool drain_mode = false;
  Clock::time_point drain_deadline{};
  epoll_event events[128];

  for (;;) {
    now = Clock::now();

    if (!drain_mode) {
      bool drain_now;
      {
        MutexLock lock(nt.mu);
        drain_now = nt.drain;
      }
      if (drain_now) {
        // Entering drain: no new reads anywhere, flush what is
        // buffered, close each connection the moment it runs dry.
        drain_mode = true;
        drain_deadline =
            now + std::chrono::milliseconds(
                      std::max(0, options_.drain_flush_ms));
        ProcessQueues(nt);  // pick up last-minute replies first
        std::vector<ConnPtr> snapshot;
        snapshot.reserve(nt.conns.size());
        for (auto& [fd, conn] : nt.conns) snapshot.push_back(conn);
        for (const ConnPtr& conn : snapshot) {
          conn->read_paused = true;
          conn->close_after_flush = true;
          UpdateInterest(nt, conn);
          FlushConnection(nt, conn);
        }
      }
    }
    if (drain_mode && (nt.conns.empty() || now >= drain_deadline)) break;

    int timeout = -1;
    if (drain_mode) {
      timeout = MsUntil(now, drain_deadline);
    } else {
      if (options_.idle_timeout_ms > 0) {
        timeout = MinTimeout(timeout, MsUntil(now, next_idle_scan));
      }
      for (const ListenerState& ls : listeners) {
        if (ls.backed_off) {
          timeout = MinTimeout(timeout, MsUntil(now, ls.backoff_until));
        }
      }
    }

    auto n = nt.epoll.Wait(events, 128, timeout);
    if (!n.ok()) break;  // fatal epoll failure; teardown below
    now = Clock::now();

    for (int i = 0; i < n.value(); ++i) {
      const uint64_t tag = events[i].data.u64;
      const uint32_t ev = events[i].events;
      if (tag == static_cast<uint64_t>(nt.wakeup.fd())) {
        nt.wakeup.Drain();
        continue;
      }
      ListenerState* ls = nullptr;
      for (ListenerState& cand : listeners) {
        if (tag == static_cast<uint64_t>(cand.sock->fd())) ls = &cand;
      }
      if (ls != nullptr) {
        if (drain_mode) {
          if (ls->armed) {
            (void)nt.epoll.Del(ls->sock->fd());
            ls->armed = false;
          }
        } else {
          HandleAccept(nt, *ls);
        }
        continue;
      }
      auto it = nt.conns.find(static_cast<int>(tag));
      if (it == nt.conns.end()) continue;  // closed earlier this batch
      ConnPtr conn = it->second;
      // Flush before reading: draining the write buffer both finishes
      // EPOLLOUT-driven partial writes and lifts flow-control pauses.
      if ((ev & EPOLLOUT) != 0) FlushConnection(nt, conn);
      if (conn->closed.load(std::memory_order_acquire)) continue;
      if ((ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 && !drain_mode) {
        HandleReadable(nt, conn, read_buf.data(), read_buf.size());
      }
    }

    ProcessQueues(nt);

    if (!drain_mode) {
      for (ListenerState& ls : listeners) {
        if (ls.backed_off && now >= ls.backoff_until) {
          ls.backed_off = false;
          const int fd = ls.sock->fd();
          if (!ls.armed &&
              nt.epoll.Add(fd, EPOLLIN, static_cast<uint64_t>(fd)).ok()) {
            ls.armed = true;
          }
        }
      }
      if (options_.idle_timeout_ms > 0 && now >= next_idle_scan) {
        next_idle_scan = IdleScan(nt, now);
      }
    }
  }

  // Teardown: drop whatever is still open (drain deadline passed, or a
  // fatal epoll error). Buffered bytes for these peers are lost, which
  // is the contract drain_flush_ms bounds.
  std::vector<ConnPtr> leftover;
  leftover.reserve(nt.conns.size());
  for (auto& [fd, conn] : nt.conns) leftover.push_back(conn);
  for (const ConnPtr& conn : leftover) CloseConnection(nt, conn, false);
}

void Server::HandleAccept(NetThread& nt, ListenerState& ls) {
  // Bounded burst: level-triggered epoll re-fires if more are pending.
  for (int burst = 0; burst < 128; ++burst) {
    Socket s;
    AcceptOutcome outcome;
    const int injected = options_.accept_fault_injection
                             ? options_.accept_fault_injection()
                             : 0;
    if (injected != 0) {
      outcome = ClassifyAcceptError(injected);
    } else {
      outcome = AcceptNonBlocking(*ls.sock, &s);
    }
    switch (outcome) {
      case AcceptOutcome::kAccepted: {
        const int one = 1;
        // No-op (EOPNOTSUPP) on unix-domain sockets.
        (void)::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                           sizeof(one));
        counters_.accepted.fetch_add(1, std::memory_order_relaxed);
        auto conn = std::make_shared<Connection>();
        conn->sock = std::move(s);
        conn->token =
            next_conn_token_.fetch_add(1, std::memory_order_relaxed);
        conn->owner = next_owner_;
        next_owner_ = (next_owner_ + 1) % net_.size();
        NetThread& owner = *net_[conn->owner];
        {
          MutexLock lock(owner.mu);
          owner.incoming.push_back(std::move(conn));
        }
        owner.wakeup.Signal();
        continue;
      }
      case AcceptOutcome::kWouldBlock:
        return;
      case AcceptOutcome::kRetry:
        // ECONNABORTED & friends: the peer is gone, the listener is
        // fine. The pre-epoll server exited its accept loop here,
        // permanently killing the listener.
        counters_.accept_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      case AcceptOutcome::kFdExhausted:
        // Out of fds: accepting again immediately would spin. Sit the
        // listener out briefly; pending connections stay in the
        // kernel's accept queue meanwhile.
        counters_.accept_retries.fetch_add(1, std::memory_order_relaxed);
        counters_.accept_backoffs.fetch_add(1, std::memory_order_relaxed);
        ls.backed_off = true;
        ls.backoff_until = Clock::now() + kAcceptBackoff;
        if (ls.armed) {
          (void)nt.epoll.Del(ls.sock->fd());
          ls.armed = false;
        }
        return;
      case AcceptOutcome::kShutdown:
        // Stop() shut the listener down (or it is truly dead) — the
        // only outcome that disarms it for good.
        if (ls.armed) {
          (void)nt.epoll.Del(ls.sock->fd());
          ls.armed = false;
        }
        ls.backed_off = false;
        return;
    }
  }
}

void Server::ProcessQueues(NetThread& nt) {
  std::vector<ConnPtr> incoming;
  std::vector<ConnPtr> flush;
  bool drain;
  {
    MutexLock lock(nt.mu);
    incoming.swap(nt.incoming);
    flush.swap(nt.flush_queue);
    drain = nt.drain;
  }
  const auto now = Clock::now();
  for (ConnPtr& conn : incoming) {
    if (drain) {
      // Raced Stop(): never served, close immediately.
      conn->closed.store(true, std::memory_order_release);
      conn->sock.Close();
      counters_.closed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    conn->last_active = now;
    const int fd = conn->sock.fd();
    if (!nt.epoll.Add(fd, EPOLLIN, static_cast<uint64_t>(fd)).ok()) {
      conn->closed.store(true, std::memory_order_release);
      conn->sock.Close();
      counters_.closed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    nt.conns.emplace(fd, std::move(conn));
  }
  for (const ConnPtr& conn : flush) {
    if (conn->closed.load(std::memory_order_acquire)) continue;
    FlushConnection(nt, conn);
  }
}

void Server::HandleReadable(NetThread& nt, const ConnPtr& conn, char* buf,
                            size_t buf_cap) {
  if (conn->closed.load(std::memory_order_acquire) || conn->read_paused) {
    return;
  }
  size_t budget = kReadBudget;
  for (;;) {
    size_t n = 0;
    auto ev = TryRead(conn->sock, buf, buf_cap, &n);
    if (!ev.ok() || ev.value() == IoEvent::kEof) {
      // Peer closed or reset. Like the thread-per-connection server,
      // replies still in flight for this peer are dropped.
      CloseConnection(nt, conn, false);
      return;
    }
    if (ev.value() == IoEvent::kWouldBlock) break;
    conn->last_active = Clock::now();
    conn->assembler.Feed(buf, n);

    for (;;) {
      Frame frame;
      WireError err;
      FrameHeader err_header;
      const auto next = conn->assembler.Poll(&frame, &err, &err_header);
      if (next == FrameAssembler::Next::kNeedMore) break;
      if (next == FrameAssembler::Next::kError) {
        // Framing is lost: reply with the typed error, then close once
        // the reply has been flushed. No further reads.
        counters_.framing_errors.fetch_add(1, std::memory_order_relaxed);
        SendReply(conn, err_header.opcode, err_header.request_id,
                  EncodeErrorReply(err, WireErrorName(err)));
        conn->close_after_flush = true;
        conn->read_paused = true;
        UpdateInterest(nt, conn);
        return;
      }
      counters_.frames.fetch_add(1, std::memory_order_relaxed);
      DispatchFrame(conn, std::move(frame));
    }

    if (n < buf_cap || n >= budget) break;  // drained, or burst budget spent
    budget -= n;
  }

  // Flow control: a peer that sends faster than it reads replies stops
  // being read once its buffered output crosses the limit. Reading
  // resumes in FlushConnection below the low watermark.
  size_t buffered;
  {
    MutexLock lock(conn->write_mu);
    buffered = conn->out_buf.size() - conn->out_off;
  }
  if (!conn->read_paused && buffered > options_.out_buffer_limit) {
    conn->read_paused = true;
    counters_.read_pauses.fetch_add(1, std::memory_order_relaxed);
    UpdateInterest(nt, conn);
  }
}

void Server::FlushConnection(NetThread& nt, const ConnPtr& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  bool fatal = false;
  bool empty;
  size_t buffered;
  {
    MutexLock lock(conn->write_mu);
    conn->flush_queued = false;
    while (conn->out_off < conn->out_buf.size()) {
      size_t n = 0;
      auto ev =
          WriteSome(conn->sock, conn->out_buf.data() + conn->out_off,
                    conn->out_buf.size() - conn->out_off, &n);
      if (!ev.ok()) {
        fatal = true;
        break;
      }
      if (ev.value() == IoEvent::kWouldBlock) break;
      conn->out_off += n;
    }
    empty = conn->out_off >= conn->out_buf.size();
    if (empty) {
      conn->out_buf.clear();
      conn->out_off = 0;
    } else if (conn->out_off > kCompactThreshold) {
      conn->out_buf.erase(0, conn->out_off);
      conn->out_off = 0;
    }
    // While a partial write waits on EPOLLOUT, keep flush_queued set so
    // workers appending more output don't queue redundant wakeups.
    if (!empty && !fatal) conn->flush_queued = true;
    buffered = conn->out_buf.size() - conn->out_off;
  }
  if (fatal) {
    CloseConnection(nt, conn, false);
    return;
  }
  if (empty && conn->close_after_flush) {
    CloseConnection(nt, conn, false);
    return;
  }
  bool interest_changed = false;
  const bool want_write = !empty;
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    interest_changed = true;
  }
  if (conn->read_paused && !conn->close_after_flush &&
      buffered < options_.out_buffer_limit / 2) {
    conn->read_paused = false;
    interest_changed = true;
  }
  if (interest_changed) UpdateInterest(nt, conn);
}

void Server::UpdateInterest(NetThread& nt, const ConnPtr& conn) {
  uint32_t ev = 0;
  if (!conn->read_paused) ev |= EPOLLIN;
  if (conn->want_write) ev |= EPOLLOUT;
  const int fd = conn->sock.fd();
  if (fd < 0) return;
  (void)nt.epoll.Mod(fd, ev, static_cast<uint64_t>(fd));
}

void Server::CloseConnection(NetThread& nt, const ConnPtr& conn,
                             bool idle) {
  const int fd = conn->sock.fd();
  if (!conn->closed.exchange(true, std::memory_order_acq_rel)) {
    counters_.closed.fetch_add(1, std::memory_order_relaxed);
    if (idle) counters_.idle_closed.fetch_add(1, std::memory_order_relaxed);
  }
  if (fd >= 0) {
    (void)nt.epoll.Del(fd);
    conn->sock.ShutdownBoth();
    conn->sock.Close();
    nt.conns.erase(fd);
  }
  if (shipper_ != nullptr) shipper_->Unsubscribe(conn->token);
}

std::chrono::steady_clock::time_point Server::IdleScan(
    NetThread& nt, std::chrono::steady_clock::time_point now) {
  const auto idle = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<ConnPtr> victims;
  for (auto& [fd, conn] : nt.conns) {
    // A subscribed follower is silent between commits by design; it is
    // never idle-reaped.
    if (conn->subscriber.load(std::memory_order_acquire)) continue;
    // The idle clock only ticks while nothing is in flight and nothing
    // is buffered: a client quietly waiting for a slow reply (or slowly
    // draining a large one) is not idle.
    if (conn->pending.load(std::memory_order_acquire) > 0) {
      conn->last_active = now;
      continue;
    }
    size_t buffered;
    {
      MutexLock lock(conn->write_mu);
      buffered = conn->out_buf.size() - conn->out_off;
    }
    if (buffered > 0) {
      conn->last_active = now;
      continue;
    }
    if (now - conn->last_active >= idle) victims.push_back(conn);
  }
  for (const ConnPtr& conn : victims) CloseConnection(nt, conn, true);
  // Scan at a quarter of the timeout: worst-case reap latency is then
  // 1.25x idle_timeout_ms, with bounded scan frequency either way.
  const int interval =
      std::clamp(options_.idle_timeout_ms / 4, 10, 1000);
  return now + std::chrono::milliseconds(interval);
}

// ----------------------------------------------------- request dispatch

void Server::DispatchFrame(const ConnPtr& conn, Frame frame) {
  const uint8_t op = frame.header.opcode;
  const uint64_t id = frame.header.request_id;
  if ((frame.header.flags & kFlagReply) != 0 || !KnownOpcode(op)) {
    // Typed rejection; the stream is still framed, so the connection
    // stays usable.
    const WireError code = (frame.header.flags & kFlagReply)
                               ? WireError::kMalformed
                               : WireError::kUnknownOpcode;
    if (op < kOpcodeLimit) {
      counters_.ops[op].errors.fetch_add(1, std::memory_order_relaxed);
    }
    SendReply(conn, op, id, EncodeErrorReply(code, WireErrorName(code)));
    return;
  }
  if (op == static_cast<uint8_t>(Opcode::kLogAck)) {
    // Fire-and-forget flow control, consumed inline on the net thread
    // (no reply, no admission) so a saturated worker pool can never
    // stall the shipping window it is supposed to open.
    OpcodeCounters& oc = counters_.ops[op];
    uint64_t applied = 0;
    if (shipper_ != nullptr &&
        repl::DecodeLogAck(frame.payload, &applied)) {
      shipper_->Ack(conn->token, applied);
      oc.count.fetch_add(1, std::memory_order_relaxed);
    } else {
      oc.errors.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  // The rejection reason is decided under the same lock hold as the
  // admission decision itself; re-deriving it from a second lock
  // acquisition could misreport BUSY as SHUTTING_DOWN if Stop() began
  // in between.
  WireError code;
  {
    MutexLock lock(queue_mu_);
    if (draining_ || stop_workers_) {
      counters_.shutdown_rejected.fetch_add(1, std::memory_order_relaxed);
      code = WireError::kShuttingDown;
    } else if (queue_.size() >= options_.queue_capacity) {
      counters_.busy_rejected.fetch_add(1, std::memory_order_relaxed);
      code = WireError::kBusy;
    } else {
      conn->pending.fetch_add(1, std::memory_order_acq_rel);
      queue_.push_back(Request{conn, std::move(frame)});
      queue_cv_.NotifyOne();
      return;
    }
  }
  // Rejected: emit the backpressure / drain reply from the net thread
  // so a saturated worker pool can't delay the rejection.
  SendReply(conn, op, id, EncodeErrorReply(code, WireErrorName(code)));
}

// --------------------------------------------------------------- workers

void Server::WorkerLoop() {
  for (;;) {
    Request req;
    {
      MutexLock lock(queue_mu_);
      while (!stop_workers_ && queue_.empty()) queue_cv_.Wait(queue_mu_);
      if (queue_.empty()) return;  // stop_workers_ and nothing left
      req = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    HandleRequest(req);
    {
      MutexLock lock(queue_mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drain_cv_.NotifyAll();
    }
  }
}

void Server::HandleRequest(const Request& req) {
  const uint8_t op = req.frame.header.opcode;
  const auto t0 = Clock::now();
  bool is_error = false;
  if (op == static_cast<uint8_t>(Opcode::kSubscribe)) {
    // Subscribe sends its own reply: the reply must be buffered before
    // the cursor is activated, or the first pushed record could precede
    // it on the wire.
    is_error = HandleSubscribe(req);
  } else {
    const std::string payload = ExecuteRequest(req.frame, &is_error);
    SendReply(req.conn, op, req.frame.header.request_id, payload);
  }
  const uint64_t us = MicrosSince(t0);

  OpcodeCounters& oc = counters_.ops[op];
  oc.count.fetch_add(1, std::memory_order_relaxed);
  if (is_error) oc.errors.fetch_add(1, std::memory_order_relaxed);
  oc.total_micros.fetch_add(us, std::memory_order_relaxed);
  BumpMax(&oc.max_micros, us);

  req.conn->pending.fetch_sub(1, std::memory_order_acq_rel);
}

bool Server::HandleSubscribe(const Request& req) {
  const ConnPtr& conn = req.conn;
  const uint64_t id = req.frame.header.request_id;
  const auto op = static_cast<uint8_t>(Opcode::kSubscribe);
  auto reject = [&](WireError code, std::string_view msg) {
    SendReply(conn, op, id, EncodeErrorReply(code, msg));
    return true;
  };
  if (shipper_ == nullptr) {
    if (options_.role == ServerRole::kFollower) {
      // The message is the leader's URI; clients redirect there.
      return reject(WireError::kNotLeader, options_.leader_endpoint);
    }
    return reject(WireError::kInvalidArgument,
                  "server is not a replication leader");
  }
  uint64_t last_applied = 0;
  if (!repl::DecodeSubscribeRequest(req.frame.payload, &last_applied)) {
    return reject(WireError::kMalformed,
                  "bounds-checked payload decode failed");
  }
  // The shipper outlives every connection (Stop() tears it down before
  // the net threads), but a connection can die while the shipper still
  // holds its cursor — the send callback must not keep the Connection
  // alive, so it goes through a weak_ptr and drops frames for the dead.
  std::weak_ptr<Connection> weak = conn;
  auto send = [this, weak](std::string frame) {
    if (ConnPtr c = weak.lock()) PushFrame(c, std::move(frame));
  };
  auto head = shipper_->Subscribe(conn->token, last_applied,
                                  std::move(send));
  if (!head.ok()) {
    return reject(StatusCodeToWireError(head.status().code()),
                  head.status().message());
  }
  conn->subscriber.store(true, std::memory_order_release);
  // Reply first (buffered under the connection write lock), then unpark
  // the cursor: the reply always precedes the first pushed record.
  PushFrame(conn,
            BuildFrame(Opcode::kSubscribe, kFlagReply, id,
                       repl::EncodeSubscribeReply(head.value())));
  shipper_->Activate(conn->token);
  return false;
}

std::string Server::ExecuteRequest(const Frame& frame, bool* is_error) {
  *is_error = false;
  const auto opcode = static_cast<Opcode>(frame.header.opcode);
  auto malformed = [&] {
    *is_error = true;
    return EncodeErrorReply(WireError::kMalformed,
                            "bounds-checked payload decode failed");
  };
  auto engine_error = [&](const Status& s) {
    // The typed Status crosses the wire losslessly: its code maps
    // through the Status <-> WireError table and the message rides in
    // the reply body, so the client rebuilds the same Status.
    *is_error = true;
    return EncodeErrorReply(StatusCodeToWireError(s.code()), s.message());
  };
  // Bounded-staleness admission (every query carries a bound). A
  // leader or standalone node serves its own commits and is never
  // stale; only a follower can fall behind, and then the honest answer
  // is a typed rejection, not silently stale data.
  auto within_bound = [&](uint64_t max_lag) {
    if (max_lag == kNoStalenessBound || applier_ == nullptr) return true;
    return repl::WithinStaleness(applier_->leader_epoch(),
                                 applier_->applied_epoch(),
                                 applier_->connected(), max_lag);
  };
  auto stale_rejected = [&] {
    counters_.stale_rejected.fetch_add(1, std::memory_order_relaxed);
    *is_error = true;
    return EncodeErrorReply(WireError::kStaleRead,
                            "replication lag exceeds the requested bound");
  };

  switch (opcode) {
    case Opcode::kPing:
      return EncodeEmptyReply();

    case Opcode::kWindow: {
      Rect w;
      uint64_t max_lag;
      if (!DecodeWindowRequest(frame.payload, &w, &max_lag)) {
        return malformed();
      }
      if (!within_bound(max_lag)) return stale_rejected();
      EpochRange epochs;
      auto r = db_->Window(w, nullptr, &epochs);
      if (!r.ok()) return engine_error(r.status());
      return EncodeIdListReply(epochs.first, epochs.last, r.value());
    }

    case Opcode::kPoint: {
      Point p;
      uint64_t max_lag;
      if (!DecodePointRequest(frame.payload, &p, &max_lag)) {
        return malformed();
      }
      if (!within_bound(max_lag)) return stale_rejected();
      EpochRange epochs;
      auto r = db_->Point(p, nullptr, &epochs);
      if (!r.ok()) return engine_error(r.status());
      return EncodeIdListReply(epochs.first, epochs.last, r.value());
    }

    case Opcode::kKnn: {
      Point p;
      uint32_t k;
      uint64_t max_lag;
      if (!DecodeKnnRequest(frame.payload, &p, &k, &max_lag)) {
        return malformed();
      }
      if (!within_bound(max_lag)) return stale_rejected();
      EpochRange epochs;
      auto r = db_->Nearest(p, k, nullptr, &epochs);
      if (!r.ok()) return engine_error(r.status());
      return EncodeKnnReply(epochs.first, epochs.last, r.value());
    }

    case Opcode::kApply: {
      if (options_.role == ServerRole::kFollower) {
        // Followers apply only what the leader ships; a direct write
        // would fork the replica. The reply message is the leader's
        // URI so clients can redirect without a directory service.
        counters_.not_leader_rejected.fetch_add(1,
                                                std::memory_order_relaxed);
        *is_error = true;
        return EncodeErrorReply(WireError::kNotLeader,
                                options_.leader_endpoint);
      }
      WriteBatch batch;
      Durability durability;
      if (!DecodeApplyRequest(frame.payload, &batch, &durability)) {
        return malformed();
      }
      // kDurable blocks this worker until the batch's group commits (on
      // the pipeline thread, or inline as a group of one); kPublished
      // acks as soon as readers can see the batch. Sharded batches split
      // by routing prefix inside the DB and overlap their per-shard
      // fsyncs. The DB facade is also where the replication commit sink
      // hooks in.
      auto r = db_->Apply(batch, durability);
      if (!r.ok()) return engine_error(r.status());
      return EncodeApplyReply(db_->write_epoch(), r.value());
    }

    case Opcode::kStats:
      return EncodeStatsReply(StatsJson());

    case Opcode::kShutdown: {
      {
        MutexLock lock(shutdown_mu_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.NotifyAll();
      return EncodeEmptyReply();
    }

    case Opcode::kSubscribe:
    case Opcode::kLogRecord:
    case Opcode::kLogAck:
      // kSubscribe executes in HandleSubscribe before this switch is
      // reached; the other two are leader-push / fire-and-forget frames
      // consumed on the net threads. Reaching here is a dispatch bug —
      // fall through to the typed rejection.
      break;
  }
  *is_error = true;
  return EncodeErrorReply(WireError::kUnknownOpcode,
                          WireErrorName(WireError::kUnknownOpcode));
}

void Server::SendReply(const ConnPtr& conn, uint8_t opcode,
                       uint64_t request_id, std::string_view payload) {
  PushFrame(conn, BuildFrame(static_cast<Opcode>(opcode), kFlagReply,
                             request_id, payload));
}

void Server::PushFrame(const ConnPtr& conn, std::string frame) {
  bool enqueue = false;
  {
    MutexLock lock(conn->write_mu);
    if (conn->closed.load(std::memory_order_acquire)) return;  // peer gone
    conn->out_buf.append(frame);
    if (!conn->flush_queued) {
      conn->flush_queued = true;
      enqueue = true;
    }
  }
  if (enqueue) {
    NetThread& owner = *net_[conn->owner];
    {
      MutexLock lock(owner.mu);
      owner.flush_queue.push_back(conn);
    }
    owner.wakeup.Signal();
  }
}

// ----------------------------------------------------------------- stats

std::string Server::StatsJson() const {
  JsonWriter w;
  w.BeginObject();

  w.Key("server").BeginObject();
  w.Key("connections").BeginObject();
  w.Field("accepted", counters_.accepted.load(std::memory_order_relaxed));
  w.Field("closed", counters_.closed.load(std::memory_order_relaxed));
  w.Field("idle_closed",
          counters_.idle_closed.load(std::memory_order_relaxed));
  w.Field("open", open_connections());
  w.EndObject();

  w.Key("net").BeginObject();
  w.Field("net_threads", static_cast<uint64_t>(options_.net_threads));
  w.Field("accept_retries",
          counters_.accept_retries.load(std::memory_order_relaxed));
  w.Field("accept_backoffs",
          counters_.accept_backoffs.load(std::memory_order_relaxed));
  w.Field("read_pauses",
          counters_.read_pauses.load(std::memory_order_relaxed));
  w.EndObject();

  {
    size_t depth, in_flight;
    {
      MutexLock lock(queue_mu_);
      depth = queue_.size();
      in_flight = in_flight_;
    }
    w.Key("admission").BeginObject();
    w.Field("queue_depth", static_cast<uint64_t>(depth));
    w.Field("queue_capacity",
            static_cast<uint64_t>(options_.queue_capacity));
    w.Field("in_flight", static_cast<uint64_t>(in_flight));
    w.Field("busy_rejected",
            counters_.busy_rejected.load(std::memory_order_relaxed));
    w.Field("shutdown_rejected",
            counters_.shutdown_rejected.load(std::memory_order_relaxed));
    w.EndObject();
  }

  w.Key("frames").BeginObject();
  w.Field("received", counters_.frames.load(std::memory_order_relaxed));
  w.Field("framing_errors",
          counters_.framing_errors.load(std::memory_order_relaxed));
  w.EndObject();

  w.Key("replication").BeginObject();
  switch (options_.role) {
    case ServerRole::kStandalone:
      w.Field("role", "standalone");
      break;
    case ServerRole::kLeader: {
      w.Field("role", "leader");
      const repl::ShipperStats s = shipper_->Snapshot();
      w.Field("followers", static_cast<uint64_t>(s.followers));
      w.Field("head_epoch", s.head_epoch);
      w.Field("floor_epoch", s.floor_epoch);
      w.Field("min_acked_epoch", s.min_acked_epoch);
      w.Field("records_appended", s.records_appended);
      w.Field("records_shipped", s.records_shipped);
      w.Field("records_evicted", s.records_evicted);
      w.Field("acks_received", s.acks_received);
      w.Field("subscribes", s.subscribes);
      w.Field("retained", static_cast<uint64_t>(s.retained));
      break;
    }
    case ServerRole::kFollower: {
      w.Field("role", "follower");
      const repl::ApplierStats s = applier_->Snapshot();
      w.Field("connected", static_cast<uint64_t>(s.connected ? 1 : 0));
      w.Field("leader_epoch", s.leader_epoch);
      w.Field("applied_epoch", s.applied_epoch);
      // Lag in epochs — exactly what a kBoundedStaleness read bounds.
      w.Field("lag_epochs", s.leader_epoch > s.applied_epoch
                                ? s.leader_epoch - s.applied_epoch
                                : 0);
      w.Field("records_applied", s.records_applied);
      w.Field("duplicates_skipped", s.duplicates_skipped);
      w.Field("reconnects", s.reconnects);
      w.Field("subscribe_rejects", s.subscribe_rejects);
      w.Field("stream_errors", s.stream_errors);
      break;
    }
  }
  w.Field("stale_rejected",
          counters_.stale_rejected.load(std::memory_order_relaxed));
  w.Field("not_leader_rejected",
          counters_.not_leader_rejected.load(std::memory_order_relaxed));
  w.EndObject();

  w.Key("ops").BeginObject();
  for (uint8_t op = 1; op < kOpcodeLimit; ++op) {
    const OpcodeCounters& oc = counters_.ops[op];
    const uint64_t count = oc.count.load(std::memory_order_relaxed);
    w.Key(OpcodeName(static_cast<Opcode>(op))).BeginObject();
    w.Field("count", count);
    w.Field("errors", oc.errors.load(std::memory_order_relaxed));
    const uint64_t total =
        oc.total_micros.load(std::memory_order_relaxed);
    w.Field("avg_us",
            count ? static_cast<double>(total) / count : 0.0);
    w.Field("max_us", oc.max_micros.load(std::memory_order_relaxed));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();  // server

  // One layout for every DB: deduped aggregates up front, the
  // per-shard breakdown in "shards" (one entry per shard engine, in
  // shard order) and I/O summed over the shards' pagers.
  const DBStats ds = db_->Stats();
  w.Key("engine").BeginObject();
  w.Field("objects", ds.objects);
  w.Field("write_epoch", ds.write_epoch);
  w.Field("shard_count", static_cast<uint64_t>(ds.shards));
  w.Key("snapshots").BeginObject();
  w.Field("pinned", ds.pinned_epochs);
  w.Field("pins_taken", ds.pins_taken);
  w.Field("gc_cycles", ds.gc_cycles);
  w.Field("page_versions", ds.page_versions);
  w.Field("version_bytes", ds.version_bytes);
  w.Field("versions_reclaimed", ds.versions_reclaimed);
  w.EndObject();
  w.Key("shards").BeginArray();
  const std::vector<shard::ShardCounters> per_shard = db_->ShardStats();
  for (size_t s = 0; s < per_shard.size(); ++s) {
    const shard::ShardCounters& c = per_shard[s];
    w.BeginObject();
    w.Field("shard", static_cast<uint64_t>(s));
    w.Field("objects", c.objects);
    w.Field("index_entries", c.index_entries);
    w.Field("write_epoch", c.write_epoch);
    w.Field("durable_epoch", c.durable_epoch);
    w.Field("journal_commits", c.journal_commits);
    w.Field("batches", c.batches);
    w.Field("pages", static_cast<uint64_t>(c.pages));
    w.Field("pins_taken", c.pins_taken);
    w.Field("page_versions", c.page_versions);
    w.EndObject();
  }
  w.EndArray();
  AppendJson(&w, "io", db_->io_stats());
  w.EndObject();

  w.EndObject();
  return w.str();
}

}  // namespace net
}  // namespace zdb
