// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Socket-layer torture tests: the nonblocking primitives the event-
// driven server is built on, driven through their worst cases — 1-byte
// reads and writes through the FrameAssembler, a full socket buffer
// forcing kWouldBlock mid-frame, EOF and reset delivery — plus
// regression tests for two bugs this layer shipped with: WaitReadable
// restarting its full timeout after every EINTR (unbounded wait under
// signal load), and over-long unix socket paths being silently
// truncated by strncpy into sockaddr_un (connecting to the wrong
// address instead of failing).

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/socket.h"
#include "net/wire.h"

namespace zdb {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

/// A connected loopback TCP pair (client side, accepted side).
struct SocketPair {
  Socket client;
  Socket server;

  SocketPair() {
    auto listener = TcpListen("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    auto port = LocalPort(listener.value());
    EXPECT_TRUE(port.ok());
    auto c = TcpConnect("127.0.0.1", port.value());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    client = std::move(c).value();
    auto s = Accept(listener.value());
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    server = std::move(s).value();
  }
};

// ------------------------------------------------------------ WaitReadable

void SigusrNoop(int) {}

// Regression: WaitReadable used to restart poll(2) with the FULL
// timeout after every EINTR. Under a steady signal stream arriving
// faster than the timeout, the deadline was never reached and the call
// blocked unboundedly. The fix computes the remaining time from a
// monotonic deadline on each restart.
TEST(NetSocket, WaitReadableHonorsDeadlineUnderSignalStorm) {
  struct sigaction sa {};
  struct sigaction old {};
  sa.sa_handler = SigusrNoop;  // deliberately no SA_RESTART: poll gets EINTR
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  SocketPair pair;  // no data will arrive on either end

  const pthread_t target = pthread_self();
  std::atomic<bool> stop{false};
  // Signal the waiting thread every 25ms — far more often than the
  // 150ms timeout, so full-timeout restarts would never converge.
  std::thread storm([&] {
    while (!stop.load()) {
      pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });

  const auto t0 = Clock::now();
  auto r = WaitReadable(pair.client, 150);
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            t0);
  stop.store(true);
  storm.join();
  sigaction(SIGUSR1, &old, nullptr);

  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value());  // timed out, no data
  // Generous upper bound: with the bug this ran until the storm stopped
  // (and before the storm had a stop at all, forever).
  EXPECT_GE(elapsed.count(), 140);
  EXPECT_LT(elapsed.count(), 2000);
}

// --------------------------------------------------------- unix path bugs

// Regression: sockaddr_un.sun_path is ~108 bytes. The original code
// strncpy'd the path in, so an over-long path was silently truncated —
// listen/connect then targeted a DIFFERENT path than requested. Both
// directions must refuse with InvalidArgument instead.
TEST(NetSocket, UnixPathTooLongIsRejectedNotTruncated) {
  const std::string long_path = "/tmp/" + std::string(200, 'z') + ".sock";

  auto listener = UnixListen(long_path);
  ASSERT_FALSE(listener.ok());
  EXPECT_TRUE(listener.status().IsInvalidArgument())
      << listener.status().ToString();
  EXPECT_NE(listener.status().message().find("too long"), std::string::npos);

  auto conn = UnixConnect(long_path);
  ASSERT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsInvalidArgument())
      << conn.status().ToString();

  // The truncated prefix must not have been created as a side effect.
  const std::string truncated = long_path.substr(0, 107);
  EXPECT_NE(::access(truncated.c_str(), F_OK), 0);
}

// A path that exactly fits still works end to end.
TEST(NetSocket, UnixPathAtLimitStillWorks) {
  std::string path = "/tmp/zdb_sock_limit_";
  path += std::to_string(::getpid());
  ASSERT_LT(path.size(), size_t{107});

  auto listener = UnixListen(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto conn = UnixConnect(path);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto accepted = Accept(listener.value());
  ASSERT_TRUE(accepted.ok());

  const char ping = 'p';
  ASSERT_TRUE(WriteFully(conn.value(), &ping, 1).ok());
  char got = 0;
  auto n = ReadSome(accepted.value(), &got, 1);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  EXPECT_EQ(got, 'p');
  ::unlink(path.c_str());
}

// ------------------------------------------------- nonblocking primitives

// Push a full wire frame through the nonblocking primitives one byte at
// a time in both directions: WriteSome is offered exactly 1 byte per
// call, TryRead reads into a 1-byte buffer, and the FrameAssembler sees
// the worst possible fragmentation (every header field split).
TEST(NetSocket, OneByteTortureThroughFrameAssembler) {
  SocketPair pair;
  ASSERT_TRUE(SetNonBlocking(pair.client).ok());
  ASSERT_TRUE(SetNonBlocking(pair.server).ok());

  const std::string payload(513, 'q');  // odd size: not block-aligned
  const std::string frame =
      BuildFrame(Opcode::kWindow, 0, 0xDEADBEEFCAFEULL, payload);

  FrameAssembler assembler;
  size_t sent = 0;
  size_t fed = 0;
  Frame out;
  bool got_frame = false;
  while (!got_frame) {
    if (sent < frame.size()) {
      size_t n = 0;
      auto w = WriteSome(pair.client, frame.data() + sent, 1, &n);
      ASSERT_TRUE(w.ok()) << w.status().ToString();
      if (w.value() == IoEvent::kData) sent += n;
    }
    char byte;
    size_t n = 0;
    auto r = TryRead(pair.server, &byte, 1, &n);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r.value(), IoEvent::kEof);
    if (r.value() == IoEvent::kWouldBlock) continue;
    ASSERT_EQ(n, 1u);
    fed += n;
    assembler.Feed(&byte, 1);

    WireError err;
    FrameHeader eh;
    const auto next = assembler.Poll(&out, &err, &eh);
    if (next == FrameAssembler::Next::kFrame) {
      got_frame = true;
    } else {
      ASSERT_EQ(next, FrameAssembler::Next::kNeedMore)
          << "framing error " << WireErrorName(err) << " after " << fed
          << " bytes";
    }
  }
  EXPECT_EQ(fed, frame.size());
  EXPECT_EQ(out.header.opcode, static_cast<uint8_t>(Opcode::kWindow));
  EXPECT_EQ(out.header.request_id, 0xDEADBEEFCAFEULL);
  EXPECT_EQ(out.payload, payload);
}

// Fill the socket's send buffer until WriteSome reports kWouldBlock,
// drain the peer, and finish — the partial-write resume path the
// server's EPOLLOUT flushing depends on.
TEST(NetSocket, WriteSomeWouldBlockThenResumes) {
  SocketPair pair;
  ASSERT_TRUE(SetNonBlocking(pair.client).ok());
  ASSERT_TRUE(SetNonBlocking(pair.server).ok());

  // Clamp the send buffer so a modest payload overruns it.
  const int small = 4096;
  ASSERT_EQ(::setsockopt(pair.client.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);

  const std::string blob(1 << 20, 'B');
  size_t sent = 0;
  bool saw_would_block = false;
  std::vector<char> sink(64 * 1024);
  size_t received = 0;
  // Fill first, reading nothing, so the kernel must refuse at some
  // point however fast the peer would drain.
  while (!saw_would_block && sent < blob.size()) {
    size_t n = 0;
    auto w =
        WriteSome(pair.client, blob.data() + sent, blob.size() - sent, &n);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    if (w.value() == IoEvent::kWouldBlock) {
      saw_would_block = true;
    } else {
      sent += n;
    }
  }
  while (sent < blob.size() || received < blob.size()) {
    if (sent < blob.size()) {
      size_t n = 0;
      auto w =
          WriteSome(pair.client, blob.data() + sent, blob.size() - sent, &n);
      ASSERT_TRUE(w.ok()) << w.status().ToString();
      if (w.value() == IoEvent::kWouldBlock) {
        saw_would_block = true;
      } else {
        sent += n;
      }
    }
    size_t n = 0;
    auto r = TryRead(pair.server, sink.data(), sink.size(), &n);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r.value(), IoEvent::kEof);
    if (r.value() == IoEvent::kData) received += n;
  }
  EXPECT_TRUE(saw_would_block);
  EXPECT_EQ(received, blob.size());
}

TEST(NetSocket, TryReadReportsEofOnOrderlyClose) {
  SocketPair pair;
  ASSERT_TRUE(SetNonBlocking(pair.server).ok());
  pair.client.Close();
  char buf[16];
  size_t n = 0;
  auto r = TryRead(pair.server, buf, sizeof(buf), &n);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), IoEvent::kEof);
}

// ---------------------------------------------------- accept classification

// The full errno -> policy table. kShutdown is reserved for provably
// dead listeners; anything unknown retries, because abandoning a
// listener is the one mistake an accept loop can't recover from.
TEST(NetSocket, ClassifyAcceptErrorsTable) {
  EXPECT_EQ(ClassifyAcceptError(EINTR), AcceptOutcome::kRetry);
  EXPECT_EQ(ClassifyAcceptError(ECONNABORTED), AcceptOutcome::kRetry);
  EXPECT_EQ(ClassifyAcceptError(EPROTO), AcceptOutcome::kRetry);
  EXPECT_EQ(ClassifyAcceptError(EPERM), AcceptOutcome::kRetry);

  EXPECT_EQ(ClassifyAcceptError(EAGAIN), AcceptOutcome::kWouldBlock);
#if EAGAIN != EWOULDBLOCK
  EXPECT_EQ(ClassifyAcceptError(EWOULDBLOCK), AcceptOutcome::kWouldBlock);
#endif

  EXPECT_EQ(ClassifyAcceptError(EMFILE), AcceptOutcome::kFdExhausted);
  EXPECT_EQ(ClassifyAcceptError(ENFILE), AcceptOutcome::kFdExhausted);
  EXPECT_EQ(ClassifyAcceptError(ENOBUFS), AcceptOutcome::kFdExhausted);
  EXPECT_EQ(ClassifyAcceptError(ENOMEM), AcceptOutcome::kFdExhausted);

  EXPECT_EQ(ClassifyAcceptError(EBADF), AcceptOutcome::kShutdown);
  EXPECT_EQ(ClassifyAcceptError(EINVAL), AcceptOutcome::kShutdown);
  EXPECT_EQ(ClassifyAcceptError(ENOTSOCK), AcceptOutcome::kShutdown);
  EXPECT_EQ(ClassifyAcceptError(EOPNOTSUPP), AcceptOutcome::kShutdown);

  // Unknown errno: never kill the listener.
  EXPECT_EQ(ClassifyAcceptError(EIO), AcceptOutcome::kRetry);
}

TEST(NetSocket, AcceptNonBlockingReportsWouldBlockWhenIdle) {
  auto listener = TcpListen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(SetNonBlocking(listener.value()).ok());
  Socket out;
  EXPECT_EQ(AcceptNonBlocking(listener.value(), &out),
            AcceptOutcome::kWouldBlock);
  EXPECT_FALSE(out.valid());

  // With a pending connection the accepted socket comes back O_NONBLOCK.
  auto port = LocalPort(listener.value());
  ASSERT_TRUE(port.ok());
  auto c = TcpConnect("127.0.0.1", port.value());
  ASSERT_TRUE(c.ok());
  AcceptOutcome outcome = AcceptOutcome::kWouldBlock;
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (outcome == AcceptOutcome::kWouldBlock && Clock::now() < deadline) {
    outcome = AcceptNonBlocking(listener.value(), &out);
  }
  ASSERT_EQ(outcome, AcceptOutcome::kAccepted);
  ASSERT_TRUE(out.valid());
  char buf[1];
  size_t n = 0;
  auto r = TryRead(out, buf, 1, &n);  // must not block: no data yet
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), IoEvent::kWouldBlock);
}

}  // namespace
}  // namespace net
}  // namespace zdb
