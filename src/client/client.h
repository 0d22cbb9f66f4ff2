// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Synchronous client for the zdb wire protocol (net/wire.h): one
// blocking request/reply exchange per call. Not thread-safe — use one
// Client per thread (the server multiplexes connections cheaply).
//
// A Client is opened against one endpoint URI ("tcp://host:port" or
// "unix://path") and optionally knows a set of follower endpoints.
// ClientOptions::read_preference decides where queries go:
//
//   kLeader            everything on the primary connection (default —
//                      exactly the pre-replication behavior).
//   kFollower          WINDOW/POINT/KNN round-robin across the
//                      followers (lazily connected); writes and admin
//                      ops stay on the leader. An unreachable follower
//                      is skipped; with none reachable the leader
//                      serves the read.
//   kBoundedStaleness  like kFollower, but every query carries
//                      max_lag_epochs as its bound. A follower lagging
//                      past the bound answers STALE_READ and the
//                      client transparently retries on the leader,
//                      which is never stale.
//
// Writes against a follower are answered NOT_LEADER with the leader's
// URI in the message; the client reconnects its primary channel there
// and retries once, so a caller pointed at the wrong node self-heals.
//
// Server-side typed errors are rebuilt as the Status the engine
// produced, through the bidirectional Status <-> WireError table in
// net/wire.h (BUSY -> Status::Busy, SHUTTING_DOWN -> Status::Unavailable,
// TIMED_OUT -> Status::TimedOut, ...). Protocol violations — malformed
// frames, version rejections — surface as Status::IOError.
//
// Query replies carry the server's write epoch just before and just
// after execution, so callers can cross-check results against per-epoch
// oracles exactly as the in-process stress tests do.

#ifndef ZDB_CLIENT_CLIENT_H_
#define ZDB_CLIENT_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/spatial_index.h"
#include "net/socket.h"
#include "net/wire.h"

namespace zdb {
namespace net {

/// Where queries (WINDOW/POINT/KNN) are routed.
enum class ReadPreference : uint8_t {
  kLeader,            ///< every request on the primary endpoint
  kFollower,          ///< queries round-robin across the followers
  kBoundedStaleness,  ///< followers, rejected past max_lag_epochs
};

struct ClientOptions {
  ReadPreference read_preference = ReadPreference::kLeader;
  /// kBoundedStaleness only: the maximum replication lag, in epochs,
  /// a query tolerates. Rides in the request's bound; a follower
  /// that cannot honor it rejects and the leader serves the read.
  uint64_t max_lag_epochs = 0;
  /// Follower endpoint URIs for read routing. Connected lazily, on
  /// first use; a dead follower is skipped and retried on later calls.
  std::vector<std::string> followers;
};

/// Window / point / kNN reply: the ids (or scored hits) plus the epoch
/// bracket the server observed around execution.
struct QueryReply {
  uint64_t epoch_before = 0;
  uint64_t epoch_after = 0;
  std::vector<ObjectId> ids;
};

struct KnnReplyData {
  uint64_t epoch_before = 0;
  uint64_t epoch_after = 0;
  std::vector<std::pair<ObjectId, double>> hits;
};

struct ApplyReplyData {
  uint64_t epoch_after = 0;
  std::vector<ObjectId> inserted;  ///< oids assigned, in op order
};

class Client {
 public:
  /// Opens a client against `endpoint` ("tcp://host:port" or
  /// "unix://path"). The connection is established eagerly; follower
  /// connections (if `options.followers` is non-empty) are lazy.
  [[nodiscard]] static Result<Client> Connect(const std::string& endpoint,
                                              ClientOptions options = {});

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  [[nodiscard]] Result<QueryReply> Window(const Rect& w);
  [[nodiscard]] Result<QueryReply> Point(const zdb::Point& p);
  [[nodiscard]] Result<KnnReplyData> Nearest(const zdb::Point& p, uint32_t k);
  /// Applies `batch` atomically on the server. kDurable (default) acks
  /// after the batch is fsynced; kPublished acks as soon as readers can
  /// see the batch (see zdb::Durability). Against a follower the write
  /// is redirected to the leader (one retry).
  [[nodiscard]] Result<ApplyReplyData> Apply(const WriteBatch& batch,
                               Durability durability = Durability::kDurable);
  [[nodiscard]] Result<std::string> Stats();
  [[nodiscard]] Status Ping();
  /// Asks the daemon to shut down (the reply arrives before the server
  /// starts draining).
  [[nodiscard]] Status Shutdown();

  /// The endpoint the primary channel currently points at — updated
  /// when a NOT_LEADER redirect moves it.
  const std::string& endpoint() const { return endpoint_; }

  /// Closes every connection; further calls fail.
  void Close();
  bool connected() const { return primary_.sock.valid(); }

 private:
  /// One connection: socket + frame reassembly + request-id counter.
  /// Replaced wholesale on reconnect (a fresh assembler drops any
  /// poisoned framing state).
  struct Channel {
    Socket sock;
    uint64_t next_request_id = 1;
    FrameAssembler assembler;
  };

  Client(Channel primary, std::string endpoint, ClientOptions options);

  /// Sends one request frame on `ch` and blocks for the matching reply
  /// payload (validating magic/version/request id, surfacing typed
  /// errors as the Status codes documented above). If `wire_err` is
  /// non-null it receives the reply's raw wire code (kOk when no reply
  /// arrived at all).
  [[nodiscard]] Result<std::string> RoundTripOn(Channel& ch, Opcode op,
                                  std::string_view payload,
                                  WireError* wire_err = nullptr);

  /// Round-trips on the primary channel, transparently following one
  /// NOT_LEADER redirect (the rejection message is the leader's URI).
  [[nodiscard]] Result<std::string> LeaderRoundTrip(Opcode op,
                                      std::string_view payload);

  /// Routes one query payload per the read preference.
  [[nodiscard]] Result<std::string> QueryRoundTrip(Opcode op,
                                                   std::string_view payload);

  /// The staleness bound the read preference puts on every query.
  uint64_t StalenessBound() const;

  /// The follower channel at `idx`, connecting lazily; nullptr when
  /// the follower is unreachable right now.
  Channel* FollowerChannel(size_t idx);

  Channel primary_;
  std::string endpoint_;
  ClientOptions options_;
  /// Lazily connected follower channels, parallel to
  /// options_.followers. A slot resets to null on failure and is
  /// re-dialed on the next use.
  std::vector<std::unique_ptr<Channel>> followers_;
  size_t rr_ = 0;  ///< round-robin cursor over followers_
};

}  // namespace net
}  // namespace zdb

#endif  // ZDB_CLIENT_CLIENT_H_
