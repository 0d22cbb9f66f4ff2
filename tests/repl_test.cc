// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Replication suites (labelled `repl`; suite names Repl* so the TSan CI
// leg's regex picks them up):
//
//   ReplRecord    — log-record / opcode codec round-trips and corruption
//   ReplStaleness — the WithinStaleness bound arithmetic
//   ReplShipper   — LogShipper cursors, windowing, retention, truncation
//   ReplCommitSink — the DB's commit-sink contract under concurrent
//                   writers, at one and at four shards
//   ReplEndToEnd  — leader + follower over real sockets: byte-identical
//                   answers at every shipped epoch (brute-force oracle),
//                   kill-and-resubscribe without gaps or duplicates,
//                   NOT_LEADER redirects, bounded-staleness honesty.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "client/client.h"
#include "common/random.h"
#include "repl/apply.h"
#include "repl/record.h"
#include "repl/ship.h"
#include "server/server.h"
#include "oracle_util.h"
#include "zdb/db.h"

namespace zdb {
namespace {

using net::Client;
using net::ClientOptions;
using net::ReadPreference;
using net::Server;
using net::ServerOptions;
using net::ServerRole;

// ------------------------------------------------------------ ReplRecord

WriteBatch MakeBatch() {
  WriteBatch b;
  WriteOp ins;
  ins.kind = WriteOp::Kind::kInsert;
  ins.mbr = Rect{0.1, 0.2, 0.3, 0.4};
  ins.payload = 7;
  ins.preassigned = 42;
  b.ops.push_back(ins);
  WriteOp era;
  era.kind = WriteOp::Kind::kErase;
  era.oid = 9;
  b.ops.push_back(era);
  return b;
}

TEST(ReplRecord, RoundTrip) {
  repl::LogRecord rec;
  rec.epoch = 1234;
  rec.batch = MakeBatch();
  const std::string wire = repl::EncodeLogRecord(rec);

  repl::LogRecord out;
  ASSERT_TRUE(repl::DecodeLogRecord(wire, &out));
  EXPECT_EQ(out.epoch, 1234u);
  ASSERT_EQ(out.batch.ops.size(), 2u);
  EXPECT_EQ(out.batch.ops[0].kind, WriteOp::Kind::kInsert);
  EXPECT_EQ(out.batch.ops[0].preassigned, 42u);
  EXPECT_EQ(out.batch.ops[0].payload, 7u);
  EXPECT_EQ(out.batch.ops[0].mbr.xlo, 0.1);
  EXPECT_EQ(out.batch.ops[1].kind, WriteOp::Kind::kErase);
  EXPECT_EQ(out.batch.ops[1].oid, 9u);
}

TEST(ReplRecord, EveryFlippedByteIsDetected) {
  repl::LogRecord rec;
  rec.epoch = 77;
  rec.batch = MakeBatch();
  const std::string wire = repl::EncodeLogRecord(rec);
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    repl::LogRecord out;
    // A flip in the epoch/ops bytes fails the checksum; a flip in the
    // checksum bytes fails the compare; a flip in the count either
    // fails bounds or the checksum. Nothing decodes silently.
    EXPECT_FALSE(repl::DecodeLogRecord(bad, &out)) << "byte " << i;
  }
}

TEST(ReplRecord, TruncationAndTrailingBytesRejected) {
  repl::LogRecord rec;
  rec.epoch = 5;
  rec.batch = MakeBatch();
  const std::string wire = repl::EncodeLogRecord(rec);
  repl::LogRecord out;
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(repl::DecodeLogRecord(wire.substr(0, cut), &out));
  }
  EXPECT_FALSE(repl::DecodeLogRecord(wire + "x", &out));
}

TEST(ReplRecord, OpcodePayloadCodecs) {
  uint64_t v = 0;
  ASSERT_TRUE(
      repl::DecodeSubscribeRequest(repl::EncodeSubscribeRequest(31), &v));
  EXPECT_EQ(v, 31u);
  ASSERT_TRUE(repl::DecodeLogAck(repl::EncodeLogAck(17), &v));
  EXPECT_EQ(v, 17u);

  // The subscribe reply is a full reply payload: status byte + body.
  const std::string reply = repl::EncodeSubscribeReply(99);
  std::string_view body;
  std::string message;
  ASSERT_EQ(net::ParseReplyStatus(reply, &body, &message),
            net::WireError::kOk);
  ASSERT_TRUE(repl::DecodeSubscribeReplyBody(body, &v));
  EXPECT_EQ(v, 99u);

  repl::LogRecord rec;
  rec.epoch = 3;
  rec.batch = MakeBatch();
  const std::string frame =
      repl::EncodeLogRecordFrame(11, repl::EncodeLogRecord(rec));
  repl::LogRecord out;
  ASSERT_TRUE(repl::DecodeLogRecordFrame(frame, &v, &out));
  EXPECT_EQ(v, 11u);
  EXPECT_EQ(out.epoch, 3u);
}

// --------------------------------------------------------- ReplStaleness

TEST(ReplStaleness, UnboundedAlwaysWithin) {
  EXPECT_TRUE(repl::WithinStaleness(100, 0, false, net::kNoStalenessBound));
  EXPECT_TRUE(repl::WithinStaleness(0, 0, true, net::kNoStalenessBound));
}

TEST(ReplStaleness, DisconnectedNeverWithinABound) {
  // A disconnected follower cannot know its lag — any finite bound must
  // reject rather than guess.
  EXPECT_FALSE(repl::WithinStaleness(5, 5, false, 1000));
  EXPECT_FALSE(repl::WithinStaleness(0, 0, false, 0));
}

TEST(ReplStaleness, LagArithmetic) {
  EXPECT_TRUE(repl::WithinStaleness(10, 10, true, 0));   // caught up
  EXPECT_FALSE(repl::WithinStaleness(11, 10, true, 0));  // 1 behind
  EXPECT_TRUE(repl::WithinStaleness(11, 10, true, 1));
  EXPECT_TRUE(repl::WithinStaleness(15, 10, true, 5));
  EXPECT_FALSE(repl::WithinStaleness(16, 10, true, 5));
  // Applied ahead of the last-heard leader epoch (stale leader info
  // mid-stream): lag clamps to zero, never underflows.
  EXPECT_TRUE(repl::WithinStaleness(9, 10, true, 0));
}

// ----------------------------------------------------------- ReplShipper

/// Collects shipped frames; decodes them back to (epoch, record epoch).
struct FrameSink {
  std::mutex mu;
  std::vector<repl::LogRecord> records;
  std::vector<uint64_t> heads;

  repl::LogShipper::SendFn Fn() {
    return [this](std::string frame) {
      // Strip the 20-byte wire header, decode the LOG_RECORD payload.
      net::FrameAssembler fa;
      fa.Feed(frame.data(), frame.size());
      net::Frame f;
      net::WireError err;
      net::FrameHeader eh;
      ASSERT_EQ(fa.Poll(&f, &err, &eh), net::FrameAssembler::Next::kFrame);
      uint64_t head = 0;
      repl::LogRecord rec;
      ASSERT_TRUE(repl::DecodeLogRecordFrame(f.payload, &head, &rec));
      std::lock_guard<std::mutex> lock(mu);
      heads.push_back(head);
      records.push_back(std::move(rec));
    };
  }

  size_t Count() {
    std::lock_guard<std::mutex> lock(mu);
    return records.size();
  }
};

void AwaitCount(FrameSink* sink, size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sink->Count() < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "shipper never delivered " << n << " records";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ReplShipper, ShipsCommitsInOrderFromTheSubscribedCursor) {
  repl::LogShipper shipper(/*attach_epoch=*/0, {});
  shipper.Start();
  for (uint64_t e = 1; e <= 3; ++e) {
    WriteBatch b = MakeBatch();
    shipper.OnCommit(e, b);
  }
  // Appends happen on the ship thread; wait until the log head reflects
  // all three commits before claiming a resume point inside it.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (shipper.Snapshot().records_appended < 3) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  FrameSink sink;
  auto head = shipper.Subscribe(/*token=*/1, /*last_applied=*/1, sink.Fn());
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  shipper.Activate(1);
  AwaitCount(&sink, 2);  // epochs 2 and 3; epoch 1 already applied
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    ASSERT_EQ(sink.records.size(), 2u);
    EXPECT_EQ(sink.records[0].epoch, 2u);
    EXPECT_EQ(sink.records[1].epoch, 3u);
    // The piggybacked head epoch is current at send time.
    EXPECT_GE(sink.heads[0], 2u);
  }
  shipper.OnCommit(4, MakeBatch());
  AwaitCount(&sink, 3);
  shipper.Stop();
}

TEST(ReplShipper, WindowBlocksUntilAcked) {
  repl::ShipperOptions opt;
  opt.window = 1;
  repl::LogShipper shipper(0, opt);
  shipper.Start();
  FrameSink sink;
  ASSERT_TRUE(shipper.Subscribe(1, 0, sink.Fn()).ok());
  shipper.Activate(1);
  shipper.OnCommit(1, MakeBatch());
  shipper.OnCommit(2, MakeBatch());
  AwaitCount(&sink, 1);
  // Window of one: the second record must not ship before the ack.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(sink.Count(), 1u);
  shipper.Ack(1, 1);
  AwaitCount(&sink, 2);
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    EXPECT_EQ(sink.records[1].epoch, 2u);
  }
  shipper.Stop();
}

TEST(ReplShipper, SubscribeOutsideTheLogIsTyped) {
  repl::LogShipper shipper(/*attach_epoch=*/10, {});
  shipper.Start();
  FrameSink sink;
  // Below the floor: history before the attach epoch was never logged.
  auto below = shipper.Subscribe(1, 3, sink.Fn());
  ASSERT_FALSE(below.ok());
  EXPECT_TRUE(below.status().IsNotFound()) << below.status().ToString();
  // Ahead of the head: the follower claims epochs that don't exist.
  auto ahead = shipper.Subscribe(2, 11, sink.Fn());
  ASSERT_FALSE(ahead.ok());
  EXPECT_TRUE(ahead.status().IsInvalidArgument());
  // Exactly at the floor/head boundary is fine.
  EXPECT_TRUE(shipper.Subscribe(3, 10, sink.Fn()).ok());
  shipper.Stop();
}

TEST(ReplShipper, RetentionAdvancesTheFloor) {
  repl::ShipperOptions opt;
  opt.retain_records = 2;
  repl::LogShipper shipper(0, opt);
  shipper.Start();
  for (uint64_t e = 1; e <= 6; ++e) shipper.OnCommit(e, MakeBatch());
  // Wait until the ring has absorbed and evicted.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (shipper.Snapshot().records_appended < 6) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const repl::ShipperStats s = shipper.Snapshot();
  EXPECT_EQ(s.retained, 2u);
  EXPECT_EQ(s.floor_epoch, 4u);  // epochs 1..4 evicted
  EXPECT_EQ(s.records_evicted, 4u);
  // A resume point inside the evicted range is a typed resync demand.
  FrameSink sink;
  auto r = shipper.Subscribe(1, 2, sink.Fn());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  shipper.Stop();
}

// -------------------------------------------------------- ReplCommitSink

/// Records every batch a DB reports. The DB calls OnCommit under its
/// write mutex; `mu` orders the records with the reading test thread.
struct RecordingSink : CommitSink {
  struct Record {
    uint64_t epoch;
    WriteBatch batch;
  };

  void OnCommit(uint64_t epoch, const WriteBatch& resolved) override {
    std::lock_guard<std::mutex> lock(mu);
    records.push_back({epoch, resolved});
  }

  size_t Count() {
    std::lock_guard<std::mutex> lock(mu);
    return records.size();
  }

  std::mutex mu;
  std::vector<Record> records;
};

/// A successful non-empty batch and the oids its Apply returned.
struct Applied {
  WriteBatch batch;
  std::vector<ObjectId> oids;
};

/// Runs `writers` threads, each applying `batches` batches of three
/// inserts plus, from its second batch on, an erase of one of its own
/// live objects, alternating kPublished and kDurable. Every third batch
/// a writer also applies an empty batch and one that must fail (it
/// erases an object the writer already erased); neither may reach the
/// sink. `meanwhile` runs on the calling thread while they write.
/// Returns every writer's successful batches.
std::vector<Applied> RunWriters(DB* db, int writers, int batches,
                                const std::function<void()>& meanwhile) {
  std::vector<std::vector<Applied>> per_writer(writers);
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([db, w, batches, &per_writer] {
      Random rng(0x5123 + w);
      std::vector<ObjectId> live;
      std::vector<ObjectId> dead;
      for (int b = 0; b < batches; ++b) {
        WriteBatch batch;
        for (int i = 0; i < 3; ++i) {
          const double x = rng.UniformDouble(0.0, 0.95);
          const double y = rng.UniformDouble(0.0, 0.95);
          batch.Insert(Rect{x, y, x + rng.UniformDouble(0.001, 0.05),
                            y + rng.UniformDouble(0.001, 0.05)});
        }
        if (!live.empty()) {
          const size_t i = rng.Uniform(live.size());
          batch.Erase(live[i]);
          dead.push_back(live[i]);
          live.erase(live.begin() + static_cast<ptrdiff_t>(i));
        }
        auto r = db->Apply(batch, b % 2 == 0 ? Durability::kPublished
                                             : Durability::kDurable);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        live.insert(live.end(), r.value().begin(), r.value().end());
        per_writer[w].push_back({batch, r.value()});
        if (b % 3 == 2) {
          EXPECT_TRUE(db->Apply(WriteBatch{}).ok());
          WriteBatch bad;
          bad.Insert(Rect{0.1, 0.1, 0.2, 0.2});
          bad.Erase(dead.back());
          EXPECT_TRUE(db->Apply(bad).status().IsNotFound());
        }
      }
    });
  }
  meanwhile();
  for (std::thread& t : threads) t.join();
  std::vector<Applied> all;
  for (auto& v : per_writer) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// Checks the records against the batches they report: epochs strictly
/// increase, and each record is one applied batch (found by its first
/// inserted oid), reported once, with the oids its Apply returned.
/// Returns the first inserted oids of the reported batches.
std::set<ObjectId> CheckRecords(const std::vector<RecordingSink::Record>& recs,
                                const std::vector<Applied>& applied) {
  std::map<ObjectId, const Applied*> by_first_oid;
  for (const Applied& a : applied) by_first_oid[a.oids.front()] = &a;
  std::set<ObjectId> reported;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(recs[i - 1].epoch, recs[i].epoch) << "record " << i;
    }
    std::vector<ObjectId> oids;
    for (const WriteOp& op : recs[i].batch.ops) {
      if (op.kind == WriteOp::Kind::kInsert) oids.push_back(op.preassigned);
    }
    EXPECT_FALSE(oids.empty()) << "record " << i;
    if (oids.empty()) continue;
    const auto it = by_first_oid.find(oids.front());
    EXPECT_NE(it, by_first_oid.end()) << "record " << i << " was not applied";
    if (it == by_first_oid.end()) continue;
    EXPECT_TRUE(reported.insert(oids.front()).second)
        << "record " << i << " reported twice";
    EXPECT_EQ(oids, it->second->oids) << "record " << i;
    const WriteBatch& sent = it->second->batch;
    EXPECT_EQ(recs[i].batch.ops.size(), sent.ops.size()) << "record " << i;
    for (size_t j = 0; j < sent.ops.size() && j < recs[i].batch.ops.size();
         ++j) {
      const WriteOp& got = recs[i].batch.ops[j];
      EXPECT_EQ(got.kind, sent.ops[j].kind);
      EXPECT_EQ(got.mbr, sent.ops[j].mbr);
      if (got.kind == WriteOp::Kind::kErase) {
        EXPECT_EQ(got.oid, sent.ops[j].oid);
      }
    }
  }
  return reported;
}

// Concurrent writers on a DB with a sink attached, at one and at four
// shards: the sink sees every successful non-empty batch once, in
// strictly increasing epochs, with the oids Apply returned, and replaying
// the records on a fresh DB reproduces the leader's answers byte for
// byte. InsertPolygon and BulkLoad are rejected while the sink is
// attached, even while writers run. A sink detached mid-stream has seen
// exactly the batches published before the detach.
TEST(ReplCommitSink, ConcurrentWritersReportEachBatchOnceInEpochOrder) {
  constexpr int kWriters = 4;
  constexpr int kBatches = 30;
  const std::vector<Rect> windows = {Rect{0.0, 0.0, 1.0, 1.0},
                                     Rect{0.1, 0.1, 0.4, 0.3},
                                     Rect{0.45, 0.45, 0.55, 0.55},
                                     Rect{0.6, 0.2, 0.9, 0.8}};
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    DBOptions opt;
    opt.memory_journal = true;
    opt.shards = shards;
    auto leader = DB::Open("", opt).value();

    RecordingSink sink;
    ASSERT_TRUE(leader->SetCommitSink(&sink).ok());
    const std::vector<Applied> applied =
        RunWriters(leader.get(), kWriters, kBatches, [&] {
          const Polygon square({Point{0.2, 0.2}, Point{0.3, 0.2},
                                Point{0.3, 0.3}, Point{0.2, 0.3}});
          for (int i = 0; i < 20; ++i) {
            const Status poly = leader->InsertPolygon(square).status();
            EXPECT_TRUE(poly.IsInvalidArgument()) << poly.ToString();
            EXPECT_NE(poly.ToString().find("commit sink"), std::string::npos)
                << poly.ToString();
            const Status load = leader->BulkLoad({Rect{0.1, 0.1, 0.2, 0.2}});
            EXPECT_TRUE(load.IsInvalidArgument()) << load.ToString();
            EXPECT_NE(load.ToString().find("commit sink"), std::string::npos)
                << load.ToString();
            std::this_thread::yield();
          }
        });
    ASSERT_EQ(applied.size(), static_cast<size_t>(kWriters * kBatches));
    EXPECT_EQ(CheckRecords(sink.records, applied).size(), applied.size());
    EXPECT_EQ(sink.records.back().epoch, leader->write_epoch());

    auto replica = DB::Open("", opt).value();
    for (const RecordingSink::Record& rec : sink.records) {
      auto r = replica->ApplyReplicated(rec.batch);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    for (const Rect& win : windows) {
      EXPECT_EQ(replica->Window(win).value(), leader->Window(win).value());
    }

    // Round two: detach a fresh sink while the writers run.
    RecordingSink cut;
    ASSERT_TRUE(leader->SetCommitSink(nullptr).ok());
    ASSERT_TRUE(leader->SetCommitSink(&cut).ok());
    const std::vector<Applied> more =
        RunWriters(leader.get(), kWriters, kBatches, [&] {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (cut.Count() < 10 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          EXPECT_TRUE(leader->SetCommitSink(nullptr).ok());
        });
    const std::set<ObjectId> reported = CheckRecords(cut.records, more);
    ASSERT_FALSE(reported.empty());
    // Oids are assigned in publish order, so the batches published
    // before the detach are exactly those below the last reported oid.
    const ObjectId last = *reported.rbegin();
    for (const Applied& a : more) {
      EXPECT_EQ(reported.count(a.oids.front()) == 1, a.oids.front() <= last)
          << "batch at oid " << a.oids.front();
    }
    const size_t seen = cut.Count();
    ASSERT_TRUE(leader->Insert(Rect{0.3, 0.3, 0.4, 0.4}).ok());
    EXPECT_EQ(cut.Count(), seen);
    EXPECT_TRUE(leader
                    ->InsertPolygon(Polygon({Point{0.2, 0.2}, Point{0.3, 0.2},
                                             Point{0.3, 0.3}}))
                    .ok());
  }
}

// ----------------------------------------------------------- ReplEndToEnd

struct Node {
  std::unique_ptr<DB> db;
  std::unique_ptr<Server> server;
  std::string uri;

  Node(ServerRole role, const std::string& leader_uri,
       size_t retain_records = 0, size_t window = 64) {
    DBOptions dopt;
    dopt.index.data = DecomposeOptions::SizeBound(8);
    dopt.memory_journal = true;
    auto db_r = DB::Open("", dopt);
    EXPECT_TRUE(db_r.ok()) << db_r.status().ToString();
    db = std::move(db_r).value();
    ServerOptions sopt;
    sopt.port = 0;
    sopt.workers = 2;
    sopt.idle_timeout_ms = 0;
    sopt.role = role;
    sopt.leader_endpoint = leader_uri;
    sopt.repl_retain_records = retain_records;
    sopt.repl_window = window;
    server = std::make_unique<Server>(db.get(), sopt);
    const Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
    uri = "tcp://127.0.0.1:" + std::to_string(server->port());
  }
};

/// The unsigned counter `key` of a STATS JSON payload (0 if absent).
uint64_t StatsCounter(const std::string& json, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const size_t at = json.find(tag);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + tag.size(), nullptr, 10);
}

void AwaitEpoch(const DB& db, uint64_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db.write_epoch() < target) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replica stuck at epoch " << db.write_epoch() << " of "
        << target;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Client ConnectTo(const std::string& uri, ClientOptions opt = {}) {
  auto c = Client::Connect(uri, std::move(opt));
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  return std::move(c).value();
}

TEST(ReplEndToEnd, FollowerByteIdenticalAtEveryShippedEpoch) {
  Node leader(ServerRole::kLeader, "");
  Node follower(ServerRole::kFollower, leader.uri);
  Client lc = ConnectTo(leader.uri);
  Client fc = ConnectTo(follower.uri);

  oracle::WorkloadShape shape;
  shape.initial_objects = 200;
  shape.batches = 8;
  const oracle::Workload w = oracle::MakeWorkload(0xE17E2E, shape);

  // Epoch 1: the initial object set as one batch.
  {
    WriteBatch batch;
    for (const Rect& r : w.initial) batch.Insert(r);
    auto r = lc.Apply(batch);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // One leader commit per oracle batch; after each ships, the follower
  // must answer every query byte-identically to the oracle state at
  // that epoch — same ids, same order (ascending, like the engine).
  for (size_t b = 0; b < w.batches.size(); ++b) {
    auto r = lc.Apply(w.batches[b]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().inserted, w.batch_oids[b]) << "batch " << b;
    AwaitEpoch(*follower.db, leader.db->write_epoch());

    const oracle::OracleState& st = w.states[b + 1];
    for (const Rect& win : w.windows) {
      auto got = fc.Window(win);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      std::vector<ObjectId> ids = got.value().ids;
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(ids, oracle::ExpectedWindow(st, win)) << "batch " << b;
    }
    for (const Point& p : w.points) {
      auto got = fc.Point(p);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      std::vector<ObjectId> ids = got.value().ids;
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(ids, oracle::ExpectedPoint(st, p)) << "batch " << b;
    }
  }

  // Follower answers must also be byte-identical to the leader's —
  // leader-assigned oids replayed verbatim, same traversal order.
  for (const Rect& win : w.windows) {
    auto a = lc.Window(win);
    auto b = fc.Window(win);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().ids, b.value().ids);
  }
}

TEST(ReplEndToEnd, KillAndResubscribeNoGapsNoDuplicates) {
  Node leader(ServerRole::kLeader, "");
  Client lc = ConnectTo(leader.uri);

  // The follower here is a bare DB + Applier so the test can stop and
  // restart the subscription the way a crashed follower process would.
  DBOptions dopt;
  dopt.index.data = DecomposeOptions::SizeBound(8);
  dopt.memory_journal = true;
  auto fdb = DB::Open("", dopt).value();

  oracle::WorkloadShape shape;
  shape.initial_objects = 100;
  shape.batches = 6;
  const oracle::Workload w = oracle::MakeWorkload(0xE17DEAD, shape);
  {
    WriteBatch batch;
    for (const Rect& r : w.initial) batch.Insert(r);
    ASSERT_TRUE(lc.Apply(batch).ok());
  }

  repl::ApplierOptions aopt;
  aopt.leader_endpoint = leader.uri;
  uint64_t applied_at_kill = 0;
  {
    repl::Applier applier(fdb.get(), aopt);
    ASSERT_TRUE(applier.Start().ok());
    for (size_t b = 0; b < 3; ++b) ASSERT_TRUE(lc.Apply(w.batches[b]).ok());
    AwaitEpoch(*fdb, leader.db->write_epoch());
    applier.Stop();  // "crash": half the stream applied
    applied_at_kill = applier.applied_epoch();
  }
  ASSERT_EQ(applied_at_kill, leader.db->write_epoch());

  // The leader keeps committing while the follower is down.
  for (size_t b = 3; b < w.batches.size(); ++b) {
    ASSERT_TRUE(lc.Apply(w.batches[b]).ok());
  }

  // Restart, resuming from the persisted-equivalent epoch. The applier
  // must receive exactly the missed suffix: no duplicates (the DB would
  // reject re-inserting live preassigned oids), no gaps (the oracle
  // compare below would fail).
  repl::ApplierOptions resume = aopt;
  resume.initial_applied_epoch = applied_at_kill;
  repl::Applier applier(fdb.get(), resume);
  ASSERT_TRUE(applier.Start().ok());
  AwaitEpoch(*fdb, leader.db->write_epoch());
  // The DB's write epoch advances inside ApplyReplicated, a beat before
  // the applier publishes its own watermark — wait for the applier's
  // applied_epoch (which orders its counters) before sampling stats.
  {
    const uint64_t target = leader.db->write_epoch();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (applier.applied_epoch() < target) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "applier watermark stuck at " << applier.applied_epoch();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const repl::ApplierStats st = applier.Snapshot();
  EXPECT_EQ(st.records_applied,
            leader.db->write_epoch() - applied_at_kill);
  EXPECT_EQ(st.duplicates_skipped, 0u);
  EXPECT_EQ(st.stream_errors, 0u);
  applier.Stop();

  const oracle::OracleState& final_state = w.states.back();
  for (const Rect& win : w.windows) {
    auto got = fdb->Window(win);
    ASSERT_TRUE(got.ok());
    std::vector<ObjectId> ids = got.value();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, oracle::ExpectedWindow(final_state, win));
  }
}

TEST(ReplEndToEnd, TruncatedLogDemandsResync) {
  // Tiny retention ring: by the time the follower attaches, the epochs
  // it wants are gone and the subscribe must be a typed rejection, not
  // a silent gap.
  Node leader(ServerRole::kLeader, "", /*retain_records=*/2);
  Client lc = ConnectTo(leader.uri);
  for (int b = 0; b < 8; ++b) {
    WriteBatch batch;
    batch.Insert(Rect{0.1 * b, 0.1, 0.1 * b + 0.05, 0.2});
    ASSERT_TRUE(lc.Apply(batch).ok());
  }

  // The ship thread appends and evicts records after Apply has
  // returned. Until the floor passes 0 a subscribe from epoch 0 is
  // rightly accepted, so wait for the precondition this test is about.
  const auto floor_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (StatsCounter(leader.server->StatsJson(), "floor_epoch") == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), floor_deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  DBOptions dopt;
  dopt.index.data = DecomposeOptions::SizeBound(8);
  dopt.memory_journal = true;
  auto fdb = DB::Open("", dopt).value();
  repl::ApplierOptions aopt;
  aopt.leader_endpoint = leader.uri;
  aopt.reconnect_min_ms = 10;
  repl::Applier applier(fdb.get(), aopt);  // last applied 0 < floor
  ASSERT_TRUE(applier.Start().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (applier.Snapshot().subscribe_rejects == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(applier.connected());
  EXPECT_EQ(fdb->write_epoch(), 0u);  // nothing partial was applied
  applier.Stop();
}

TEST(ReplEndToEnd, FollowerOutrunByTheRingIsToldToResync) {
  // A subscribed follower with a window of one record, and a ring of two:
  // three commits inside one ship-and-ack round trip evict the record at
  // the follower's cursor. The leader must tell it that it needs a
  // resync instead of leaving its connection open and silent.
  Node leader(ServerRole::kLeader, "", /*retain_records=*/2, /*window=*/1);
  DBOptions dopt;
  dopt.index.data = DecomposeOptions::SizeBound(8);
  dopt.memory_journal = true;
  auto fdb = DB::Open("", dopt).value();
  repl::ApplierOptions aopt;
  aopt.leader_endpoint = leader.uri;
  aopt.reconnect_min_ms = 10;
  repl::Applier applier(fdb.get(), aopt);
  ASSERT_TRUE(applier.Start().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!applier.connected()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // In-process commits are far faster than a round trip over loopback.
  size_t batches = 0;
  while (applier.Snapshot().subscribe_rejects == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "follower not told to resync after " << batches << " batches";
    WriteBatch batch;
    const double x = 0.001 * static_cast<double>(batches % 900);
    batch.Insert(Rect{x, 0.1, x + 0.01, 0.2});
    ASSERT_TRUE(leader.db->Apply(batch, Durability::kPublished).ok());
    ++batches;
  }
  EXPECT_LT(applier.applied_epoch(), leader.db->write_epoch());
  EXPECT_EQ(applier.Snapshot().stream_errors, 0u);
  applier.Stop();
}

TEST(ReplEndToEnd, WritesAgainstAFollowerRedirect) {
  Node leader(ServerRole::kLeader, "");
  Node follower(ServerRole::kFollower, leader.uri);
  Client c = ConnectTo(follower.uri);
  WriteBatch batch;
  batch.Insert(Rect{0.4, 0.4, 0.5, 0.5});
  auto r = c.Apply(batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(c.endpoint(), leader.uri);  // transparently moved
  AwaitEpoch(*follower.db, leader.db->write_epoch());
  EXPECT_EQ(follower.db->object_count(), 1u);
}

TEST(ReplEndToEnd, BoundedStalenessIsHonest) {
  Node leader(ServerRole::kLeader, "");
  Node follower(ServerRole::kFollower, leader.uri);
  // A follower whose leader will never answer: parseable endpoint,
  // nothing listening. Its applier can never connect, so any finite
  // staleness bound must be rejected.
  Node orphan(ServerRole::kFollower, "tcp://127.0.0.1:1");

  Client lc = ConnectTo(leader.uri);
  WriteBatch batch;
  batch.Insert(Rect{0.2, 0.2, 0.3, 0.3});
  ASSERT_TRUE(lc.Apply(batch).ok());
  AwaitEpoch(*follower.db, leader.db->write_epoch());

  const Rect win{0.0, 0.0, 1.0, 1.0};

  // Caught-up follower, loose bound: served by the follower.
  {
    ClientOptions copt;
    copt.read_preference = ReadPreference::kBoundedStaleness;
    copt.max_lag_epochs = 1000;
    copt.followers = {follower.uri};
    Client c = ConnectTo(leader.uri, copt);
    auto r = c.Window(win);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().ids.size(), 1u);
  }

  // Disconnected follower, any bound: the follower answers STALE_READ
  // and the client transparently falls back to the leader.
  {
    ClientOptions copt;
    copt.read_preference = ReadPreference::kBoundedStaleness;
    copt.max_lag_epochs = 1000;
    copt.followers = {orphan.uri};
    Client c = ConnectTo(leader.uri, copt);
    auto r = c.Window(win);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().ids.size(), 1u);
    // The orphan rejected honestly (visible in its counters).
    Client oc = ConnectTo(orphan.uri);
    auto stats = oc.Stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_NE(stats.value().find("\"stale_rejected\":1"),
              std::string::npos)
        << stats.value();
  }

  // An unbounded read against the disconnected follower still works —
  // staleness is opt-in.
  {
    Client c = ConnectTo(orphan.uri);
    auto r = c.Window(win);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().ids.empty());  // orphan never applied anything
  }
}

}  // namespace
}  // namespace zdb
