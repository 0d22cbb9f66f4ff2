// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Server integration tests over real loopback sockets: request/reply
// basics, concurrent mixed traffic cross-checked against a brute-force
// oracle at write-epoch granularity (the remote twin of
// stress_mixed_test) over 1-shard and 4-shard DBs, the STATS layout,
// graceful shutdown, BUSY backpressure, idle timeouts, and hostile
// bytes arriving over the wire.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "client/client.h"
#include "fault_file.h"
#include "net/socket.h"
#include "net/wire.h"
#include "server/server.h"
#include "shard/engine.h"
#include "workload/datagen.h"
#include "workload/querygen.h"
#include "workload/seed.h"
#include "zdb/db.h"

namespace zdb {
namespace net {
namespace {

constexpr const char* kSeedEnv = "ZDB_STRESS_SEED";
constexpr uint64_t kDefaultSeed = 0xFACADE;

using OracleState = std::map<ObjectId, Rect>;

std::vector<ObjectId> ExpectedWindow(const OracleState& st, const Rect& w) {
  std::vector<ObjectId> out;
  for (const auto& [oid, rect] : st) {
    if (rect.Intersects(w)) out.push_back(oid);
  }
  return out;
}

std::vector<ObjectId> ExpectedPoint(const OracleState& st, const Point& p) {
  std::vector<ObjectId> out;
  for (const auto& [oid, rect] : st) {
    if (rect.Contains(p)) out.push_back(oid);
  }
  return out;
}

bool MatchesWindowInRange(const std::vector<OracleState>& states,
                          const Rect& w, const std::vector<ObjectId>& got,
                          uint64_t e0, uint64_t e1) {
  for (uint64_t k = e0; k <= e1 && k < states.size(); ++k) {
    if (got == ExpectedWindow(states[k], w)) return true;
  }
  return false;
}

bool MatchesPointInRange(const std::vector<OracleState>& states,
                         const Point& p, const std::vector<ObjectId>& got,
                         uint64_t e0, uint64_t e1) {
  for (uint64_t k = e0; k <= e1 && k < states.size(); ++k) {
    if (got == ExpectedPoint(states[k], p)) return true;
  }
  return false;
}

bool KnnMatchesState(const OracleState& st, const Point& p, size_t k,
                     const std::vector<std::pair<ObjectId, double>>& got) {
  constexpr double kEps = 1e-9;
  if (got.size() != std::min(k, st.size())) return false;
  double prev = -1.0;
  for (const auto& [oid, dist] : got) {
    auto it = st.find(oid);
    if (it == st.end()) return false;
    if (std::abs(it->second.DistanceTo(p) - dist) > kEps) return false;
    if (dist + kEps < prev) return false;
    prev = dist;
  }
  if (!got.empty()) {
    const double worst = got.back().second;
    std::vector<ObjectId> returned;
    for (const auto& [oid, dist] : got) returned.push_back(oid);
    std::sort(returned.begin(), returned.end());
    for (const auto& [oid, rect] : st) {
      if (std::binary_search(returned.begin(), returned.end(), oid)) {
        continue;
      }
      if (rect.DistanceTo(p) + kEps < worst) return false;
    }
  }
  return true;
}

bool MatchesKnnInRange(const std::vector<OracleState>& states,
                       const Point& p, size_t k,
                       const std::vector<std::pair<ObjectId, double>>& got,
                       uint64_t e0, uint64_t e1) {
  for (uint64_t s = e0; s <= e1 && s < states.size(); ++s) {
    if (KnnMatchesState(states[s], p, k, got)) return true;
  }
  return false;
}

/// Closes a sharded reply's epoch bracket. Each shard answers from its
/// own pinned state, and the DB bumps write_epoch() only after the
/// batch in flight has published on every shard — so shards may already
/// show epoch e1 + 1 (DESIGN.md "Sharded partitions").
uint64_t ShardedLast(const std::vector<OracleState>& states, uint64_t e1) {
  return std::min<uint64_t>(e1 + 1, states.size() - 1);
}

/// True if a sharded reply `got` is a per-shard mix of the states
/// [e0, e1]: sorted and unique, every id satisfies `pred` in one of
/// those states, and every object satisfying `pred` in all of them is
/// present.
template <typename Pred>
bool IdsWithinStateMix(const std::vector<OracleState>& states, uint64_t e0,
                       uint64_t e1, const std::vector<ObjectId>& got,
                       Pred pred) {
  if (e0 > e1 || e1 >= states.size()) return false;
  if (!std::is_sorted(got.begin(), got.end()) ||
      std::adjacent_find(got.begin(), got.end()) != got.end()) {
    return false;
  }
  auto live_in_all = [&](ObjectId oid) {
    for (uint64_t k = e0; k <= e1; ++k) {
      if (states[k].count(oid) == 0) return false;
    }
    return true;
  };
  for (ObjectId oid : got) {
    bool matched = false;
    for (uint64_t k = e0; k <= e1 && !matched; ++k) {
      auto it = states[k].find(oid);
      matched = it != states[k].end() && pred(it->second);
    }
    if (!matched) return false;
  }
  for (const auto& [oid, rect] : states[e0]) {
    if (pred(rect) && live_in_all(oid) &&
        !std::binary_search(got.begin(), got.end(), oid)) {
      return false;
    }
  }
  return true;
}

/// The kNN counterpart: every hit carries its exact distance in one of
/// the states [e0, e1], hits ascend by distance, and no object live in
/// all of them is closer than the worst hit without being returned.
bool KnnWithinStateMix(const std::vector<OracleState>& states,
                       const Point& p, size_t k,
                       const std::vector<std::pair<ObjectId, double>>& got,
                       uint64_t e0, uint64_t e1) {
  constexpr double kEps = 1e-9;
  if (e0 > e1 || e1 >= states.size() || got.size() > k) return false;
  std::vector<ObjectId> returned;
  double prev = -1.0;
  for (const auto& [oid, dist] : got) {
    bool matched = false;
    for (uint64_t s = e0; s <= e1 && !matched; ++s) {
      auto it = states[s].find(oid);
      matched = it != states[s].end() &&
                std::abs(it->second.DistanceTo(p) - dist) <= kEps;
    }
    if (!matched || dist + kEps < prev) return false;
    prev = dist;
    returned.push_back(oid);
  }
  std::sort(returned.begin(), returned.end());
  if (std::adjacent_find(returned.begin(), returned.end()) !=
      returned.end()) {
    return false;
  }
  size_t stable = 0;
  for (const auto& [oid, rect] : states[e0]) {
    bool live_in_all = true;
    for (uint64_t s = e0 + 1; s <= e1 && live_in_all; ++s) {
      live_in_all = states[s].count(oid) != 0;
    }
    if (!live_in_all) continue;
    ++stable;
    if (!got.empty() &&
        !std::binary_search(returned.begin(), returned.end(), oid) &&
        rect.DistanceTo(p) + kEps < got.back().second) {
      return false;
    }
  }
  return got.size() >= std::min(k, stable);
}

/// Key paths inside the STATS reply's "engine" object ("io.page_reads",
/// "shards.objects", ...), each once however many shards report it.
std::set<std::string> EngineKeys(const std::string& json) {
  std::set<std::string> keys;
  const std::string marker = "\"engine\":";
  size_t i = json.find(marker);
  if (i == std::string::npos) return keys;
  i += marker.size();
  std::vector<std::string> open;  // the key that opened each container
  std::string pending;            // the key awaiting its value
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      const size_t end = json.find('"', i + 1);
      const std::string str = json.substr(i + 1, end - i - 1);
      i = end;
      if (i + 1 < json.size() && json[i + 1] == ':') {
        std::string path;
        for (size_t d = 1; d < open.size(); ++d) {
          if (!open[d].empty()) path += open[d] + ".";
        }
        keys.insert(path + str);
        pending = str;
      }
    } else if (c == '{' || c == '[') {
      open.push_back(pending);
      pending.clear();
    } else if (c == '}' || c == ']') {
      open.pop_back();
      if (open.empty()) break;
    } else if (c == ',') {
      pending.clear();
    }
  }
  return keys;
}

/// The DB layouts the server's query path runs over: one shard (the
/// default) and four shards.
struct DbLayout {
  uint32_t shards;
  const char* name;
};
constexpr DbLayout kLayouts[] = {{1, "1 shard"}, {4, "4 shards"}};

/// In-memory DB of `layout` + a server with test-friendly defaults.
struct TestServer {
  std::unique_ptr<DB> db;
  std::unique_ptr<Server> server;

  explicit TestServer(ServerOptions opt = {}, size_t pool_pages = 256,
                      DbLayout layout = kLayouts[0]) {
    DBOptions dopt;
    dopt.page_size = 512;
    dopt.cache_pages = pool_pages;
    dopt.index.data = DecomposeOptions::SizeBound(8);
    dopt.shards = layout.shards;
    db = DB::Open("", dopt).value();
    opt.idle_timeout_ms = opt.idle_timeout_ms == 30000 ? 0 : opt.idle_timeout_ms;
    server = std::make_unique<Server>(db.get(), opt);
    const Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  Client Connect() {
    auto c = Client::Connect("tcp://127.0.0.1:" +
                             std::to_string(server->port()));
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  }
};

void RequestReplyCycle(DbLayout layout) {
  TestServer ts({}, 256, layout);
  Client client = ts.Connect();

  EXPECT_TRUE(client.Ping().ok());

  WriteBatch batch;
  batch.Insert(Rect{0.1, 0.1, 0.3, 0.3});
  batch.Insert(Rect{0.6, 0.6, 0.8, 0.8});
  auto applied = client.Apply(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->inserted, (std::vector<ObjectId>{0, 1}));
  EXPECT_EQ(applied->epoch_after, 1u);

  auto window = client.Window(Rect{0.0, 0.0, 0.5, 0.5});
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(window->ids, (std::vector<ObjectId>{0}));
  EXPECT_EQ(window->epoch_before, 1u);
  EXPECT_EQ(window->epoch_after, 1u);

  auto point = client.Point(Point{0.7, 0.7});
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->ids, (std::vector<ObjectId>{1}));

  auto nn = client.Nearest(Point{0.2, 0.2}, 2);
  ASSERT_TRUE(nn.ok());
  ASSERT_EQ(nn->hits.size(), 2u);
  EXPECT_EQ(nn->hits[0].first, 0u);

  WriteBatch erase;
  erase.Erase(0);
  ASSERT_TRUE(client.Apply(erase).ok());
  auto after = client.Window(Rect{0.0, 0.0, 0.5, 0.5});
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->ids.empty());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  // Sanity, not schema: the snapshot mentions the op we just ran.
  EXPECT_NE(stats.value().find("\"window\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"write_epoch\":2"), std::string::npos);
}

TEST(NetServer, BasicRequestReplyCycle) {
  for (const DbLayout& layout : kLayouts) {
    SCOPED_TRACE(layout.name);
    RequestReplyCycle(layout);
  }
}

// STATS has one engine layout: a 1-shard and a 4-shard server report
// the same key set (aggregates,
// snapshots, per-shard array, summed io).
TEST(NetServer, StatsEngineKeysMatchAcrossShardCounts) {
  std::vector<std::set<std::string>> keys;
  for (const DbLayout& layout : kLayouts) {
    SCOPED_TRACE(layout.name);
    TestServer ts({}, 256, layout);
    Client client = ts.Connect();
    WriteBatch batch;
    batch.Insert(Rect{0.1, 0.1, 0.9, 0.9});
    ASSERT_TRUE(client.Apply(batch).ok());
    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    keys.push_back(EngineKeys(stats.value()));
    EXPECT_NE(stats.value().find("\"shard_count\":" +
                                 std::to_string(layout.shards)),
              std::string::npos);
  }
  for (const char* key : {"objects", "write_epoch", "shard_count",
                          "snapshots.pins_taken", "shards.index_entries",
                          "io.page_reads"}) {
    EXPECT_EQ(keys[0].count(key), 1u) << key;
  }
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_EQ(keys[0], keys[i]) << kLayouts[i].name;
  }
}

TEST(NetServer, UnixSocketRoundTrip) {
  const std::string path =
      "/tmp/zdb_net_test_" + std::to_string(::getpid()) + ".sock";
  ServerOptions opt;
  opt.tcp = false;
  opt.unix_path = path;
  TestServer ts(opt);

  auto c = Client::Connect("unix://" + path);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  Client client = std::move(c).value();
  EXPECT_TRUE(client.Ping().ok());
  WriteBatch batch;
  batch.Insert(Rect{0.4, 0.4, 0.6, 0.6});
  ASSERT_TRUE(client.Apply(batch).ok());
  auto hits = client.Point(Point{0.5, 0.5});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->ids, (std::vector<ObjectId>{0}));

  ts.server->Stop();
  ::unlink(path.c_str());
}

// A NaN or infinite point in a POINT or KNN frame gets a typed
// InvalidArgument reply and leaves the connection usable. A KNN frame
// that never finished would hold its worker and block Stop(), so the
// test ends with Stop().
TEST(NetServer, NonFinitePointsGetInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const DbLayout& layout : kLayouts) {
    SCOPED_TRACE(layout.name);
    TestServer ts({}, 256, layout);
    Client client = ts.Connect();
    WriteBatch batch;
    batch.Insert(Rect{0.4, 0.4, 0.6, 0.6});
    ASSERT_TRUE(client.Apply(batch).ok());
    for (const Point& p : {Point{nan, 0.5}, Point{inf, 0.5},
                           Point{0.5, -inf}}) {
      EXPECT_TRUE(client.Nearest(p, 3).status().IsInvalidArgument());
      EXPECT_TRUE(client.Point(p).status().IsInvalidArgument());
    }
    auto nn = client.Nearest(Point{0.5, 0.5}, 3);
    ASSERT_TRUE(nn.ok()) << nn.status().ToString();
    EXPECT_EQ(nn->hits.size(), 1u);
    ts.server->Stop();
  }
}

// The remote twin of stress_mixed_test: one writer client steps the
// DB through deterministic batches while reader clients hammer
// window/point/kNN queries over their own connections.
//
// On one shard every reply's epoch bracket [e0, e1] must contain one
// batch boundary whose brute-force oracle answer matches exactly — a
// partially visible batch matches none and fails — and every query
// below the parallel-window threshold names the one epoch it answered
// (e0 == e1): the epoch it pinned. On several shards each shard answers
// from its own pinned state, so a reply must be a per-shard mix of the
// bracket's states (see ShardedLast); the final quiescent state must
// match exactly.
void ConcurrentMixedTraffic(DbLayout layout, uint64_t seed) {
  const uint32_t shards = layout.shards;

  constexpr size_t kInitial = 200;
  constexpr size_t kBatches = 10;
  constexpr size_t kInserts = 16;
  constexpr size_t kErases = 10;
  constexpr size_t kKnnK = 4;

  // Deterministic workload + per-epoch oracle states.
  DataGenOptions dg;
  dg.distribution = Distribution::kClusters;
  dg.seed = seed;
  const auto initial = GenerateData(kInitial, dg);

  std::vector<OracleState> states;
  OracleState state;
  for (size_t i = 0; i < initial.size(); ++i) {
    state[static_cast<ObjectId>(i)] = initial[i];
  }
  states.push_back(state);

  DataGenOptions dg2;
  dg2.distribution = Distribution::kUniformLarge;
  dg2.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  const auto extra = GenerateData(kBatches * kInserts, dg2);

  Random rng(seed + 1);
  std::vector<WriteBatch> batches;
  std::vector<std::vector<ObjectId>> expected_oids;
  ObjectId next_oid = static_cast<ObjectId>(initial.size());
  for (size_t b = 0; b < kBatches; ++b) {
    WriteBatch batch;
    std::vector<ObjectId> oids;
    std::vector<ObjectId> live;
    for (const auto& [oid, rect] : state) live.push_back(oid);
    for (size_t e = 0; e < kErases && !live.empty(); ++e) {
      const size_t pick = rng.Uniform(live.size());
      batch.Erase(live[pick]);
      state.erase(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    for (size_t i = 0; i < kInserts; ++i) {
      const Rect& r = extra[b * kInserts + i];
      batch.Insert(r);
      state[next_oid] = r;
      oids.push_back(next_oid);
      ++next_oid;
    }
    batches.push_back(std::move(batch));
    expected_oids.push_back(std::move(oids));
    states.push_back(state);
  }

  QueryGenOptions qopt;
  qopt.seed = seed + 2;
  auto windows = GenerateWindows(10, 0.01, qopt);
  // Big windows cross the parallel_window_area threshold, so the
  // executor's intra-query path is exercised over the wire too.
  const auto big =
      GenerateWindows(3, 0.08, QueryGenOptions{.seed = seed + 3});
  windows.insert(windows.end(), big.begin(), big.end());
  const auto points = GeneratePoints(8, seed + 4);
  const auto knn_points = GeneratePoints(4, seed + 5);

  ServerOptions opt;
  opt.workers = 6;
  opt.queue_capacity = 256;  // roomy: this test measures correctness
  TestServer ts(opt, 256, layout);
  for (size_t i = 0; i < initial.size(); ++i) {
    ASSERT_EQ(ts.db->Insert(initial[i]).value(), static_cast<ObjectId>(i));
  }
  const uint64_t base = ts.db->write_epoch();

  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> reads_done{0};

  auto check = [&](bool ok, const char* what, size_t q) {
    if (!ok) {
      ++failures;
      ADD_FAILURE() << what << " " << q
                    << ": reply matches no epoch state";
    }
  };
  // A single-shard query below the parallel threshold answers from one
  // epoch and must say so.
  auto check_pinned = [&](uint64_t e0, uint64_t e1, const char* what,
                          size_t q) {
    if (shards == 1 && e0 != e1) {
      ++failures;
      ADD_FAILURE() << what << " " << q << ": 1-shard reply names epochs "
                    << e0 << ".." << e1;
    }
  };

  std::thread writer([&] {
    Client client = ts.Connect();
    for (size_t b = 0; b < batches.size(); ++b) {
      auto reply = client.Apply(batches[b]);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(reply->inserted, expected_oids[b]) << "batch " << b;
      EXPECT_EQ(reply->epoch_after, base + b + 1);
      // A short stagger so readers sample several epochs per batch.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Client client = ts.Connect();
      size_t round = 0;
      while (!writer_done.load() || round == 0) {
        for (size_t q = 0; q < windows.size(); ++q) {
          auto reply = client.Window(windows[q]);
          ASSERT_TRUE(reply.ok()) << reply.status().ToString();
          const uint64_t e0 = reply->epoch_before - base;
          const uint64_t e1 = reply->epoch_after - base;
          check(shards == 1
                    ? MatchesWindowInRange(states, windows[q], reply->ids,
                                           e0, e1)
                    : IdsWithinStateMix(states, e0, ShardedLast(states, e1),
                                        reply->ids,
                                        [&](const Rect& rect) {
                                          return rect.Intersects(windows[q]);
                                        }),
                "window", q);
          if (windows[q].area() < opt.parallel_window_area) {
            check_pinned(e0, e1, "window", q);
          }
          ++reads_done;
        }
        if (r % 2 == 0) {
          for (size_t q = 0; q < points.size(); ++q) {
            auto reply = client.Point(points[q]);
            ASSERT_TRUE(reply.ok()) << reply.status().ToString();
            const uint64_t e0 = reply->epoch_before - base;
            const uint64_t e1 = reply->epoch_after - base;
            check(shards == 1
                      ? MatchesPointInRange(states, points[q], reply->ids,
                                            e0, e1)
                      : IdsWithinStateMix(states, e0,
                                          ShardedLast(states, e1),
                                          reply->ids,
                                          [&](const Rect& rect) {
                                            return rect.Contains(points[q]);
                                          }),
                  "point", q);
            check_pinned(e0, e1, "point", q);
            ++reads_done;
          }
        } else {
          for (size_t q = 0; q < knn_points.size(); ++q) {
            auto reply = client.Nearest(knn_points[q], kKnnK);
            ASSERT_TRUE(reply.ok()) << reply.status().ToString();
            const uint64_t e0 = reply->epoch_before - base;
            const uint64_t e1 = reply->epoch_after - base;
            check(shards == 1
                      ? MatchesKnnInRange(states, knn_points[q], kKnnK,
                                          reply->hits, e0, e1)
                      : KnnWithinStateMix(states, knn_points[q], kKnnK,
                                          reply->hits, e0,
                                          ShardedLast(states, e1)),
                  "knn", q);
            check_pinned(e0, e1, "knn", q);
            ++reads_done;
          }
        }
        ++round;
      }
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(reads_done.load(), 4u * (windows.size() + 1));

  // The final state must match the last oracle state exactly.
  Client client = ts.Connect();
  auto all = client.Window(Rect{0.0, 0.0, 1.0, 1.0});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->ids, ExpectedWindow(states.back(), Rect{0, 0, 1, 1}));
}

TEST(NetServer, ConcurrentMixedTrafficMatchesOracle) {
  const uint64_t seed = SeedFromEnv(kSeedEnv, kDefaultSeed);
  SCOPED_TRACE(SeedReplayHint(kSeedEnv, seed));
  for (const DbLayout& layout : kLayouts) {
    SCOPED_TRACE(layout.name);
    ConcurrentMixedTraffic(layout, seed);
  }
}

/// Records the epoch of every batch a DB reports to its commit sink.
struct EpochSink : CommitSink {
  void OnCommit(uint64_t epoch, const WriteBatch&) override {
    epochs.push_back(epoch);
  }
  std::vector<uint64_t> epochs;  // written under the DB's write mutex
};

// A one-shard DB's epochs are its engine's. A group rollback moves the
// engine epoch twice (the failed batch's publish, then the durable
// state re-published) while the DB counts one batch, so from then on
// a DB batch counter would name the wrong epochs. APPLY's
// epoch_after, the commit sink's epoch and DB::write_epoch() must all
// be the engine's, and a query must still name the one epoch it pinned.
TEST(NetServer, OneShardEpochsAreTheEnginesAfterARollback) {
  auto file = std::make_unique<FaultFile>();
  FaultFile* faults = file.get();
  DBOptions eopt;
  eopt.page_size = 512;
  eopt.index.data = DecomposeOptions::SizeBound(8);
  std::vector<std::unique_ptr<shard::ShardEngine>> engines;
  engines.push_back(shard::ShardEngine::Open(std::move(file),
                                             std::make_unique<MemFile>(), eopt)
                        .value());
  auto db = DB::Open(std::move(engines)).value();
  EpochSink sink;
  ASSERT_TRUE(db->SetCommitSink(&sink).ok());
  ServerOptions sopt;
  sopt.idle_timeout_ms = 0;
  Server server(db.get(), sopt);
  ASSERT_TRUE(server.Start().ok());
  Client client =
      Client::Connect("tcp://127.0.0.1:" + std::to_string(server.port()))
          .value();
  SpatialIndex* engine = db->index();

  auto insert = [&](double x) {
    WriteBatch batch;
    batch.Insert(Rect{x, x, x + 0.05, x + 0.05});
    return client.Apply(batch);
  };
  ASSERT_TRUE(insert(0.1).ok());
  ASSERT_TRUE(insert(0.2).ok());
  // The pipeline acks a group durable before it re-arms the journal,
  // and the re-arm reads page 0 of this file: wait for it, or the fault
  // below can hit the re-arm instead of the next group. The pipeline
  // holds the engine's commit mutex until the re-arm is done, and an
  // empty batch takes that mutex and publishes nothing.
  ASSERT_TRUE(engine->ApplyBatch(WriteBatch{}, Durability::kPublished).ok());

  // The next file operation, the group's page write-back, fails once:
  // the group rolls back and the rollback's own restore succeeds.
  faults->set_budget(0, /*transient=*/true);
  auto failed = insert(0.3);
  faults->set_budget(-1);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find("injected"), std::string::npos)
      << failed.status().ToString();
  EXPECT_EQ(engine->rollbacks(), 1u);
  EXPECT_EQ(db->write_epoch(), engine->write_epoch());
  EXPECT_EQ(db->object_count(), 2u);

  auto applied = insert(0.4);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->epoch_after, engine->write_epoch());
  EXPECT_EQ(db->write_epoch(), engine->write_epoch());
  ASSERT_FALSE(sink.epochs.empty());
  EXPECT_EQ(sink.epochs.back(), engine->write_epoch());
  // The rolled-back insert's oid is given out again, as the engine's
  // own cursor would.
  EXPECT_EQ(applied->inserted, std::vector<ObjectId>{2});
  EXPECT_EQ(db->object_count(), 3u);

  auto window = client.Window(Rect{0, 0, 1, 1});
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(window->ids, (std::vector<ObjectId>{0, 1, 2}));
  EXPECT_EQ(window->epoch_before, engine->write_epoch());
  EXPECT_EQ(window->epoch_after, window->epoch_before);
  auto point = client.Point(Point{0.42, 0.42});
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->ids, std::vector<ObjectId>{2});
  EXPECT_EQ(point->epoch_before, engine->write_epoch());
  EXPECT_EQ(point->epoch_after, point->epoch_before);
  auto nn = client.Nearest(Point{0.0, 0.0}, 2);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->epoch_before, engine->write_epoch());
  EXPECT_EQ(nn->epoch_after, nn->epoch_before);

  server.Stop();
  ASSERT_TRUE(db->SetCommitSink(nullptr).ok());
}

// Graceful shutdown: a request in flight when Stop() begins completes
// and its reply is delivered; frames arriving mid-drain get a typed
// SHUTTING_DOWN; connects after Stop() are refused.
TEST(NetServer, GracefulShutdownDrainsInFlight) {
  ServerOptions opt;
  opt.workers = 2;
  TestServer ts(opt, /*pool_pages=*/16);
  {
    WriteBatch batch;
    DataGenOptions dg;
    dg.seed = 7;
    for (const Rect& r : GenerateData(500, dg)) batch.Insert(r);
    ASSERT_TRUE(ts.db->Apply(batch).ok());
  }
  // Cache misses now stall: a full-square window takes long enough for
  // Stop() to land while it is executing.
  ts.db->set_simulated_read_latency_us(2000);

  Client slow = ts.Connect();
  Client late = ts.Connect();
  const uint16_t port = ts.server->port();

  std::atomic<bool> got_reply{false};
  std::thread query([&] {
    auto reply = slow.Window(Rect{0.0, 0.0, 1.0, 1.0});
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply.ok()) {
      EXPECT_EQ(reply->ids.size(), 500u);
      got_reply.store(true);
    }
  });

  // Let the slow query get admitted, then start the drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread stopper([&] { ts.server->Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // A frame arriving while draining is answered, with SHUTTING_DOWN.
  Status s = late.Ping();
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();

  query.join();
  stopper.join();
  EXPECT_TRUE(got_reply.load());
  EXPECT_GE(ts.server->counters().shutdown_rejected.load(), 1u);

  // New connections are refused once the listener is down. (Connect may
  // also succeed-then-EOF on some kernels; accept no served requests.)
  auto refused = Client::Connect("tcp://127.0.0.1:" + std::to_string(port));
  if (refused.ok()) {
    EXPECT_FALSE(refused.value().Ping().ok());
  }
}

// Backpressure: with one worker, a one-slot queue and slow page reads,
// a burst of pipelined frames must shed load with typed BUSY replies —
// and every frame still gets exactly one reply.
TEST(NetServer, BusyBackpressureUnderSaturation) {
  ServerOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 1;
  TestServer ts(opt, /*pool_pages=*/16);
  {
    WriteBatch batch;
    DataGenOptions dg;
    dg.seed = 11;
    for (const Rect& r : GenerateData(400, dg)) batch.Insert(r);
    ASSERT_TRUE(ts.db->Apply(batch).ok());
  }
  ts.db->set_simulated_read_latency_us(1000);

  auto sock = TcpConnect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(sock.ok());

  constexpr int kBurst = 24;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += BuildFrame(Opcode::kWindow, 0, 1000 + i,
                        EncodeWindowRequest(Rect{0.0, 0.0, 1.0, 1.0}));
  }
  ASSERT_TRUE(WriteFully(sock.value(), burst.data(), burst.size()).ok());

  FrameAssembler assembler;
  char buf[16 * 1024];
  int ok_replies = 0, busy_replies = 0, replies = 0;
  while (replies < kBurst) {
    Frame f;
    WireError err;
    FrameHeader eh;
    const auto next = assembler.Poll(&f, &err, &eh);
    if (next == FrameAssembler::Next::kNeedMore) {
      auto n = ReadSome(sock.value(), buf, sizeof(buf));
      ASSERT_TRUE(n.ok());
      ASSERT_GT(n.value(), 0u) << "server closed before all replies";
      assembler.Feed(buf, n.value());
      continue;
    }
    ASSERT_EQ(next, FrameAssembler::Next::kFrame);
    std::string_view body;
    std::string message;
    const WireError status = ParseReplyStatus(f.payload, &body, &message);
    if (status == WireError::kOk) {
      ++ok_replies;
    } else {
      ASSERT_EQ(status, WireError::kBusy) << WireErrorName(status);
      ++busy_replies;
    }
    ++replies;
  }

  // The first frame always finds an empty queue, so at least one
  // succeeds; the burst outran a 1-deep queue, so most were shed.
  EXPECT_GE(ok_replies, 1);
  EXPECT_GT(busy_replies, 0);
  EXPECT_EQ(ok_replies + busy_replies, kBurst);
  EXPECT_EQ(ts.server->counters().busy_rejected.load(),
            static_cast<uint64_t>(busy_replies));
}

/// A raw connection for hand-built frames: RoundTrip sends one frame
/// and returns the reply's wire status and request id ({kOk, 0} if the
/// server closed instead of replying).
class RawConnection {
 public:
  explicit RawConnection(uint16_t port) {
    auto s = TcpConnect("127.0.0.1", port);
    EXPECT_TRUE(s.ok());
    if (s.ok()) sock_ = std::move(s.value());
  }

  std::pair<WireError, uint64_t> RoundTrip(const std::string& frame) {
    EXPECT_TRUE(WriteFully(sock_, frame.data(), frame.size()).ok());
    char buf[4096];
    for (;;) {
      Frame f;
      WireError err;
      FrameHeader eh;
      const auto next = assembler_.Poll(&f, &err, &eh);
      if (next == FrameAssembler::Next::kNeedMore) {
        auto n = ReadSome(sock_, buf, sizeof(buf));
        EXPECT_TRUE(n.ok());
        if (!n.ok() || n.value() == 0) return {WireError::kOk, 0};
        assembler_.Feed(buf, n.value());
        continue;
      }
      EXPECT_EQ(next, FrameAssembler::Next::kFrame);
      std::string_view body;
      std::string message;
      return {ParseReplyStatus(f.payload, &body, &message),
              f.header.request_id};
    }
  }

 private:
  Socket sock_;
  FrameAssembler assembler_;
};

// Payload-level garbage (malformed body, unknown opcode) draws a typed
// error but keeps the connection usable; stream-level garbage (bad
// magic) draws one error and then the connection closes.
TEST(NetServer, MalformedPayloadKeepsConnectionUsable) {
  TestServer ts;
  RawConnection conn(ts.server->port());

  // Truncated WINDOW payload: three doubles instead of four.
  std::string short_payload = EncodeWindowRequest(Rect{0, 0, 1, 1});
  short_payload.resize(24);
  auto [err1, id1] =
      conn.RoundTrip(BuildFrame(Opcode::kWindow, 0, 42, short_payload));
  EXPECT_EQ(err1, WireError::kMalformed);
  EXPECT_EQ(id1, 42u);

  // Unknown opcode 99: typed reply echoing the request id.
  auto [err2, id2] =
      conn.RoundTrip(BuildFrame(static_cast<Opcode>(99), 0, 43, {}));
  EXPECT_EQ(err2, WireError::kUnknownOpcode);
  EXPECT_EQ(id2, 43u);

  // A frame with the reply flag set is not a request.
  auto [err3, id3] =
      conn.RoundTrip(BuildFrame(Opcode::kPing, kFlagReply, 44, {}));
  EXPECT_EQ(err3, WireError::kMalformed);

  // The connection survived all three: a valid request still works.
  auto [err4, id4] = conn.RoundTrip(BuildFrame(Opcode::kPing, 0, 45, {}));
  EXPECT_EQ(err4, WireError::kOk);
  EXPECT_EQ(id4, 45u);
}

// Each request opcode has one payload layout. The shorter forms older
// protocol versions allowed — a query without its staleness bound, an
// APPLY without its durability byte — are malformed requests: a typed
// kMalformed reply, after which the same connection still serves.
TEST(NetServer, RequestWithoutItsTrailerIsMalformed) {
  TestServer ts;
  RawConnection conn(ts.server->port());
  WriteBatch batch;
  batch.Insert(Rect{0.1, 0.1, 0.2, 0.2});
  const struct {
    Opcode op;
    std::string payload;
    size_t trailer;
  } cases[] = {
      {Opcode::kWindow, EncodeWindowRequest(Rect{0, 0, 1, 1}), 8},
      {Opcode::kPoint, EncodePointRequest(Point{0.5, 0.5}), 8},
      {Opcode::kKnn, EncodeKnnRequest(Point{0.5, 0.5}, 3), 8},
      {Opcode::kApply, EncodeApplyRequest(batch), 1},
  };
  uint64_t id = 100;
  for (const auto& c : cases) {
    SCOPED_TRACE(OpcodeName(c.op));
    const std::string shorter =
        c.payload.substr(0, c.payload.size() - c.trailer);
    auto [err, rid] = conn.RoundTrip(BuildFrame(c.op, 0, ++id, shorter));
    EXPECT_EQ(err, WireError::kMalformed);
    EXPECT_EQ(rid, id);
    auto [ping_err, ping_id] =
        conn.RoundTrip(BuildFrame(Opcode::kPing, 0, ++id, {}));
    EXPECT_EQ(ping_err, WireError::kOk);
    EXPECT_EQ(ping_id, id);
  }
  // Nothing was applied by the malformed APPLY.
  EXPECT_EQ(ts.db->object_count(), 0u);
}

TEST(NetServer, BadMagicClosesConnection) {
  TestServer ts;
  auto sock = TcpConnect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(sock.ok());

  const std::string garbage(64, 'x');
  ASSERT_TRUE(WriteFully(sock.value(), garbage.data(), garbage.size()).ok());

  // One typed BAD_MAGIC error reply, then EOF.
  FrameAssembler assembler;
  char buf[4096];
  bool saw_error_reply = false;
  for (;;) {
    auto n = ReadSome(sock.value(), buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    if (n.value() == 0) break;  // closed
    assembler.Feed(buf, n.value());
    Frame f;
    WireError err;
    FrameHeader eh;
    if (assembler.Poll(&f, &err, &eh) == FrameAssembler::Next::kFrame) {
      std::string_view body;
      std::string message;
      EXPECT_EQ(ParseReplyStatus(f.payload, &body, &message),
                WireError::kBadMagic);
      saw_error_reply = true;
    }
  }
  EXPECT_TRUE(saw_error_reply);
  EXPECT_GE(ts.server->counters().framing_errors.load(), 1u);
}

TEST(NetServer, IdleConnectionsAreClosed) {
  ServerOptions opt;
  opt.idle_timeout_ms = 100;
  TestServer ts(opt);

  auto sock = TcpConnect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(sock.ok());

  // Say nothing; the server hangs up on us.
  char buf[64];
  auto n = ReadSome(sock.value(), buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);
  EXPECT_GE(ts.server->counters().idle_closed.load(), 1u);

  // An active client with the same timeout is not disturbed.
  Client client = ts.Connect();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(client.Ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
}

TEST(NetServer, ShutdownOpcodeSignalsDaemon) {
  TestServer ts;
  EXPECT_FALSE(ts.server->WaitForShutdownRequest(0));
  Client client = ts.Connect();
  ASSERT_TRUE(client.Shutdown().ok());
  EXPECT_TRUE(ts.server->WaitForShutdownRequest(5000));
  ts.server->Stop();
}

// ----------------------------------------------- accept-loop resilience

// Regression: the pre-epoll AcceptLoop exited permanently on the first
// non-EINTR accept failure — one ECONNABORTED (a client connecting and
// resetting before accept) silently killed the listener for the rest of
// the process lifetime. Transient failures must be retried and counted.
TEST(NetServer, AcceptSurvivesTransientErrors) {
  auto faults = std::make_shared<std::atomic<int>>(6);
  ServerOptions opt;
  opt.accept_fault_injection = [faults]() -> int {
    // First six accept attempts fail with a rotating transient errno.
    const int left = faults->fetch_sub(1);
    if (left <= 0) return 0;
    return (left % 2 == 0) ? ECONNABORTED : EPROTO;
  };
  TestServer ts(opt);

  // Every connect still succeeds: the listener outlived the failures.
  for (int i = 0; i < 3; ++i) {
    Client client = ts.Connect();
    EXPECT_TRUE(client.Ping().ok());
  }
  EXPECT_GE(ts.server->counters().accept_retries.load(), 6u);
  EXPECT_EQ(ts.server->counters().accept_backoffs.load(), 0u);
}

// Fd exhaustion (EMFILE) backs the listener off briefly instead of
// spinning or dying; the pending connection is accepted after the
// backoff expires.
TEST(NetServer, AcceptBacksOffOnFdExhaustion) {
  auto faults = std::make_shared<std::atomic<int>>(3);
  ServerOptions opt;
  opt.accept_fault_injection = [faults]() -> int {
    return faults->fetch_sub(1) > 0 ? EMFILE : 0;
  };
  TestServer ts(opt);

  const auto t0 = std::chrono::steady_clock::now();
  Client client = ts.Connect();  // rides out the injected EMFILE window
  EXPECT_TRUE(client.Ping().ok());
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_GE(ts.server->counters().accept_backoffs.load(), 1u);
  EXPECT_GE(ts.server->counters().accept_retries.load(), 1u);
  // Sanity: the backoff is short (10ms steps), not a hang.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

namespace {

size_t OpenFdCount() {
  size_t count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

size_t ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

}  // namespace

// Regression: the thread-per-connection server only reaped finished
// connection state on the NEXT accept — a burst of clients that then
// disconnected held their fds and thread handles until someone else
// connected. The epoll front end must release everything as soon as the
// peer goes away, with no further accepts.
TEST(NetServer, ClosedConnectionsReleaseResourcesWithoutNewAccepts) {
  TestServer ts;
  const size_t fds_before = OpenFdCount();

  constexpr int kClients = 32;
  {
    std::vector<Client> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(ts.Connect());
      EXPECT_TRUE(clients.back().Ping().ok());
    }
    EXPECT_EQ(ts.server->open_connections(),
              static_cast<uint64_t>(kClients));
  }  // all clients hang up here; nobody connects afterwards

  // The server notices the EOFs and releases every connection without a
  // subsequent accept poking the loop.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.server->open_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ts.server->open_connections(), 0u);

  // And the fds really are gone (small slack for unrelated runtime fds).
  const auto fd_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t fds_after = OpenFdCount();
  while (fds_after > fds_before + 2 &&
         std::chrono::steady_clock::now() < fd_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fds_after = OpenFdCount();
  }
  EXPECT_LE(fds_after, fds_before + 2);
}

// The whole point of the rewrite: connection count no longer implies
// thread count. A pile of concurrent connections is served by the same
// fixed set of net + worker threads.
TEST(NetServer, ThreadCountStaysFlatUnderManyConnections) {
  ServerOptions opt;
  opt.net_threads = 2;
  opt.workers = 4;
  TestServer ts(opt);

  const size_t threads_with_server = ProcessThreadCount();
  ASSERT_GT(threads_with_server, 0u);

  std::vector<Client> clients;
  clients.reserve(128);
  for (int i = 0; i < 128; ++i) {
    clients.push_back(ts.Connect());
  }
  for (auto& c : clients) EXPECT_TRUE(c.Ping().ok());

  // 128 live connections, zero additional threads.
  EXPECT_EQ(ProcessThreadCount(), threads_with_server);
}

// Pipelined flood with a tiny flow-control limit: the server pauses
// reading (read_pauses ticks up) instead of buffering unboundedly, and
// once the client finally drains, every reply arrives exactly once.
// (Per-connection reply ORDER is not part of the contract — pipelined
// requests execute on concurrent workers; clients match on request_id.)
TEST(NetServer, FlowControlPausesReadsAndDeliversEverything) {
  ServerOptions opt;
  opt.out_buffer_limit = 2048;  // a handful of PING replies
  TestServer ts(opt);

  auto sock = TcpConnect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(sock.ok());

  // Pipeline a large burst of PINGs without reading a single reply.
  constexpr uint64_t kPings = 2000;
  std::string burst;
  for (uint64_t i = 0; i < kPings; ++i) {
    burst += BuildFrame(Opcode::kPing, 0, i, {});
  }
  ASSERT_TRUE(WriteFully(sock.value(), burst.data(), burst.size()).ok());

  // Now drain: expect every request id exactly once.
  FrameAssembler assembler;
  std::vector<char> buf(64 * 1024);
  std::vector<bool> seen(kPings, false);
  uint64_t received = 0;
  while (received < kPings) {
    Frame f;
    WireError err;
    FrameHeader eh;
    const auto next = assembler.Poll(&f, &err, &eh);
    if (next == FrameAssembler::Next::kNeedMore) {
      auto n = ReadSome(sock.value(), buf.data(), buf.size());
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_GT(n.value(), 0u) << "server hung up mid-drain after "
                               << received << " replies";
      assembler.Feed(buf.data(), n.value());
      continue;
    }
    ASSERT_EQ(next, FrameAssembler::Next::kFrame);
    ASSERT_LT(f.header.request_id, kPings);
    ASSERT_FALSE(seen[f.header.request_id])
        << "duplicate reply for id " << f.header.request_id;
    seen[f.header.request_id] = true;
    ++received;
  }
  EXPECT_EQ(received, kPings);
  // With ~2000 pipelined replies against a 2KB cap, flow control must
  // have engaged at least once.
  EXPECT_GE(ts.server->counters().read_pauses.load(), 1u);
}

}  // namespace
}  // namespace net
}  // namespace zdb
