// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Sharded engine partitions (src/shard/): z-prefix routing exactness,
// scatter-gather queries vs the brute-force oracle at every epoch,
// N=1 vs N=4 byte-identical answers (DB-assigned oids match the
// single-engine append cursor), boundary-straddling replication, the
// on-disk manifest + reopen recovery, and a small concurrent churn
// suite (the TSan leg runs this file at N=4).
//
// Suites are named Shard* so the sanitizer matrix regex
// `thread.(...|Shard)` picks every suite in this file up.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "shard/manifest.h"
#include "shard/routing.h"
#include "oracle_util.h"
#include "zdb/db.h"

namespace zdb {
namespace {

using oracle::ExpectedPoint;
using oracle::ExpectedWindow;
using oracle::KnnMatchesState;
using oracle::MakeWorkload;
using oracle::OracleState;
using oracle::Workload;
using oracle::WorkloadShape;

/// A file-backed sharded DB leaves `path` (the manifest), the per-shard
/// files and every journal behind; remove them all.
struct TempShardedFile {
  TempShardedFile() {
    char tmpl[] = "/tmp/zdb_shard_XXXXXX";
    int fd = ::mkstemp(tmpl);
    EXPECT_GE(fd, 0);
    ::close(fd);
    path = tmpl;
  }
  ~TempShardedFile() {
    std::remove(path.c_str());
    std::remove((path + "-journal").c_str());
    for (uint32_t s = 0; s < shard::kMaxShards; ++s) {
      const std::string sp = shard::ShardFilePath(path, s);
      std::remove(sp.c_str());
      std::remove((sp + "-journal").c_str());
    }
  }
  std::string path;
};

DBOptions MemShardOptions(uint32_t shards) {
  DBOptions opt;
  opt.memory_journal = true;  // run the per-shard group-commit pipelines
  opt.shards = shards;
  return opt;
}

// ----------------------------------------------------------------- routing

TEST(ShardRouting, PrefixRegionsPartitionTheGrid) {
  const Rect world{0.0, 0.0, 1.0, 1.0};
  for (uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
    shard::ShardRouting routing(shards, world, /*grid_bits=*/6);
    // Every sampled cell center routes to exactly one shard, and the
    // cell's singleton rect masks to exactly that shard's bit.
    const SpaceMapper& m = routing.mapper();
    for (uint32_t gx = 0; gx < 64; gx += 3) {
      for (uint32_t gy = 0; gy < 64; gy += 3) {
        const uint32_t s = routing.ShardForCell(gx, gy);
        ASSERT_LT(s, shards);
        const Rect cell = m.ToWorld(GridRect{gx, gy, gx, gy});
        const Point center{(cell.xlo + cell.xhi) / 2,
                           (cell.ylo + cell.yhi) / 2};
        const uint64_t mask =
            routing.MaskForRect(Rect{center.x, center.y, center.x, center.y});
        ASSERT_EQ(mask, uint64_t{1} << s)
            << "cell (" << gx << "," << gy << ") shards=" << shards;
      }
    }
  }
}

TEST(ShardRouting, MasksWidenWithTheRect) {
  const Rect world{0.0, 0.0, 1.0, 1.0};
  shard::ShardRouting routing(4, world, 8);
  // The whole world touches every shard.
  EXPECT_EQ(routing.MaskForRect(world), routing.AllShardsMask());
  EXPECT_EQ(routing.AllShardsMask(), uint64_t{0xF});
  // A rect straddling the world center touches all four top-level
  // quadrant prefixes.
  EXPECT_EQ(routing.MaskForRect(Rect{0.49, 0.49, 0.51, 0.51}),
            routing.AllShardsMask());
  // A tiny corner rect touches exactly one.
  const uint64_t corner = routing.MaskForRect(Rect{0.01, 0.01, 0.02, 0.02});
  EXPECT_EQ(__builtin_popcountll(corner), 1);
}

TEST(ShardRouting, MinDistanceIsZeroInsideOwnedRegions) {
  shard::ShardRouting routing(4, Rect{0.0, 0.0, 1.0, 1.0}, 8);
  const Point p{0.1, 0.1};
  const SpaceMapper& m = routing.mapper();
  const uint32_t owner = routing.ShardForCell(m.ToGridX(p.x), m.ToGridY(p.y));
  EXPECT_EQ(routing.MinDistance(owner, p), 0.0);
  // Some other shard must be strictly farther from a corner point.
  double far = 0.0;
  for (uint32_t s = 0; s < 4; ++s) far = std::max(far, routing.MinDistance(s, p));
  EXPECT_GT(far, 0.0);
}

// ------------------------------------------------------------- open errors

TEST(ShardOpen, RejectsBadShardCounts) {
  DBOptions opt;
  opt.shards = 0;
  EXPECT_TRUE(DB::Open("", opt).status().IsInvalidArgument());
  opt.shards = shard::kMaxShards + 1;
  EXPECT_TRUE(DB::Open("", opt).status().IsInvalidArgument());
}

// The DB assigns oids on every shard count: a caller-chosen oid could
// name any slot (an oid near 2^32 sizes the store directory to it).
// Only ApplyReplicated takes oids, the leader's.
TEST(ShardOpen, RejectsPreassignedOidsInBatches) {
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    auto db = DB::Open("", MemShardOptions(shards)).value();
    WriteBatch batch;
    batch.InsertWithOid(Rect{0.1, 0.1, 0.2, 0.2}, 7);
    EXPECT_TRUE(db->Apply(batch).status().IsInvalidArgument());
    EXPECT_EQ(db->object_count(), 0u);
    EXPECT_EQ(db->write_epoch(), 0u);
  }
}

// A non-finite point has no grid cell and so no shard: the DB rejects it
// before routing, and an unsharded DB's index rejects it itself.
TEST(ShardOpen, NonFinitePointsAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    auto db = DB::Open("", MemShardOptions(shards)).value();
    WriteBatch batch;
    batch.Insert(Rect{0.1, 0.1, 0.9, 0.9});
    ASSERT_TRUE(db->Apply(batch).ok());
    for (const Point& p : {Point{nan, 0.5}, Point{inf, 0.5},
                           Point{0.5, -inf}}) {
      EXPECT_TRUE(db->Point(p).status().IsInvalidArgument());
      EXPECT_TRUE(db->Nearest(p, 3).status().IsInvalidArgument());
    }
    EXPECT_EQ(db->Nearest(Point{0.5, 0.5}, 3).value().size(), 1u);
  }
}

// ------------------------------------------------------------ oracle suite

/// Replays the deterministic mixed workload against an N=4 sharded DB,
/// checking every query type against the brute-force oracle after every
/// batch — quiescent states are exact under the scatter-gather contract.
TEST(ShardOracle, MatchesBruteForceAtEveryEpoch) {
  const Workload w = MakeWorkload(/*seed=*/17);
  auto db = DB::Open("", MemShardOptions(4)).value();

  WriteBatch init;
  for (const Rect& r : w.initial) init.Insert(r);
  auto init_ids = db->Apply(init);
  ASSERT_TRUE(init_ids.ok()) << init_ids.status().ToString();

  for (size_t b = 0; b <= w.batches.size(); ++b) {
    if (b > 0) {
      auto ids = db->Apply(w.batches[b - 1], Durability::kPublished);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      // DB-assigned oids are dense and deterministic: identical to
      // what a single-engine DB would have assigned.
      EXPECT_EQ(ids.value(), w.batch_oids[b - 1]);
    }
    const OracleState& st = w.states[b];
    EXPECT_EQ(db->object_count(), st.size());
    for (const Rect& win : w.windows) {
      auto got = db->Window(win);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), ExpectedWindow(st, win)) << "batch " << b;
    }
    for (const Point& p : w.points) {
      auto got = db->Point(p);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), ExpectedPoint(st, p)) << "batch " << b;
    }
    for (const Point& p : w.knn_points) {
      auto got = db->Nearest(p, 5);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(KnnMatchesState(st, p, 5, got.value())) << "batch " << b;
    }
  }
}

/// N=1 and N=4 DBs fed the same operations must answer every query
/// byte-identically (same oids, same order) — the acceptance bar for
/// the sharded facade.
TEST(ShardOracle, FourShardsAnswerIdenticallyToOne) {
  const Workload w = MakeWorkload(/*seed=*/23);
  auto one = DB::Open("", MemShardOptions(1)).value();
  auto four = DB::Open("", MemShardOptions(4)).value();

  WriteBatch init;
  for (const Rect& r : w.initial) init.Insert(r);
  ASSERT_TRUE(one->Apply(init).ok());
  ASSERT_TRUE(four->Apply(init).ok());

  for (size_t b = 0; b <= w.batches.size(); ++b) {
    if (b > 0) {
      auto r1 = one->Apply(w.batches[b - 1], Durability::kPublished);
      auto r4 = four->Apply(w.batches[b - 1], Durability::kPublished);
      ASSERT_TRUE(r1.ok());
      ASSERT_TRUE(r4.ok());
      EXPECT_EQ(r1.value(), r4.value());
    }
    for (const Rect& win : w.windows) {
      EXPECT_EQ(one->Window(win).value(), four->Window(win).value());
      EXPECT_EQ(one->Containment(win).value(),
                four->Containment(win).value());
    }
    for (const Point& p : w.points) {
      EXPECT_EQ(one->Point(p).value(), four->Point(p).value());
    }
    for (const Point& p : w.knn_points) {
      EXPECT_EQ(one->Nearest(p, 5).value(), four->Nearest(p, 5).value());
    }
  }
  // Same logical content, replicated storage: deduped object counts
  // agree, summed per-shard objects exceed them (replication).
  EXPECT_EQ(one->object_count(), four->object_count());
  uint64_t replicated = 0;
  for (const auto& c : four->ShardStats()) replicated += c.objects;
  EXPECT_GE(replicated, four->object_count());
}

// ---------------------------------------------------- boundary straddling

TEST(ShardBoundary, StraddlingObjectsAreReplicatedAndErasable) {
  auto db = DB::Open("", MemShardOptions(4)).value();
  // The center rect straddles all four top-level quadrants; the corner
  // rects live in exactly one shard each.
  const Rect center{0.45, 0.45, 0.55, 0.55};
  const std::vector<Rect> corners = {{0.1, 0.1, 0.15, 0.15},
                                     {0.8, 0.1, 0.85, 0.15},
                                     {0.1, 0.8, 0.15, 0.85},
                                     {0.8, 0.8, 0.85, 0.85}};
  const ObjectId center_id = db->Insert(center).value();
  std::vector<ObjectId> corner_ids;
  for (const Rect& r : corners) corner_ids.push_back(db->Insert(r).value());

  // The straddler is replicated into every shard...
  uint64_t shard_objects = 0;
  for (const auto& c : db->ShardStats()) {
    EXPECT_GE(c.objects, 1u);
    shard_objects += c.objects;
  }
  EXPECT_EQ(shard_objects, 4u + corners.size());
  // ...but gathers exactly once, from any overlapping window.
  for (const Rect& probe :
       {Rect{0.4, 0.4, 0.6, 0.6}, Rect{0.46, 0.46, 0.47, 0.47},
        Rect{0.0, 0.0, 1.0, 1.0}}) {
    auto hits = db->Window(probe).value();
    EXPECT_EQ(std::count(hits.begin(), hits.end(), center_id), 1)
        << probe.xlo << "," << probe.ylo;
  }
  auto at_center = db->Point(Point{0.5, 0.5}).value();
  EXPECT_EQ(at_center, std::vector<ObjectId>{center_id});

  // Erasing the straddler removes every replica.
  ASSERT_TRUE(db->Erase(center_id).ok());
  EXPECT_TRUE(db->Point(Point{0.5, 0.5}).value().empty());
  EXPECT_EQ(db->object_count(), corners.size());
  EXPECT_TRUE(db->Erase(center_id).IsNotFound());
}

TEST(ShardBoundary, StraddlingPolygonKeepsExactGeometryEverywhere) {
  auto db = DB::Open("", MemShardOptions(4)).value();
  // A triangle crossing the world center: replicated with full rings,
  // so point-in-polygon answers agree from every owning shard.
  const Polygon tri({{0.40, 0.45}, {0.60, 0.45}, {0.50, 0.62}});
  const ObjectId oid = db->InsertPolygon(tri).value();
  EXPECT_EQ(db->Point(Point{0.5, 0.5}).value(), std::vector<ObjectId>{oid});
  // Outside the ring but inside the MBR: refine must reject it in
  // whichever shard serves the point.
  EXPECT_TRUE(db->Point(Point{0.42, 0.60}).value().empty());
  ASSERT_TRUE(db->Erase(oid).ok());
  EXPECT_TRUE(db->Point(Point{0.5, 0.5}).value().empty());
}

// ------------------------------------------------------- persistence

TEST(ShardPersist, ManifestRoundTripAndRecovery) {
  TempShardedFile file;
  const Workload w = MakeWorkload(/*seed=*/31, WorkloadShape{
                                                  .initial_objects = 120,
                                                  .batches = 3,
                                              });
  std::vector<std::vector<ObjectId>> expected;
  ObjectId straddler;
  {
    DBOptions opt;
    opt.shards = 4;
    auto db = DB::Open(file.path, opt).value();
    ASSERT_EQ(db->shards(), 4u);
    WriteBatch init;
    for (const Rect& r : w.initial) init.Insert(r);
    ASSERT_TRUE(db->Apply(init).ok());
    for (const auto& batch : w.batches) ASSERT_TRUE(db->Apply(batch).ok());
    straddler = db->Insert(Rect{0.48, 0.48, 0.52, 0.52}).value();
    for (const Rect& win : w.windows) {
      expected.push_back(db->Window(win).value());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    // Reopen asking for ONE shard: the stored manifest wins and the DB
    // comes back sharded, with the routing state recovered by scan.
    DBOptions opt;
    opt.shards = 1;
    auto db = DB::Open(file.path, opt).value();
    EXPECT_EQ(db->shards(), 4u);
    EXPECT_EQ(db->object_count(), w.states.back().size() + 1);
    for (size_t i = 0; i < w.windows.size(); ++i) {
      EXPECT_EQ(db->Window(w.windows[i]).value(), expected[i]);
    }
    // Erase a boundary straddler AFTER recovery: the rebuilt per-oid
    // masks must fan the erase out to every replica.
    ASSERT_TRUE(db->Erase(straddler).ok());
    EXPECT_TRUE(db->Point(Point{0.5, 0.5}).value().empty());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    auto db = DB::Open(file.path).value();
    EXPECT_EQ(db->shards(), 4u);
    EXPECT_EQ(db->object_count(), w.states.back().size());
    EXPECT_TRUE(db->Point(Point{0.5, 0.5}).value().empty());
    // New inserts after two reopens continue the dense oid sequence.
    const ObjectId next = db->Insert(Rect{0.2, 0.2, 0.3, 0.3}).value();
    EXPECT_EQ(next, straddler + 1);
  }
}

TEST(ShardPersist, SingleShardFileStaysClassic) {
  TempShardedFile file;
  {
    DBOptions opt;  // shards = 1
    auto db = DB::Open(file.path, opt).value();
    ASSERT_EQ(db->shards(), 1u);
    ASSERT_TRUE(db->Insert(Rect{0.1, 0.1, 0.2, 0.2}).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    // A classic single file reopens single even if shards are requested:
    // the stored layout wins in both directions.
    DBOptions opt;
    opt.shards = 4;
    auto db = DB::Open(file.path, opt).value();
    EXPECT_EQ(db->shards(), 1u);
    EXPECT_EQ(db->object_count(), 1u);
  }
}

// ------------------------------------------------------------------ stats

// One body for every shard count: a one-shard DB's writes are routed
// too, so its per-shard batch counter moves like any other.
TEST(ShardStats, AggregateAndPerShardCountersAgree) {
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    auto db = DB::Open("", MemShardOptions(shards)).value();
    // The straddler is replicated to every shard; the bulk load is one
    // batch on each of them.
    ASSERT_TRUE(db->BulkLoad({Rect{0.45, 0.45, 0.55, 0.55}}).ok());
    WriteBatch batch;
    batch.Insert(Rect{0.1, 0.1, 0.12, 0.12});  // one shard
    ASSERT_TRUE(db->Apply(batch).ok());

    const DBStats s = db->Stats();
    EXPECT_EQ(s.shards, shards);
    EXPECT_EQ(s.objects, 2u);  // deduped, not per-replica
    EXPECT_TRUE(s.group_commit);
    EXPECT_EQ(s.write_epoch, db->write_epoch());

    const auto per_shard = db->ShardStats();
    ASSERT_EQ(per_shard.size(), shards);
    uint64_t entries = 0, replicas = 0, batches = 0;
    for (const auto& c : per_shard) {
      entries += c.index_entries;
      replicas += c.objects;
      batches += c.batches;
    }
    EXPECT_EQ(entries, s.index_entries);
    EXPECT_EQ(replicas, shards + 1);  // N replicas + 1 one-shard object
    EXPECT_EQ(batches, shards + 1);   // the load on N shards + the batch
  }
}

// A one-op DB::Erase reads the pages SpatialIndex::Erase reads on the
// same state: the batch's validation hands the record it fetched to the
// apply step instead of the erase fetching it a second time. The DBs are
// unjournaled, so no commit thread adds pool hits of its own.
TEST(ShardWrite, DbEraseMakesTheEnginesPoolHits) {
  auto build = [] {
    auto db = DB::Open("", DBOptions{}).value();
    Random rng(0xE5A);
    WriteBatch batch;
    for (int i = 0; i < 300; ++i) {
      const double x = rng.UniformDouble(0.0, 0.95);
      const double y = rng.UniformDouble(0.0, 0.95);
      batch.Insert(Rect{x, y, x + rng.UniformDouble(0.001, 0.05),
                        y + rng.UniformDouble(0.001, 0.05)});
    }
    EXPECT_TRUE(db->Apply(batch).ok());
    return db;
  };
  auto via_db = build();
  auto via_index = build();
  for (const ObjectId oid : {0u, 17u, 150u, 299u}) {
    SCOPED_TRACE(oid);
    const IoStats db_before = via_db->io_stats();
    ASSERT_TRUE(via_db->Erase(oid).ok());
    const IoStats db_cost = via_db->io_stats().Since(db_before);
    const IoStats ix_before = via_index->io_stats();
    ASSERT_TRUE(via_index->index()->Erase(oid).ok());
    const IoStats ix_cost = via_index->io_stats().Since(ix_before);
    EXPECT_GT(ix_cost.pool_hits.load(), 0u);
    EXPECT_EQ(db_cost.pool_hits.load(), ix_cost.pool_hits.load());
    EXPECT_EQ(db_cost.page_reads.load(), ix_cost.page_reads.load());
  }
}

// A well-formed leader stream names this replica's next oid for every
// insert. Any other oid is rejected before it can size the DB's
// owner masks or a shard store's page directory, and leaves the replica
// ready for the next valid record.
TEST(ShardOpen, ReplicatedInsertsMustTakeTheNextOid) {
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    auto db = DB::Open("", MemShardOptions(shards)).value();
    auto replicate = [&](ObjectId oid) {
      WriteBatch batch;
      batch.InsertWithOid(Rect{0.4, 0.4, 0.6, 0.6}, oid);
      return db->ApplyReplicated(batch);
    };
    EXPECT_TRUE(replicate(0x04000000).status().IsCorruption());
    EXPECT_TRUE(replicate(1).status().IsCorruption());
    EXPECT_EQ(db->object_count(), 0u);
    EXPECT_EQ(db->write_epoch(), 0u);

    auto r = replicate(0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), std::vector<ObjectId>{0});
    EXPECT_TRUE(replicate(0).status().IsCorruption());  // already taken
    WriteBatch two;
    two.InsertWithOid(Rect{0.1, 0.1, 0.2, 0.2}, 1);
    two.InsertWithOid(Rect{0.7, 0.7, 0.8, 0.8}, 3);  // skips oid 2
    EXPECT_TRUE(db->ApplyReplicated(two).status().IsCorruption());
    EXPECT_EQ(db->object_count(), 1u);
    EXPECT_EQ(replicate(1).value(), std::vector<ObjectId>{1});
    EXPECT_EQ(db->Window(Rect{0, 0, 1, 1}).value(),
              (std::vector<ObjectId>{0, 1}));
  }
}

// ------------------------------------------------------- concurrent churn

/// Concurrent writers vs scatter-gather readers on an N=4 sharded DB.
/// Readers can observe a batch applied on one shard and not another
/// (the documented cross-shard contract), so the only invariants checked
/// under churn are: queries succeed, results are live-or-ever-inserted
/// oids, and no oid appears twice in one answer (dedup holds under
/// concurrency). The quiescent end state is checked exactly.
TEST(ShardStressMixed, ConcurrentChurnKeepsDedupAndLiveness) {
  auto db = DB::Open("", MemShardOptions(4)).value();
  constexpr size_t kRounds = 30;
  constexpr size_t kPerRound = 8;

  std::atomic<bool> stop{false};
  Status writer_status;
  std::thread writer([&] {
    Random rng(7);
    for (size_t r = 0; r < kRounds; ++r) {
      WriteBatch batch;
      for (size_t i = 0; i < kPerRound; ++i) {
        const double x = rng.NextDouble() * 0.9;
        const double y = rng.NextDouble() * 0.9;
        // Mix of straddlers (big) and local rects (small).
        const double ext = (i % 3 == 0) ? 0.2 : 0.01;
        batch.Insert(Rect{x, y, std::min(1.0, x + ext),
                          std::min(1.0, y + ext)});
      }
      auto ids = db->Apply(batch, Durability::kPublished);
      if (!ids.ok()) {
        writer_status = ids.status();
        break;
      }
    }
    stop.store(true, std::memory_order_release);
  });

  Status reader_status;
  std::thread reader([&] {
    Random rng(11);
    while (!stop.load(std::memory_order_acquire)) {
      const double x = rng.NextDouble() * 0.8;
      const double y = rng.NextDouble() * 0.8;
      const Rect win{x, y, x + 0.2, y + 0.2};
      auto got = db->Window(win);
      if (!got.ok()) {
        reader_status = got.status();
        break;
      }
      // Sorted + unique (the gather dedup) and only ever-assigned oids.
      const auto& ids = got.value();
      for (size_t i = 0; i < ids.size(); ++i) {
        if (i > 0 && ids[i] <= ids[i - 1]) {
          reader_status = Status::Corruption("duplicate or unsorted oid");
          break;
        }
      }
      auto knn = db->Nearest(Point{x, y}, 3);
      if (!knn.ok()) {
        reader_status = knn.status();
        break;
      }
    }
  });

  writer.join();
  reader.join();
  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  ASSERT_TRUE(reader_status.ok()) << reader_status.ToString();

  // Quiescent exactness: every inserted object is found exactly once.
  EXPECT_EQ(db->object_count(), kRounds * kPerRound);
  auto all = db->Window(Rect{0.0, 0.0, 1.0, 1.0}).value();
  EXPECT_EQ(all.size(), kRounds * kPerRound);
  std::set<ObjectId> uniq(all.begin(), all.end());
  EXPECT_EQ(uniq.size(), all.size());
}

}  // namespace
}  // namespace zdb
