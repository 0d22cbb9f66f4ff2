// Copyright (c) zdb authors. Licensed under the MIT license.
//
// A3: google-benchmark microbenchmarks of the computational primitives —
// Morton coding, element algebra, BIGMIN, decomposition, B+-tree
// operations, buffer-pool page fetches, epoch pins and the wire codec
// of the served path. These establish
// that the experiment results above are I/O-shaped, not CPU-shaped.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "bench_util/runner.h"
#include "btree/btree.h"
#include "common/random.h"
#include "core/epoch.h"
#include "decompose/decompose.h"
#include "decompose/region.h"
#include "geom/clip.h"
#include "net/wire.h"
#include "storage/snapshot.h"
#include "transform/morton4.h"
#include "workload/datagen.h"
#include "workload/querygen.h"
#include "zdb/db.h"
#include "zorder/bigmin.h"
#include "zorder/morton.h"
#include "zorder/zkey.h"

namespace zdb {
namespace {

void BM_MortonEncode(benchmark::State& state) {
  Random rng(1);
  uint32_t x = static_cast<uint32_t>(rng.Uniform(1 << 16));
  uint32_t y = static_cast<uint32_t>(rng.Uniform(1 << 16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MortonEncode(x, y, 16));
    x = (x + 12345) & 0xffff;
    y = (y + 54321) & 0xffff;
  }
}
BENCHMARK(BM_MortonEncode);

void BM_MortonDecode(benchmark::State& state) {
  uint64_t z = 0x123456789abcdefULL & ((1ULL << 32) - 1);
  for (auto _ : state) {
    GridCoord x, y;
    MortonDecode(z, 16, &x, &y);
    benchmark::DoNotOptimize(x + y);
    z = (z + 7919) & ((1ULL << 32) - 1);
  }
}
BENCHMARK(BM_MortonDecode);

void BM_BigMin(benchmark::State& state) {
  const GridRect rect{1000, 2000, 5000, 6000};
  uint64_t z = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigMin(z, rect, 16));
    z = (z + 104729) & ((1ULL << 32) - 1);
  }
}
BENCHMARK(BM_BigMin);

void BM_Decompose(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  Random rng(2);
  std::vector<GridRect> rects;
  for (int i = 0; i < 256; ++i) {
    const GridCoord x = static_cast<GridCoord>(rng.Uniform(60000));
    const GridCoord y = static_cast<GridCoord>(rng.Uniform(60000));
    rects.push_back(GridRect{x, y, x + 500, y + 500});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Decompose(rects[i % rects.size()], 16, DecomposeOptions::SizeBound(k)));
    ++i;
  }
}
BENCHMARK(BM_Decompose)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_Morton4Encode(benchmark::State& state) {
  uint16_t c = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Morton4Encode(c, static_cast<uint16_t>(c + 1),
                                           static_cast<uint16_t>(c + 2),
                                           static_cast<uint16_t>(c + 3)));
    c = static_cast<uint16_t>(c + 7);
  }
}
BENCHMARK(BM_Morton4Encode);

void BM_PolygonClipArea(benchmark::State& state) {
  Random rng(5);
  std::vector<Point> ring;
  for (int i = 0; i < 8; ++i) {
    const double ang = 2 * 3.14159265358979 * i / 8;
    ring.push_back(Point{0.5 + 0.3 * std::cos(ang),
                         0.5 + 0.3 * std::sin(ang)});
  }
  const Polygon poly(ring);
  double x = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PolygonRectIntersectionArea(poly, Rect{x, 0.3, x + 0.2, 0.7}));
    x = 0.2 + std::fmod(x + 0.013, 0.4);
  }
}
BENCHMARK(BM_PolygonClipArea);

void BM_DecomposeRegionPolygon(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  std::vector<Point> ring;
  for (int i = 0; i < 8; ++i) {
    const double ang = 2 * 3.14159265358979 * i / 8;
    ring.push_back(Point{0.5 + 0.1 * std::cos(ang),
                         0.5 + 0.1 * std::sin(ang)});
  }
  const Polygon poly(ring);
  const PolygonRegion region(&poly);
  const SpaceMapper mapper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DecomposeRegion(region, mapper, DecomposeOptions::SizeBound(k)));
  }
}
BENCHMARK(BM_DecomposeRegionPolygon)->Arg(4)->Arg(16);

void BM_BTreeInsert(benchmark::State& state) {
  Env env = MakeEnv(4096, 256);
  auto tree = BTree::Create(env.pool.get()).value();
  Random rng(3);
  uint64_t i = 0;
  for (auto _ : state) {
    const ZElement e(rng.Next() & ((1ULL << 32) - 1), 32, 16);
    const std::string key = EncodeZKey(e, static_cast<ObjectId>(i++));
    benchmark::DoNotOptimize(tree->Insert(Slice(key), Slice("v")));
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeGet(benchmark::State& state) {
  Env env = MakeEnv(4096, 256);
  auto tree = BTree::Create(env.pool.get()).value();
  Random rng(4);
  std::vector<std::string> keys;
  for (int i = 0; i < 50000; ++i) {
    const ZElement e(rng.Next() & ((1ULL << 32) - 1), 32, 16);
    keys.push_back(EncodeZKey(e, static_cast<ObjectId>(i)));
    (void)tree->Insert(Slice(keys.back()), Slice("v"));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Get(Slice(keys[i % keys.size()])));
    ++i;
  }
}
BENCHMARK(BM_BTreeGet);

/// A pool holding 64 cached pages, as a warm query finds it.
std::vector<PageId> CachePages(BufferPool* pool) {
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(pool->New().value().id());
  return ids;
}

// The writer's page fetch: a pool hit pins and unpins.
void BM_PoolFetchHit(benchmark::State& state) {
  Env env = MakeEnv(4096, 256);
  const std::vector<PageId> ids = CachePages(env.pool.get());
  size_t i = 0;
  for (auto _ : state) {
    PageRef ref = env.pool->Fetch(ids[i++ % ids.size()]).value();
    benchmark::DoNotOptimize(ref.data());
  }
}
BENCHMARK(BM_PoolFetchHit);

/// Pages in BM_SnapshotFetch's pool: 64 MiB of 4 KiB pages, far larger
/// than L2, so a fetch of a random page pays the cache misses the served
/// read path pays.
constexpr size_t kFetchPages = 16384;

/// Warm pools for BM_SnapshotFetch, one per chain_hit setting, shared
/// by every thread of a run (built once, on first use). Every page is
/// resident.
struct FetchFixture {
  explicit FetchFixture(bool chain_hit) : env(MakeEnv(4096, kFetchPages)) {
    for (size_t i = 0; i < kFetchPages; ++i) {
      ids.push_back(env.pool->New().value().id());
    }
    if (chain_hit) {
      env.pool->ArmVersioning(2);
      for (PageId id : ids) {
        env.pool->Fetch(id).value().mutable_data()[0] ^= 1;
      }
    }
  }
  Env env;
  std::vector<PageId> ids;
};

FetchFixture& SharedFetchFixture(bool chain_hit) {
  static FetchFixture live(false);
  static FetchFixture chained(true);
  return chain_hit ? chained : live;
}

// A pinned reader's page fetch under an installed SnapshotView, of a
// random page of a 16k-page resident pool. With chain_hit=0 no writer
// has touched the pages, so the live frame is current and the chain is
// skipped; with chain_hit=1 an armed writer has mutated every page, so
// the fetch resolves to the version-chain image. The threaded runs
// fetch from one pool.
void BM_SnapshotFetch(benchmark::State& state) {
  FetchFixture& fx = SharedFetchFixture(state.range(0) != 0);
  BufferPool* pool = fx.env.pool.get();
  SnapshotView view;
  view.epoch = 1;
  view.versions = pool->versions();
  view.pool = pool;
  SnapshotScope scope(view);
  // A per-thread LCG: cheaper than the fetch it picks a page for.
  uint64_t x = 0x9E3779B97F4A7C15ull * (state.thread_index() + 1);
  for (auto _ : state) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    PageRef ref = pool->Fetch(fx.ids[(x >> 33) % fx.ids.size()]).value();
    benchmark::DoNotOptimize(ref.data()[0]);
  }
}
BENCHMARK(BM_SnapshotFetch)
    ->ArgName("chain_hit")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

// Pin and unpin one epoch, as every query does: with per-thread pin
// slots the threaded runs should cost per pin what one thread does.
void BM_EpochPinUnpin(benchmark::State& state) {
  static std::atomic<uint64_t> epoch{1};
  static PageVersions versions(4096);
  static EpochManager* mgr = [] {
    auto* m = new EpochManager(&epoch, &versions);  // never destroyed
    m->RecordMeta(1, SnapshotMeta{});
    return m;
  }();
  for (auto _ : state) {
    EpochPin pin = mgr->Pin();
    benchmark::DoNotOptimize(pin.epoch());
  }
}
BENCHMARK(BM_EpochPinUnpin)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

// The reply codec a served window pays per answer: encode a 1k-id
// reply into its payload, then split off the status byte and decode the
// id list, as the client does.
void BM_WireIdListReply(benchmark::State& state) {
  std::vector<ObjectId> ids(1000);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<ObjectId>(i * 7);
  }
  std::vector<ObjectId> decoded;
  for (auto _ : state) {
    const std::string payload = net::EncodeIdListReply(3, 4, ids);
    std::string_view body;
    std::string message;
    uint64_t e0 = 0, e1 = 0;
    const bool ok = net::ParseReplyStatus(payload, &body, &message) ==
                        net::WireError::kOk &&
                    net::DecodeIdListReplyBody(body, &e0, &e1, &decoded);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(state.iterations() * ids.size());
}
BENCHMARK(BM_WireIdListReply);

// One WINDOW request round trip through the codec: the client's payload
// (four doubles and the staleness bound) framed, reassembled and decoded
// as the server does.
void BM_WireWindowRequest(benchmark::State& state) {
  const Rect w{0.125, 0.25, 0.5, 0.75};
  uint64_t request_id = 0;
  for (auto _ : state) {
    const std::string frame = net::BuildFrame(
        net::Opcode::kWindow, 0, ++request_id, net::EncodeWindowRequest(w));
    net::FrameAssembler assembler;
    assembler.Feed(frame.data(), frame.size());
    net::Frame out;
    net::WireError err;
    net::FrameHeader err_header;
    Rect decoded;
    uint64_t max_lag = 0;
    const bool ok =
        assembler.Poll(&out, &err, &err_header) ==
            net::FrameAssembler::Next::kFrame &&
        net::DecodeWindowRequest(out.payload, &decoded, &max_lag);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_WireWindowRequest);

/// A bulk-loaded in-memory DB of 20k uniform small rectangles whose
/// pages all fit the pool, shared by the DB query benchmarks (built once,
/// on first use, never destroyed): the served read path, warm, without
/// the network.
DB* WarmDB() {
  static DB* db = [] {
    DBOptions opt;
    opt.cache_pages = 4096;
    DB* d = DB::Open("", opt).value().release();
    DataGenOptions gen;
    gen.seed = 1;
    (void)d->BulkLoad(GenerateData(20000, gen));
    return d;
  }();
  return db;
}

/// Runs `query(i)` once per input to warm the pool, then times it
/// round-robin over the inputs.
template <typename Query>
void RunWarm(benchmark::State& state, size_t inputs, const Query& query) {
  for (size_t i = 0; i < inputs; ++i) query(i);
  size_t i = 0;
  for (auto _ : state) query(i++ % inputs);
}

// DB::Window over 0.1%-area windows.
void BM_DBWindow(benchmark::State& state) {
  DB* db = WarmDB();
  const std::vector<Rect> windows =
      GenerateWindows(256, 0.001, QueryGenOptions{});
  RunWarm(state, windows.size(), [&](size_t i) {
    benchmark::DoNotOptimize(db->Window(windows[i]).value().size());
  });
}
BENCHMARK(BM_DBWindow);

void BM_DBPoint(benchmark::State& state) {
  DB* db = WarmDB();
  const std::vector<Point> points = GeneratePoints(256, 3);
  RunWarm(state, points.size(), [&](size_t i) {
    benchmark::DoNotOptimize(db->Point(points[i]).value().size());
  });
}
BENCHMARK(BM_DBPoint);

// DB::Nearest with k = 8, as zdb-bench's cold_scan asks.
void BM_DBNearest(benchmark::State& state) {
  DB* db = WarmDB();
  const std::vector<Point> points = GeneratePoints(256, 4);
  RunWarm(state, points.size(), [&](size_t i) {
    benchmark::DoNotOptimize(db->Nearest(points[i], 8).value().size());
  });
}
BENCHMARK(BM_DBNearest);

}  // namespace
}  // namespace zdb

BENCHMARK_MAIN();
