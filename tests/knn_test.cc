// Copyright (c) zdb authors. Licensed under the MIT license.
//
// kNN oracle suite: every answer of the best-first search is compared,
// byte for byte, with a brute-force ranking of the live objects by
// (exact distance, oid). Covered: rectangles (uniform-small, clusters)
// and polygons at data redundancy 1, 4 and 16, with k from 1 to past the
// live count; query points on cell and grid borders, on a rectangle's
// corner and outside the world on every side (objects overhanging or
// beyond the border included); an object one ulp outside its cell's
// world rectangle; erased objects; exact ties at the k-th
// distance; a 4-shard DB against a 1-shard DB; and pinned reads under a
// concurrent writer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/spatial_index.h"
#include "oracle_util.h"
#include "storage/pager.h"
#include "workload/datagen.h"
#include "workload/querygen.h"
#include "zdb/db.h"

namespace zdb {
namespace {

using Answer = std::vector<std::pair<ObjectId, double>>;

/// A live object as the oracle sees it: a rectangle, or a polygon.
struct Shape {
  Rect mbr;
  std::optional<Polygon> poly;

  double DistanceTo(const Point& p) const {
    return poly.has_value() ? poly->DistanceTo(p) : mbr.DistanceTo(p);
  }
};

using Live = std::map<ObjectId, Shape>;

/// The k nearest live objects by (exact distance, oid).
Answer BruteForce(const Live& live, const Point& p, size_t k) {
  Answer all;
  for (const auto& [oid, shape] : live) {
    all.emplace_back(oid, shape.DistanceTo(p));
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

Polygon Blob(Random* rng) {
  const double cx = rng->UniformDouble(0.08, 0.92);
  const double cy = rng->UniformDouble(0.08, 0.92);
  const double radius = rng->UniformDouble(0.005, 0.05);
  const int sides = 3 + static_cast<int>(rng->Uniform(6));
  std::vector<Point> ring;
  for (int i = 0; i < sides; ++i) {
    const double ang = 2 * 3.14159265358979 * i / sides;
    const double r = radius * rng->UniformDouble(0.4, 1.0);
    ring.push_back(Point{cx + r * std::cos(ang), cy + r * std::sin(ang)});
  }
  return Polygon(std::move(ring));
}

/// A bare index with a small pool (queries evict) and its oracle.
class Fixture {
 public:
  explicit Fixture(uint32_t redundancy)
      : pager_(Pager::OpenInMemory(4096)), pool_(pager_.get(), 64) {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(redundancy);
    index_ = SpatialIndex::Create(&pool_, opt).value();
  }

  ObjectId Insert(const Rect& r) {
    const ObjectId oid = index_->Insert(r).value();
    live_[oid] = Shape{r, std::nullopt};
    return oid;
  }

  ObjectId Insert(const Polygon& poly) {
    const ObjectId oid = index_->InsertPolygon(poly).value();
    live_[oid] = Shape{poly.Bounds(), poly};
    return oid;
  }

  void Erase(ObjectId oid) {
    ASSERT_TRUE(index_->Erase(oid).ok());
    live_.erase(oid);
  }

  /// Checks one query against the oracle; the trace names it on failure.
  void Check(const Point& p, size_t k) {
    auto got = index_->NearestNeighbors(p, k);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), BruteForce(live_, p, k))
        << "p=(" << p.x << ", " << p.y << ") k=" << k;
  }

  /// Every k of the suite at `p`: 1, 8, 100, the live count and past it.
  void CheckAllK(const Point& p) {
    for (size_t k : {size_t{1}, size_t{8}, size_t{100}, live_.size(),
                     live_.size() + 7}) {
      Check(p, k);
    }
  }

  SpatialIndex* index() { return index_.get(); }
  const Live& live() const { return live_; }

 private:
  std::unique_ptr<Pager> pager_;
  BufferPool pool_;
  std::unique_ptr<SpatialIndex> index_;
  Live live_;
};

// ------------------------------------------------------------- oracle

enum class Data { kUniformSmall, kClusters, kPolygons };

struct Case {
  Data data;
  uint32_t redundancy;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  const char* data = info.param.data == Data::kUniformSmall ? "uniform_small"
                     : info.param.data == Data::kClusters   ? "clusters"
                                                            : "polygons";
  return std::string(data) + "_k" + std::to_string(info.param.redundancy);
}

class KnnOracle : public testing::TestWithParam<Case> {};

TEST_P(KnnOracle, MatchesBruteForce) {
  const Case c = GetParam();
  Fixture f(c.redundancy);
  if (c.data == Data::kPolygons) {
    Random rng(77);
    for (int i = 0; i < 250; ++i) f.Insert(Blob(&rng));
  } else {
    DataGenOptions dg;
    dg.distribution = c.data == Data::kUniformSmall
                          ? Distribution::kUniformSmall
                          : Distribution::kClusters;
    dg.seed = 31;
    for (const Rect& r : GenerateData(500, dg)) f.Insert(r);
  }
  for (const Point& p : GeneratePoints(12, 32)) f.CheckAllK(p);
}

INSTANTIATE_TEST_SUITE_P(
    DataAndRedundancy, KnnOracle,
    testing::Values(Case{Data::kUniformSmall, 1}, Case{Data::kUniformSmall, 4},
                    Case{Data::kUniformSmall, 16}, Case{Data::kClusters, 1},
                    Case{Data::kClusters, 4}, Case{Data::kClusters, 16},
                    Case{Data::kPolygons, 1}, Case{Data::kPolygons, 4},
                    Case{Data::kPolygons, 16}),
    CaseName);

// ------------------------------------------------------ border points

TEST(KnnBorders, CellGridAndWorldBordersAndCorners) {
  for (uint32_t redundancy : {1u, 4u, 16u}) {
    SCOPED_TRACE("redundancy " + std::to_string(redundancy));
    Fixture f(redundancy);
    DataGenOptions dg;
    dg.distribution = Distribution::kUniformSmall;
    dg.seed = 41;
    const std::vector<Rect> data = GenerateData(300, dg);
    for (const Rect& r : data) f.Insert(r);
    Random rng(42);
    for (int i = 0; i < 40; ++i) f.Insert(Blob(&rng));
    // Rectangles overhanging the border or wholly beyond it: their
    // elements are clamped onto the border cells.
    for (const Rect& r :
         {Rect{0.95, 0.40, 1.20, 0.45}, Rect{-0.30, -0.20, -0.10, -0.05},
          Rect{0.30, 1.05, 0.35, 1.50}, Rect{-0.50, 0.50, -0.40, 0.60},
          Rect{0.60, -0.70, 0.65, 0.02}, Rect{1.10, 1.10, 1.30, 1.40}}) {
      f.Insert(r);
    }

    const double cell = std::ldexp(1.0, -static_cast<int>(kDefaultGridBits));
    std::vector<Point> points = {
        // Borders of large cells, and the world's corners and edges.
        {0.5, 0.5}, {0.25, 0.75}, {0.5, 0.125}, {0.0, 0.0}, {1.0, 1.0},
        {0.0, 0.5}, {1.0, 0.3}, {0.7, 0.0}, {0.2, 1.0},
        // Grid lines of the finest cells.
        {1234 * cell, 40000 * cell}, {65535 * cell, 7 * cell},
        // Outside the world, on every side and beyond every corner.
        {-0.3, 0.5}, {1.4, 0.5}, {0.5, -2.0}, {0.5, 3.0}, {-1.0, -1.0},
        {5.0, 5.0}, {-0.2, 1.7}, {1.5, -0.5}, {5.0, 0.5}};
    // Exactly on a rectangle's corners.
    for (size_t i = 0; i < data.size(); i += 37) {
      points.push_back({data[i].xlo, data[i].ylo});
      points.push_back({data[i].xhi, data[i].yhi});
    }
    for (const Point& p : points) f.CheckAllK(p);
  }
}

// In the world [-1, 2)², x = -0.49998474121093756 maps to grid column
// 10923, whose world rectangle starts one ulp to its right. A point
// object there, tied at distance d with a later object, must still win
// the tie: its cell's MINDIST would exceed d by that ulp without the
// slack, and the search would stop before refining it.
TEST(KnnBorders, PointMissedByItsCellsWorldRectByAnUlp) {
  auto pager = Pager::OpenInMemory(256);
  BufferPool pool(pager.get(), 32);
  SpatialIndexOptions opt;
  opt.world = Rect{-1.0, -1.0, 2.0, 2.0};
  auto index = SpatialIndex::Create(&pool, opt).value();
  const double x = -0.49998474121093756;
  const GridRect cell = index->mapper().ToGrid(Rect{x, 0.0, x, 0.0});
  ASSERT_GT(index->mapper().ToWorld(cell).xlo, x);

  const Point p{x - 0.25, 0.0};
  const double d = x - p.x;
  const ObjectId a = index->Insert(Rect{x, 0.0, x, 0.0}).value();
  const ObjectId c =
      index->Insert(Rect{p.x - 0.01, d, p.x + 0.01, d + 0.05}).value();
  const Answer got = index->NearestNeighbors(p, 1).value();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::pair<ObjectId, double>(a, d)));
  EXPECT_EQ(index->NearestNeighbors(p, 2).value(),
            (Answer{{a, d}, {c, d}}));
}

// ---------------------------------------------------------- erasures

TEST(KnnErase, ErasedObjectsAreNeverReported) {
  Fixture f(4);
  DataGenOptions dg;
  dg.distribution = Distribution::kClusters;
  dg.seed = 51;
  std::vector<ObjectId> oids;
  for (const Rect& r : GenerateData(400, dg)) oids.push_back(f.Insert(r));
  Random rng(52);
  for (int i = 0; i < 60; ++i) oids.push_back(f.Insert(Blob(&rng)));
  std::vector<ObjectId> erased;
  for (size_t i = 0; i < oids.size(); i += 3) {
    f.Erase(oids[i]);
    erased.push_back(oids[i]);
  }
  for (const Point& p : GeneratePoints(12, 53)) {
    f.CheckAllK(p);
    const Answer all = f.index()->NearestNeighbors(p, oids.size()).value();
    EXPECT_EQ(all.size(), f.live().size());
    for (const auto& [oid, dist] : all) {
      EXPECT_FALSE(std::binary_search(erased.begin(), erased.end(), oid))
          << "erased oid " << oid << " reported";
    }
  }
  // Erase everything: an index with no live object answers nothing.
  for (const auto& [oid, shape] : Live(f.live())) f.Erase(oid);
  EXPECT_TRUE(f.index()->NearestNeighbors(Point{0.5, 0.5}, 5).value().empty());
}

// -------------------------------------------------------------- ties

TEST(KnnTies, TiesAtTheKthDistanceComeBackInOidOrder) {
  for (uint32_t redundancy : {1u, 4u, 16u}) {
    SCOPED_TRACE("redundancy " + std::to_string(redundancy));
    Fixture f(redundancy);
    const Rect dup{0.9, 0.9, 0.92, 0.92};
    std::vector<ObjectId> dups;
    // Identical rectangles under oids interleaved with other objects.
    for (int i = 0; i < 6; ++i) {
      f.Insert(Rect{0.1 + 0.05 * i, 0.1, 0.12 + 0.05 * i, 0.12});
      dups.push_back(f.Insert(dup));
    }
    // Mirror images around (0.5, 0.5) at exactly representable distance
    // 0.25.
    const ObjectId right = f.Insert(Rect{0.75, 0.45, 0.8, 0.55});
    const ObjectId left = f.Insert(Rect{0.2, 0.45, 0.25, 0.55});
    for (size_t k = 1; k <= 10; ++k) {
      f.Check(Point{0.5, 0.5}, k);
      f.Check(Point{0.91, 0.91}, k);
    }

    const Answer three = f.index()->NearestNeighbors({0.91, 0.91}, 3).value();
    ASSERT_EQ(three.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(three[i], (std::pair<ObjectId, double>(dups[i], 0.0)));
    }
    const Answer first = f.index()->NearestNeighbors({0.5, 0.5}, 1).value();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].first, std::min(left, right));
    EXPECT_EQ(first[0].second, 0.25);
  }
}

// ------------------------------------------------------------ shards

TEST(KnnShards, FourShardsAnswerLikeOne) {
  DBOptions opt;
  opt.index.data = DecomposeOptions::SizeBound(4);
  auto one = DB::Open("", opt).value();
  opt.shards = 4;
  auto four = DB::Open("", opt).value();

  Live live;
  DataGenOptions dg;
  dg.distribution = Distribution::kClusters;
  dg.seed = 61;
  const std::vector<Rect> data = GenerateData(600, dg);
  ASSERT_TRUE(one->BulkLoad(data).ok());
  ASSERT_TRUE(four->BulkLoad(data).ok());
  for (ObjectId i = 0; i < data.size(); ++i) live[i] = Shape{data[i], {}};
  Random rng(62);
  for (int i = 0; i < 40; ++i) {
    const Polygon poly = Blob(&rng);
    const ObjectId a = one->InsertPolygon(poly).value();
    ASSERT_EQ(four->InsertPolygon(poly).value(), a);
    live[a] = Shape{poly.Bounds(), poly};
  }
  for (ObjectId oid = 0; oid < 600; oid += 5) {
    ASSERT_TRUE(one->Erase(oid).ok());
    ASSERT_TRUE(four->Erase(oid).ok());
    live.erase(oid);
  }

  std::vector<Point> points = GeneratePoints(16, 63);
  points.push_back({0.5, 0.5});
  points.push_back({-0.4, 0.3});
  points.push_back({1.2, 1.3});
  for (const Point& p : points) {
    for (size_t k : {size_t{1}, size_t{8}, size_t{100}, live.size() + 1}) {
      const Answer a = one->Nearest(p, k).value();
      EXPECT_EQ(a, four->Nearest(p, k).value())
          << "p=(" << p.x << ", " << p.y << ") k=" << k;
      EXPECT_EQ(a, BruteForce(live, p, k))
          << "p=(" << p.x << ", " << p.y << ") k=" << k;
    }
  }
}

// ------------------------------------------------- pinned under churn

// Readers pin the current epoch while a writer applies batches; every
// pinned kNN must be exactly the brute-force answer at the pinned state.
TEST(KnnSnapshot, PinnedAnswersMatchTheirStateUnderWriterChurn) {
  oracle::WorkloadShape shape;
  shape.initial_objects = 200;
  shape.batches = 10;
  shape.knn_queries = 6;
  const oracle::Workload w = oracle::MakeWorkload(0x4B4E4E, shape);

  auto pager = Pager::OpenInMemory(2048);
  BufferPool pool(pager.get(), 64);
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);
  auto index = SpatialIndex::Create(&pool, opt).value();
  for (const Rect& r : w.initial) ASSERT_TRUE(index->Insert(r).ok());
  const uint64_t base = index->write_epoch();

  std::vector<Live> states;
  for (const oracle::OracleState& st : w.states) {
    Live live;
    for (const auto& [oid, r] : st) live[oid] = Shape{r, {}};
    states.push_back(std::move(live));
  }

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      size_t q = t;
      while (!done.load(std::memory_order_acquire) || checked.load() < 4) {
        const EpochPin pin = index->PinEpoch();
        const Live& st = states[pin.epoch() - base];
        const Point& p = w.knn_points[q++ % w.knn_points.size()];
        for (size_t k : {size_t{1}, size_t{8}, size_t{50}}) {
          auto got = index->NearestNeighborsAt(pin, p, k);
          if (!got.ok() || got.value() != BruteForce(st, p, k)) ++mismatches;
        }
        ++checked;
      }
    });
  }
  for (const WriteBatch& batch : w.batches) {
    ASSERT_TRUE(index->ApplyBatch(batch).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(checked.load(), 4);
}

}  // namespace
}  // namespace zdb
