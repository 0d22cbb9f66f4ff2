// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Boundary conditions across modules: world-border geometry, windows
// exceeding the world, grid-aligned coordinates, degenerate queries, and
// cursor behaviour across leaf boundaries after churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "btree/btree.h"
#include "btree/cursor.h"
#include "core/spatial_index.h"
#include "storage/pager.h"
#include "workload/datagen.h"

namespace zdb {
namespace {

struct Fixture {
  Fixture() : pager(Pager::OpenInMemory(512)), pool(pager.get(), 64) {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(4);
    index = SpatialIndex::Create(&pool, opt).value();
  }
  std::unique_ptr<Pager> pager;
  BufferPool pool;
  std::unique_ptr<SpatialIndex> index;
};

TEST(Edge, ObjectsOnWorldBorder) {
  Fixture f;
  const Rect corner{0.0, 0.0, 0.001, 0.001};
  const Rect edge_strip{0.0, 0.4, 0.002, 0.6};
  const Rect far_corner{0.998, 0.998, 0.9999, 0.9999};
  const ObjectId a = f.index->Insert(corner).value();
  const ObjectId b = f.index->Insert(edge_strip).value();
  const ObjectId c = f.index->Insert(far_corner).value();

  EXPECT_EQ(f.index->PointQuery(Point{0.0, 0.0}).value(),
            std::vector<ObjectId>{a});
  EXPECT_EQ(f.index->PointQuery(Point{0.0, 0.5}).value(),
            std::vector<ObjectId>{b});
  EXPECT_EQ(f.index->PointQuery(Point{0.999, 0.999}).value(),
            std::vector<ObjectId>{c});
}

TEST(Edge, WindowsExceedingTheWorld) {
  Fixture f;
  const ObjectId a = f.index->Insert(Rect{0.1, 0.1, 0.2, 0.2}).value();
  // Windows sticking out of the world clamp to the border cells.
  auto got = f.index->WindowQuery(Rect{-5.0, -5.0, 5.0, 5.0}).value();
  EXPECT_EQ(got, std::vector<ObjectId>{a});
  EXPECT_TRUE(
      f.index->WindowQuery(Rect{-5.0, -5.0, -1.0, -1.0}).value().empty() ||
      // Clamped entirely onto the border cell column; the object is not
      // there, so the result must still be empty.
      f.index->WindowQuery(Rect{-5.0, -5.0, -1.0, -1.0}).value().empty());
}

TEST(Edge, GridAlignedCoordinates) {
  // Coordinates that are exact multiples of the cell size (2^-16).
  Fixture f;
  const double cell = 1.0 / 65536.0;
  const Rect aligned{128 * cell, 256 * cell, 512 * cell, 1024 * cell};
  const ObjectId a = f.index->Insert(aligned).value();
  EXPECT_EQ(f.index->WindowQuery(aligned).value(), std::vector<ObjectId>{a});
  // Touching window (shares only the right edge).
  const Rect touching{512 * cell, 256 * cell, 600 * cell, 1024 * cell};
  EXPECT_EQ(f.index->WindowQuery(touching).value(),
            std::vector<ObjectId>{a});
  // One cell beyond: no contact.
  const Rect beyond{513 * cell, 256 * cell, 600 * cell, 1024 * cell};
  EXPECT_TRUE(f.index->WindowQuery(beyond).value().empty());
}

TEST(Edge, DegenerateWindow) {
  Fixture f;
  const ObjectId a = f.index->Insert(Rect{0.3, 0.3, 0.5, 0.5}).value();
  // Zero-area window inside the object.
  EXPECT_EQ(f.index->WindowQuery(Rect{0.4, 0.4, 0.4, 0.4}).value(),
            std::vector<ObjectId>{a});
  // Line-shaped window crossing the object.
  EXPECT_EQ(f.index->WindowQuery(Rect{0.0, 0.4, 1.0, 0.4}).value(),
            std::vector<ObjectId>{a});
}

TEST(Edge, ManyObjectsInOneCell) {
  // Heavy duplication within a single grid cell: the index must store
  // and retrieve all of them (distinct oids disambiguate equal keys).
  Fixture f;
  const Rect spot{0.123456, 0.654321, 0.1234561, 0.6543211};
  std::vector<ObjectId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(f.index->Insert(spot).value());
  }
  auto got = f.index->WindowQuery(Rect{0.12, 0.65, 0.13, 0.66}).value();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, ids);
  QueryStats qs;
  auto pt = f.index->PointQuery(spot.center(), &qs).value();
  EXPECT_EQ(pt.size(), 200u);
}

TEST(Edge, CursorAcrossLeavesAfterChurn) {
  auto pager = Pager::OpenInMemory(256);
  BufferPool pool(pager.get(), 64);
  auto tree = BTree::Create(&pool).value();

  // Build, delete a swath in the middle, and verify the scan stitches
  // across the (rebalanced) leaf chain.
  auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06d", i);
    return std::string(buf);
  };
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree->Insert(key(i), "v").ok());
  }
  for (int i = 300; i < 700; ++i) {
    ASSERT_TRUE(tree->Delete(key(i)).ok());
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());

  auto cur = tree->Seek(key(295)).value();
  std::vector<int> seen;
  while (cur.Valid() && seen.size() < 10) {
    seen.push_back(std::stoi(cur.key().ToString().substr(1)));
    ASSERT_TRUE(cur.Next().ok());
  }
  EXPECT_EQ(seen, (std::vector<int>{295, 296, 297, 298, 299, 700, 701, 702,
                                    703, 704}));
}

TEST(Edge, QueryStatsIdentityUnderBigMin) {
  Fixture f;
  DataGenOptions dg;
  dg.distribution = Distribution::kDiagonal;
  const auto data = GenerateData(2000, dg);
  for (const Rect& r : data) ASSERT_TRUE(f.index->Insert(r).ok());

  auto pager2 = Pager::OpenInMemory(512);
  BufferPool pool2(pager2.get(), 64);
  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);
  opt.use_bigmin = true;
  auto bigmin_index = SpatialIndex::Create(&pool2, opt).value();
  for (const Rect& r : data) ASSERT_TRUE(bigmin_index->Insert(r).ok());

  const Rect w{0.4, 0.38, 0.5, 0.48};
  QueryStats qs_plain, qs_bigmin;
  auto a = f.index->WindowQuery(w, &qs_plain).value();
  auto b = bigmin_index->WindowQuery(w, &qs_bigmin).value();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  // BIGMIN uses a single query element and skips instead of decomposing.
  EXPECT_EQ(qs_bigmin.query_elements, 1u);
  EXPECT_GT(qs_bigmin.bigmin_jumps, 0u);
  EXPECT_EQ(qs_plain.bigmin_jumps, 0u);
}

TEST(Edge, NearestNeighborsReportsRoundsAndStats) {
  Fixture f;
  DataGenOptions dg;
  dg.distribution = Distribution::kUniformSmall;
  for (const Rect& r : GenerateData(1000, dg)) {
    ASSERT_TRUE(f.index->Insert(r).ok());
  }
  QueryStats qs;
  uint32_t rounds = 0;
  auto got = f.index->NearestNeighbors(Point{0.5, 0.5}, 10, &qs, &rounds);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 10u);
  EXPECT_GE(rounds, 1u);
  EXPECT_GT(qs.index_entries, 0u);
}

// A NaN or infinite query point has no grid cell: point and kNN queries
// reject it instead of casting it onto the grid (undefined behaviour) or
// doubling the kNN radius forever.
TEST(Edge, NonFinitePointsAreRejected) {
  Fixture f;
  ASSERT_TRUE(f.index->Insert(Rect{0.4, 0.4, 0.6, 0.6}).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Point& p : {Point{nan, 0.5}, Point{0.5, nan}, Point{inf, 0.5},
                         Point{0.5, -inf}}) {
    EXPECT_TRUE(f.index->PointQuery(p).status().IsInvalidArgument());
    EXPECT_TRUE(f.index->NearestNeighbors(p, 3).status().IsInvalidArgument());
    EXPECT_TRUE(f.index->NearestNeighbors(p, 0).status().IsInvalidArgument());
    const EpochPin pin = f.index->PinEpoch();
    EXPECT_TRUE(f.index->PointQueryAt(pin, p).status().IsInvalidArgument());
    EXPECT_TRUE(
        f.index->NearestNeighborsAt(pin, p, 3).status().IsInvalidArgument());
  }
  // Finite points outside the world stay valid queries.
  EXPECT_TRUE(f.index->PointQuery(Point{5.0, 0.5}).value().empty());
  EXPECT_EQ(f.index->NearestNeighbors(Point{5.0, 0.5}, 3).value().size(), 1u);
}

}  // namespace
}  // namespace zdb
