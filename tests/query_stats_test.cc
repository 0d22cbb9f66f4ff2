// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Characterization of the filter-and-refine statistics. For every query
// kind (window, point, containment, enclosure, kNN, kNN with k at least
// the live object count) and every filter mode (default, BIGMIN scans,
// MBRs replicated into the leaves), a seeded workload's QueryStats are
// summed field by field and compared with golden values, together with
// the buffer pool's page reads and hits over a deliberately small pool.
// The golden values were captured from the engine before the query kinds
// shared one pipeline (the kNN rows when kNN became a best-first search);
// any change to what the filter scans, how it deduplicates, what
// refinement fetches or in which order pages are touched shows up here.
//
// For kNN the fields count the best-first search's work: query_elements
// = cells expanded, ancestor_probes = probes of a large cell's own
// entries, index_entries = entries read, candidates = entries pushed,
// unique_candidates = records fetched (none with MBRs in the leaves,
// where an entry carries its exact distance), results = answers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/spatial_index.h"
#include "storage/pager.h"
#include "workload/datagen.h"
#include "workload/querygen.h"

namespace zdb {
namespace {

enum class Mode { kDefault, kBigMin, kLeafMbr };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kDefault: return "default";
    case Mode::kBigMin: return "use_bigmin";
    case Mode::kLeafMbr: return "store_mbr_in_leaf";
  }
  return "?";
}

/// One golden row: the summed QueryStats of one kind in one mode, plus
/// the page reads and pool hits the queries caused.
struct Row {
  const char* kind;
  uint64_t query_elements, ancestor_probes, index_entries, candidates,
      unique_candidates, false_hits, results, bigmin_jumps;
  uint64_t page_reads, pool_hits;
};

bool operator==(const Row& a, const Row& b) {
  return std::string(a.kind) == b.kind &&
         a.query_elements == b.query_elements &&
         a.ancestor_probes == b.ancestor_probes &&
         a.index_entries == b.index_entries && a.candidates == b.candidates &&
         a.unique_candidates == b.unique_candidates &&
         a.false_hits == b.false_hits && a.results == b.results &&
         a.bigmin_jumps == b.bigmin_jumps && a.page_reads == b.page_reads &&
         a.pool_hits == b.pool_hits;
}

std::string Format(const Row& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                "%llu, %llu}",
                r.kind, static_cast<unsigned long long>(r.query_elements),
                static_cast<unsigned long long>(r.ancestor_probes),
                static_cast<unsigned long long>(r.index_entries),
                static_cast<unsigned long long>(r.candidates),
                static_cast<unsigned long long>(r.unique_candidates),
                static_cast<unsigned long long>(r.false_hits),
                static_cast<unsigned long long>(r.results),
                static_cast<unsigned long long>(r.bigmin_jumps),
                static_cast<unsigned long long>(r.page_reads),
                static_cast<unsigned long long>(r.pool_hits));
  return buf;
}

Polygon Blob(Random* rng) {
  const double cx = rng->UniformDouble(0.1, 0.9);
  const double cy = rng->UniformDouble(0.1, 0.9);
  const double radius = rng->UniformDouble(0.01, 0.06);
  const int sides = 4 + static_cast<int>(rng->Uniform(5));
  std::vector<Point> ring;
  for (int i = 0; i < sides; ++i) {
    const double ang = 2 * 3.14159265358979 * i / sides;
    const double r = radius * rng->UniformDouble(0.5, 1.0);
    ring.push_back(Point{cx + r * std::cos(ang), cy + r * std::sin(ang)});
  }
  return Polygon(std::move(ring));
}

class QueryStatsGolden {
 public:
  explicit QueryStatsGolden(Mode mode)
      : pager_(Pager::OpenInMemory(1024)), pool_(pager_.get(), 24) {
    SpatialIndexOptions opt;
    opt.use_bigmin = mode == Mode::kBigMin;
    opt.store_mbr_in_leaf = mode == Mode::kLeafMbr;
    index_ = SpatialIndex::Create(&pool_, opt).value();

    DataGenOptions gen;
    gen.distribution = Distribution::kUniformLarge;
    gen.seed = 11;
    for (const Rect& r : GenerateData(500, gen)) {
      EXPECT_TRUE(index_->Insert(r).ok());
    }
    // Polygons cannot be stored with leaf MBRs (the leaf MBR cannot
    // refine a polygon), so that mode's data set is rectangles only.
    if (mode != Mode::kLeafMbr) {
      Random rng(12);
      for (int i = 0; i < 150; ++i) {
        EXPECT_TRUE(index_->InsertPolygon(Blob(&rng)).ok());
      }
    }
  }

  /// Runs `queries` (each adding to the QueryStats it is given) and
  /// returns their summed stats and page traffic as one row.
  template <typename Queries>
  Row Measure(const char* kind, const Queries& queries) {
    const IoStats before = pager_->io_stats();
    QueryStats qs;
    queries(&qs);
    const IoStats after = pager_->io_stats();
    return Row{kind,
               qs.query_elements,
               qs.ancestor_probes,
               qs.index_entries,
               qs.candidates,
               qs.unique_candidates,
               qs.false_hits,
               qs.results,
               qs.bigmin_jumps,
               after.page_reads.load() - before.page_reads.load(),
               after.pool_hits.load() - before.pool_hits.load()};
  }

  std::vector<Row> Run() {
    QueryGenOptions qopt;
    qopt.seed = 21;
    const std::vector<Rect> windows = GenerateWindows(20, 0.01, qopt);
    qopt.seed = 22;
    const std::vector<Rect> large = GenerateWindows(10, 0.05, qopt);
    qopt.seed = 23;
    const std::vector<Rect> tiny = GenerateWindows(10, 0.0001, qopt);
    const std::vector<Point> points = GeneratePoints(20, 24);
    const size_t live = index_->object_count();

    std::vector<Row> rows;
    rows.push_back(Measure("window", [&](QueryStats* qs) {
      for (const Rect& w : windows) {
        QueryStats one;
        EXPECT_TRUE(index_->WindowQuery(w, &one).ok());
        qs->Add(one);
      }
    }));
    rows.push_back(Measure("point", [&](QueryStats* qs) {
      for (const Point& p : points) {
        QueryStats one;
        EXPECT_TRUE(index_->PointQuery(p, &one).ok());
        qs->Add(one);
      }
    }));
    rows.push_back(Measure("containment", [&](QueryStats* qs) {
      for (const Rect& w : large) {
        QueryStats one;
        EXPECT_TRUE(index_->ContainmentQuery(w, &one).ok());
        qs->Add(one);
      }
    }));
    rows.push_back(Measure("enclosure", [&](QueryStats* qs) {
      for (const Rect& w : tiny) {
        QueryStats one;
        EXPECT_TRUE(index_->EnclosureQuery(w, &one).ok());
        qs->Add(one);
      }
    }));
    rows.push_back(Measure("knn", [&](QueryStats* qs) {
      for (size_t i = 0; i < 10; ++i) {
        QueryStats one;
        EXPECT_TRUE(index_->NearestNeighbors(points[i], 8, &one).ok());
        qs->Add(one);
      }
    }));
    rows.push_back(Measure("knn_all", [&](QueryStats* qs) {
      for (size_t i = 0; i < 2; ++i) {
        QueryStats one;
        uint32_t rounds = 0;
        auto r = index_->NearestNeighbors(points[i], live + i, &one, &rounds);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value().size(), live);
        EXPECT_EQ(rounds, 1u);
        qs->Add(one);
      }
    }));
    return rows;
  }

 private:
  std::unique_ptr<Pager> pager_;
  BufferPool pool_;
  std::unique_ptr<SpatialIndex> index_;
};

void ExpectGolden(Mode mode, const std::vector<Row>& golden) {
  QueryStatsGolden g(mode);
  const std::vector<Row> got = g.Run();
  ASSERT_EQ(got.size(), golden.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == golden[i])
        << ModeName(mode) << "\n  got:    " << Format(got[i])
        << "\n  golden: " << Format(golden[i]);
  }
}

// Columns: query_elements, ancestor_probes, index_entries, candidates,
// unique_candidates, false_hits, results, bigmin_jumps, page_reads,
// pool_hits.

TEST(QueryStatsGolden, Default) {
  ExpectGolden(Mode::kDefault, {
      {"window", 65, 87, 1321, 1321, 619, 330, 289, 0, 522, 678},
      {"point", 20, 420, 109, 109, 109, 78, 31, 0, 109, 1278},
      {"containment", 34, 19, 2395, 2395, 894, 684, 210, 0, 359, 764},
      {"enclosure", 34, 119, 65, 65, 56, 43, 13, 0, 53, 465},
      {"knn", 110, 0, 2250, 488, 125, 0, 80, 0, 136, 296},
      {"knn_all", 2, 0, 4450, 4450, 1300, 0, 1300, 0, 202, 1520},
  });
}

TEST(QueryStatsGolden, BigMin) {
  ExpectGolden(Mode::kBigMin, {
      {"window", 20, 2, 1154, 901, 446, 157, 289, 236, 482, 853},
      {"point", 20, 420, 109, 109, 109, 78, 31, 0, 107, 1280},
      {"containment", 10, 0, 1684, 1503, 604, 394, 210, 171, 366, 828},
      {"enclosure", 10, 33, 78, 64, 55, 42, 13, 11, 51, 169},
      {"knn", 110, 0, 2250, 488, 125, 0, 80, 0, 136, 296},
      {"knn_all", 2, 0, 4450, 4450, 1300, 0, 1300, 0, 202, 1520},
  });
}

TEST(QueryStatsGolden, LeafMbr) {
  ExpectGolden(Mode::kLeafMbr, {
      {"window", 65, 87, 937, 937, 457, 244, 213, 0, 121, 421},
      {"point", 20, 380, 86, 86, 86, 62, 24, 0, 60, 1134},
      {"containment", 34, 19, 1708, 1708, 653, 496, 157, 0, 122, 168},
      {"enclosure", 34, 119, 55, 55, 48, 36, 12, 0, 31, 437},
      {"knn", 111, 0, 2682, 527, 0, 0, 80, 0, 117, 334},
      {"knn_all", 2, 0, 3332, 3332, 0, 0, 1000, 0, 246, 2},
  });
}

}  // namespace
}  // namespace zdb
