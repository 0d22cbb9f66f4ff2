// Copyright (c) zdb authors. Licensed under the MIT license.
//
// A4 (extension): k-nearest-neighbor queries — the proximity queries the
// paper leaves as future work. Compares three strategies across data
// redundancy and k: the R-tree's best-first MINDIST traversal; the
// z-index's own kNN, a best-first search over the z-order quadtree
// (SpatialIndex::NearestNeighbors); and an expanding-window search, the
// natural strategy for a one-dimensional ordered index, run here over
// the public window query. Expected shape: at moderate redundancy both
// best-first searches read a few dozen pages; the expanding window
// re-pays a whole window query's filter cost each round, most of all on
// clustered data, where its uniform first-radius guess is far off.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 50;

/// Expanding-window kNN over the public API: window queries of doubling
/// radius at one pinned epoch, until the k-th hit's exact distance is
/// inside the searched window. Returns the number of rounds.
uint32_t ExpandingSearch(SpatialIndex* index, const Point& p, size_t k) {
  const uint64_t live_objects = index->object_count();
  if (k == 0 || live_objects == 0) return 0;
  const Rect world = index->options().world;
  const double world_span =
      std::max(world.xhi - world.xlo, world.yhi - world.ylo);
  // First radius: roughly the expected k-neighborhood under uniformity;
  // the whole world when no k-th hit could ever prove a radius.
  double radius =
      k >= live_objects
          ? std::numeric_limits<double>::infinity()
          : world_span *
                std::sqrt(static_cast<double>(k) /
                          static_cast<double>(live_objects)) /
                2.0;
  radius = std::max(radius, world_span / 4096.0);

  const EpochPin pin = index->PinEpoch();
  std::vector<std::pair<ObjectId, double>> best;
  uint32_t round = 0;
  for (;;) {
    ++round;
    const Rect window =
        Rect::FromCenter(p.x, p.y, radius, radius).Intersection(world);
    if (!window.valid()) {
      radius *= 2.0;
      continue;
    }
    auto hits = index->WindowQueryAt(pin, window);
    if (!hits.ok()) std::exit(1);
    best.clear();
    for (ObjectId oid : hits.value()) {
      auto d = index->DistanceTo(oid, p);
      if (!d.ok()) std::exit(1);
      best.emplace_back(oid, d.value());
    }
    std::sort(best.begin(), best.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
    if (best.size() > k) best.resize(k);
    if ((best.size() == k && best.back().second <= radius) ||
        window == world) {
      return round;
    }
    radius *= 2.0;
  }
}

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto points = GeneratePoints(kQueries, 606);

  Table table("A4 k-nearest-neighbor — " + DistributionName(dist) +
                  " (accesses/query)",
              {"method", "k=1", "k=5", "k=20", "rounds@20"});
  // The z-index's own kNN, in a table of its own so that the first one
  // keeps its layout.
  Table best_first("A4 k-nearest-neighbor — " + DistributionName(dist) +
                       ", z-index best-first (accesses/query)",
                   {"method", "k=1", "k=5", "k=20"});

  auto run_z = [&](const std::string& label, uint32_t data_k,
                   bool expanding) {
    Env env = MakeEnv();
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(data_k);
    auto index = BuildZIndex(&env, data, opt).value();
    std::vector<std::string> row{label};
    double rounds_at_20 = 0;
    for (size_t k : {size_t{1}, size_t{5}, size_t{20}}) {
      uint64_t total = 0;
      uint64_t total_rounds = 0;
      for (const Point& p : points) {
        if (!env.pool->Clear().ok()) std::exit(1);
        const IoStats snap = env.pager->io_stats();
        if (expanding) {
          total_rounds += ExpandingSearch(index.get(), p, k);
        } else if (!index->NearestNeighbors(p, k).ok()) {
          std::exit(1);
        }
        total += env.Delta(snap).accesses();
      }
      row.push_back(Fmt(static_cast<double>(total) / points.size(), 1));
      if (k == 20) {
        rounds_at_20 = static_cast<double>(total_rounds) / points.size();
      }
    }
    if (expanding) {
      row.push_back(Fmt(rounds_at_20, 1));
      table.AddRow(row);
    } else {
      best_first.AddRow(row);
    }
  };

  auto run_rtree = [&]() {
    Env env = MakeEnv();
    auto tree = BuildRTree(&env, data, RTreeOptions{}).value();
    std::vector<std::string> row{"rtree best-first"};
    for (size_t k : {size_t{1}, size_t{5}, size_t{20}}) {
      uint64_t total = 0;
      for (const Point& p : points) {
        if (!env.pool->Clear().ok()) std::exit(1);
        const IoStats snap = env.pager->io_stats();
        auto r = tree->NearestNeighbors(p, k);
        if (!r.ok()) std::exit(1);
        total += env.Delta(snap).accesses();
      }
      row.push_back(Fmt(static_cast<double>(total) / points.size(), 1));
    }
    row.push_back("-");
    table.AddRow(row);
  };

  run_rtree();
  for (const bool expanding : {true, false}) {
    const char* method = expanding ? "expanding" : "best-first";
    for (const uint32_t data_k : {1u, 4u, 16u}) {
      run_z("z k=" + std::to_string(data_k) + " " + method, data_k,
            expanding);
    }
  }
  table.Print();
  best_first.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20000;
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformSmall, zdb::Distribution::kClusters}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
