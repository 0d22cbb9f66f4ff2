// Copyright (c) zdb authors. Licensed under the MIT license.

#include "workload.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/random.h"

namespace zdb::bench {

namespace {

// Why each mix exists is recorded with its name in BENCHMARK.json. In
// short: hot_read keeps the whole index in the pool so fixed
// per-request costs dominate; cold_scan keeps ~5% of it there so page
// reads, decomposition and kNN rounds dominate; durable_write runs the
// hot read mix beside paced, fsync-bound writers. Two reader
// connections leave cores to spare on a four-core machine, so the
// numbers measure the server rather than the scheduler. The repeats
// give hot_read 90% windows / 10% points (4096 x 9 : 1024 x 4) and
// cold_scan 70% / 20% / 10% kNN (4096 x 7 : 1024 x 8 : 1024 x 4).
constexpr WorkloadSpec kWorkloads[] = {
    {"hot_read", Distribution::kUniformSmall, 200000, 16384, 2, 0, 1e-4,
     9, 4, 0},
    {"cold_scan", Distribution::kClusters, 200000, 256, 2, 0, 1e-3, 7, 8,
     4},
    {"durable_write", Distribution::kUniformSmall, 200000, 16384, 2, 2,
     1e-4, 9, 4, 0},
};

// The data set is fixed per workload: where kClusters puts its clusters
// moves cold_scan's read rate by a fifth from one layout to the next,
// which would drown the run-to-run spread the benchmark must resolve.
// The seed drives the queries, the read stream and the writer batches.
constexpr uint64_t kDataSeed = 1989;
// More clusters than the generator's default 16, so less of the space
// is empty: kNN from a uniform point then ends in fewer, cheaper rounds
// and a run collects enough kNN samples to support its p99.
constexpr uint32_t kClusters = 64;

// Distinct sub-seeds so the data, each query family and the writers
// draw unrelated streams from one --seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ULL + salt;
}

/// One point drawn uniformly in each cell of a g x g grid. Every region
/// is queried equally often, so the cost of the query set varies little
/// from seed to seed; independent uniform draws over- or under-sample
/// regions, and on clustered data the cost of a query depends on where
/// it lands (kNN from empty space runs many rounds).
std::vector<Point> StratifiedPoints(uint32_t g, uint64_t seed) {
  Random rng(seed);
  std::vector<Point> out;
  out.reserve(static_cast<size_t>(g) * g);
  for (uint32_t i = 0; i < g; ++i) {
    for (uint32_t j = 0; j < g; ++j) {
      out.push_back(Point{(i + rng.NextDouble()) / g,
                          (j + rng.NextDouble()) / g});
    }
  }
  return out;
}

/// Square windows of `area` centred on stratified points, clipped to
/// the world as workload/querygen clips its windows.
std::vector<Rect> StratifiedWindows(uint32_t g, double area,
                                    uint64_t seed) {
  const double half = std::sqrt(area) / 2;
  std::vector<Rect> out;
  for (const Point& c : StratifiedPoints(g, seed)) {
    Rect r = Rect::FromCenter(c.x, c.y, half, half);
    r.xlo = std::max(0.0, r.xlo);
    r.ylo = std::max(0.0, r.ylo);
    r.xhi = std::min(0.999999, r.xhi);
    r.yhi = std::min(0.999999, r.yhi);
    out.push_back(r);
  }
  return out;
}

void AppendRepeated(OpKind kind, size_t pool, uint32_t repeats,
                    std::vector<ReadOp>* ops) {
  for (uint32_t r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < pool; ++i) {
      ops->push_back({kind, static_cast<uint32_t>(i)});
    }
  }
}

/// Runs fn(i) for i in [0, n) on up to 4 threads.
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  const size_t threads = std::min<size_t>(4, std::max<size_t>(1, n));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

/// Objects ordered by xlo, so a window only tests the x-strip that can
/// reach it (every object is at most `max_width` wide).
struct XIndex {
  std::vector<uint32_t> order;
  std::vector<double> xlo;
  double max_width = 0;

  explicit XIndex(const std::vector<Rect>& data) : order(data.size()) {
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return data[a].xlo < data[b].xlo;
    });
    xlo.reserve(order.size());
    for (uint32_t i : order) {
      xlo.push_back(data[i].xlo);
      max_width = std::max(max_width, data[i].width());
    }
  }

  template <typename Fn>
  void ForStrip(double x0, double x1, Fn fn) const {
    auto it = std::lower_bound(xlo.begin(), xlo.end(), x0 - max_width);
    for (size_t k = it - xlo.begin(); k < xlo.size() && xlo[k] <= x1; ++k) {
      fn(order[k]);
    }
  }
};

KnnAnswer BruteKnn(const std::vector<Rect>& data, const Point& p) {
  // Max-heap of the k best (distance, id), ties broken by id.
  KnnAnswer heap;
  auto worse = [](const std::pair<ObjectId, double>& a,
                  const std::pair<ObjectId, double>& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  };
  for (ObjectId i = 0; i < data.size(); ++i) {
    const double d = data[i].DistanceTo(p);
    if (heap.size() < kKnnK) {
      heap.push_back({i, d});
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (d < heap.front().second) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = {i, d};
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), worse);
  return heap;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<Rect> GenerateDataSet(const WorkloadSpec& spec) {
  DataGenOptions dg;
  dg.distribution = spec.distribution;
  dg.seed = kDataSeed;
  dg.clusters = kClusters;
  return GenerateData(spec.objects, dg);
}

Inputs MakeQueries(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.windows =
      StratifiedWindows(kWindowGrid, spec.window_area, SubSeed(seed, 2));
  in.points = StratifiedPoints(kPointGrid, SubSeed(seed, 3));
  if (spec.knn_repeats > 0) {
    in.knn_points = StratifiedPoints(kPointGrid, SubSeed(seed, 4));
  }

  AppendRepeated(OpKind::kWindow, in.windows.size(), spec.window_repeats,
                 &in.ops);
  AppendRepeated(OpKind::kPoint, in.points.size(), spec.point_repeats,
                 &in.ops);
  AppendRepeated(OpKind::kKnn, in.knn_points.size(), spec.knn_repeats,
                 &in.ops);
  Random rng(SubSeed(seed, 5));
  for (size_t i = in.ops.size(); i > 1; --i) {
    std::swap(in.ops[i - 1], in.ops[rng.Uniform(i)]);
  }
  return in;
}

void ComputeOracle(Inputs* in) {
  const XIndex xi(in->data);
  const std::vector<Rect>& data = in->data;
  in->window_answers.assign(in->windows.size(), {});
  ParallelFor(in->windows.size(), [&](size_t q) {
    const Rect& w = in->windows[q];
    auto& out = in->window_answers[q];
    xi.ForStrip(w.xlo, w.xhi, [&](uint32_t i) {
      if (data[i].Intersects(w)) out.push_back(i);
    });
    std::sort(out.begin(), out.end());
  });
  in->point_answers.assign(in->points.size(), {});
  ParallelFor(in->points.size(), [&](size_t q) {
    const Point& p = in->points[q];
    auto& out = in->point_answers[q];
    xi.ForStrip(p.x, p.x, [&](uint32_t i) {
      if (data[i].Contains(p)) out.push_back(i);
    });
    std::sort(out.begin(), out.end());
  });
  in->knn_answers.assign(in->knn_points.size(), {});
  ParallelFor(in->knn_points.size(), [&](size_t q) {
    in->knn_answers[q] = BruteKnn(data, in->knn_points[q]);
  });
}

std::vector<ObjectId> BruteWindow(
    const std::vector<std::pair<ObjectId, Rect>>& live, const Rect& w) {
  std::vector<ObjectId> out;
  for (const auto& [oid, r] : live) {
    if (r.Intersects(w)) out.push_back(oid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool KnnMatches(const KnnAnswer& expected, const KnnAnswer& got,
                const std::vector<Rect>& data, const Point& p) {
  constexpr double kEps = 1e-12;
  if (got.size() != expected.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::abs(got[i].second - expected[i].second) > kEps) return false;
    if (got[i].first >= data.size() ||
        std::abs(data[got[i].first].DistanceTo(p) - got[i].second) > kEps) {
      return false;
    }
  }
  if (got.empty()) return true;
  const double kth = expected.back().second;
  for (const auto& [oid, d] : expected) {
    if (d >= kth - kEps) continue;
    const bool present = std::any_of(got.begin(), got.end(),
                                     [&](const auto& h) {
                                       return h.first == oid;
                                     });
    if (!present) return false;
  }
  return true;
}

BatchStream::BatchStream(uint64_t seed, int writer,
                         std::vector<ObjectId> owned)
    : rng_(SubSeed(seed, 100 + static_cast<uint64_t>(writer))),
      owned_(std::move(owned)) {}

WriteBatch BatchStream::Next() {
  pending_ = WriteBatch{};
  for (size_t i = 0; i < kBatchInserts; ++i) {
    pending_.Insert(Rect::FromCenter(rng_.NextDouble() * 0.99 + 0.005,
                                     rng_.NextDouble() * 0.99 + 0.005,
                                     rng_.UniformDouble(0, 0.005),
                                     rng_.UniformDouble(0, 0.005)));
  }
  for (size_t i = 0; i < kBatchErases && !owned_.empty(); ++i) {
    const size_t pick = rng_.Uniform(owned_.size());
    pending_.Erase(owned_[pick]);
    owned_[pick] = owned_.back();
    owned_.pop_back();
  }
  return pending_;
}

void BatchStream::Acked(const std::vector<ObjectId>& inserted) {
  size_t k = 0;
  for (const WriteOp& op : pending_.ops) {
    if (op.kind == WriteOp::Kind::kErase) {
      erased_.push_back(op.oid);
      continue;
    }
    inserted_.push_back({inserted[k], op.mbr});
    owned_.push_back(inserted[k]);
    ++k;
  }
}

}  // namespace zdb::bench
