// Copyright (c) zdb authors. Licensed under the MIT license.

#ifndef ZDB_GEOM_POINT_H_
#define ZDB_GEOM_POINT_H_

#include <cmath>

namespace zdb {

/// A point in world coordinates (the unit square [0,1) x [0,1) for all
/// built-in workloads, though any bounds work via SpaceMapper).
struct Point {
  double x = 0.0;
  double y = 0.0;
};

inline bool operator==(const Point& a, const Point& b) {
  return a.x == b.x && a.y == b.y;
}

/// False for a NaN or infinite coordinate: no grid cell holds the point.
inline bool IsFinite(const Point& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

}  // namespace zdb

#endif  // ZDB_GEOM_POINT_H_
