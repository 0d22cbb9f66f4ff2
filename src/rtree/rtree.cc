// Copyright (c) zdb authors. Licensed under the MIT license.

#include "rtree/rtree.h"

#include <cassert>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>

#include "common/coding.h"
#include "rtree/split.h"

namespace zdb {

namespace {

constexpr size_t kNodeHeaderSize = 8;
constexpr size_t kLeafFlagOff = 0;
constexpr size_t kCountOff = 2;

/// Typed view over a pinned R-tree page.
class RNode {
 public:
  RNode(PageRef ref, uint32_t capacity)
      : ref_(std::move(ref)), capacity_(capacity) {}

  static void Init(PageRef* ref, bool leaf) {
    char* p = ref->mutable_data();
    std::memset(p, 0, kNodeHeaderSize);
    p[kLeafFlagOff] = leaf ? 1 : 0;
  }

  PageId id() const { return ref_.id(); }
  bool is_leaf() const { return ref_.data()[kLeafFlagOff] != 0; }
  uint16_t count() const { return DecodeFixed16(ref_.data() + kCountOff); }

  REntry Get(uint16_t i) const {
    assert(i < count());
    const char* p = ref_.data() + kNodeHeaderSize + i * REntry::kEncodedSize;
    REntry e;
    std::memcpy(&e.rect.xlo, p, 8);
    std::memcpy(&e.rect.ylo, p + 8, 8);
    std::memcpy(&e.rect.xhi, p + 16, 8);
    std::memcpy(&e.rect.yhi, p + 24, 8);
    std::memcpy(&e.ref, p + 32, 4);
    return e;
  }

  void Set(uint16_t i, const REntry& e) {
    assert(i < capacity_);
    char* p =
        ref_.mutable_data() + kNodeHeaderSize + i * REntry::kEncodedSize;
    std::memcpy(p, &e.rect.xlo, 8);
    std::memcpy(p + 8, &e.rect.ylo, 8);
    std::memcpy(p + 16, &e.rect.xhi, 8);
    std::memcpy(p + 24, &e.rect.yhi, 8);
    std::memcpy(p + 32, &e.ref, 4);
    std::memset(p + 36, 0, 4);
  }

  /// Appends; precondition count() < capacity.
  void Append(const REntry& e) {
    const uint16_t n = count();
    assert(n < capacity_);
    Set(n, e);
    set_count(static_cast<uint16_t>(n + 1));
  }

  /// Removes slot i by moving the last entry into it.
  void Remove(uint16_t i) {
    const uint16_t n = count();
    assert(i < n);
    if (i + 1 != n) Set(i, Get(static_cast<uint16_t>(n - 1)));
    set_count(static_cast<uint16_t>(n - 1));
  }

  std::vector<REntry> Drain() const {
    std::vector<REntry> out;
    out.reserve(count());
    for (uint16_t i = 0; i < count(); ++i) out.push_back(Get(i));
    return out;
  }

  void Rewrite(const std::vector<REntry>& entries) {
    assert(entries.size() <= capacity_);
    set_count(0);
    for (const REntry& e : entries) Append(e);
  }

  Rect Bounds() const {
    assert(count() > 0);
    Rect r = Get(0).rect;
    for (uint16_t i = 1; i < count(); ++i) r = r.Union(Get(i).rect);
    return r;
  }

 private:
  void set_count(uint16_t n) {
    EncodeFixed16(ref_.mutable_data() + kCountOff, n);
  }

  PageRef ref_;
  uint32_t capacity_;
};

}  // namespace

RTree::RTree(BufferPool* pool, const RTreeOptions& options)
    : pool_(pool), options_(options) {
  capacity_ = static_cast<uint32_t>(
      (pool->pager()->page_size() - kNodeHeaderSize) / REntry::kEncodedSize);
  min_entries_ = static_cast<uint32_t>(capacity_ * options.min_fill);
  if (min_entries_ < 1) min_entries_ = 1;
  if (min_entries_ > capacity_ / 2) min_entries_ = capacity_ / 2;
}

Result<std::unique_ptr<RTree>> RTree::Create(BufferPool* pool,
                                             const RTreeOptions& options) {
  if (options.min_fill <= 0.0 || options.min_fill > 0.5) {
    return Status::InvalidArgument("min_fill must be in (0, 0.5]");
  }
  std::unique_ptr<RTree> tree(new RTree(pool, options));
  if (tree->capacity_ < 4) {
    return Status::InvalidArgument("page size too small for an R-tree node");
  }
  PageRef root;
  ZDB_ASSIGN_OR_RETURN(root, pool->New());
  RNode::Init(&root, /*leaf=*/true);
  tree->root_ = root.id();
  return tree;
}

Result<std::unique_ptr<RTree>> RTree::Attach(BufferPool* pool,
                                             const RTreeOptions& options,
                                             PageId root, uint32_t height,
                                             uint64_t count) {
  std::unique_ptr<RTree> tree(new RTree(pool, options));
  tree->root_ = root;
  tree->height_ = height;
  tree->count_ = count;
  return tree;
}

// ---------------------------------------------------------------- insert

void RTree::DispatchSplit(const std::vector<REntry>& entries,
                          std::vector<REntry>* ga,
                          std::vector<REntry>* gb) const {
  switch (options_.split) {
    case RTreeOptions::Split::kQuadratic:
      QuadraticSplit(entries, min_entries_, ga, gb);
      break;
    case RTreeOptions::Split::kLinear:
      LinearSplit(entries, min_entries_, ga, gb);
      break;
    case RTreeOptions::Split::kRStar:
      RStarSplit(entries, min_entries_, ga, gb);
      break;
  }
}

Status RTree::Insert(const Rect& mbr, ObjectId oid) {
  if (!mbr.valid()) return Status::InvalidArgument("invalid MBR");
  ZDB_RETURN_IF_ERROR(InsertAtLevel(REntry{mbr, oid}, 0));
  ++count_;
  return Status::OK();
}

Status RTree::InsertAtLevel(const REntry& entry, uint32_t target_level) {
  SplitOut split;
  Rect new_mbr;
  ZDB_RETURN_IF_ERROR(
      InsertRec(root_, height_ - 1, entry, target_level, &split, &new_mbr));
  if (split.split) {
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref, pool_->New());
    RNode::Init(&ref, /*leaf=*/false);
    RNode new_root(std::move(ref), capacity_);
    new_root.Append(REntry{new_mbr, root_});
    new_root.Append(REntry{split.rect, split.right});
    root_ = new_root.id();
    ++height_;
  }
  return Status::OK();
}

Status RTree::InsertRec(PageId page, uint32_t level, const REntry& entry,
                        uint32_t target_level, SplitOut* out,
                        Rect* new_mbr) {
  PageRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(page));
  RNode node(std::move(ref), capacity_);

  if (level == target_level) {
    if (node.count() < capacity_) {
      node.Append(entry);
      *new_mbr = node.Bounds();
      return Status::OK();
    }
    // Overflow: split the capacity+1 entries into two groups.
    std::vector<REntry> entries = node.Drain();
    entries.push_back(entry);
    std::vector<REntry> ga, gb;
    DispatchSplit(entries, &ga, &gb);
    PageRef rref;
    ZDB_ASSIGN_OR_RETURN(rref, pool_->New());
    RNode::Init(&rref, node.is_leaf());
    RNode right(std::move(rref), capacity_);
    node.Rewrite(ga);
    right.Rewrite(gb);
    out->split = true;
    out->rect = GroupBounds(gb);
    out->right = right.id();
    *new_mbr = GroupBounds(ga);
    return Status::OK();
  }

  // ChooseSubtree: least enlargement, ties by least area.
  assert(!node.is_leaf());
  uint16_t best = 0;
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (uint16_t i = 0; i < node.count(); ++i) {
    const Rect r = node.Get(i).rect;
    const double enlarge = r.Union(entry.rect).area() - r.area();
    const double area = r.area();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best_enlarge = enlarge;
      best_area = area;
      best = i;
    }
  }

  REntry chosen = node.Get(best);
  SplitOut child_split;
  Rect child_mbr;
  ZDB_RETURN_IF_ERROR(InsertRec(chosen.ref, level - 1, entry, target_level,
                                &child_split, &child_mbr));
  chosen.rect = child_mbr;
  node.Set(best, chosen);

  if (child_split.split) {
    const REntry new_entry{child_split.rect, child_split.right};
    if (node.count() < capacity_) {
      node.Append(new_entry);
    } else {
      std::vector<REntry> entries = node.Drain();
      entries.push_back(new_entry);
      std::vector<REntry> ga, gb;
      DispatchSplit(entries, &ga, &gb);
      PageRef rref;
      ZDB_ASSIGN_OR_RETURN(rref, pool_->New());
      RNode::Init(&rref, /*leaf=*/false);
      RNode right(std::move(rref), capacity_);
      node.Rewrite(ga);
      right.Rewrite(gb);
      out->split = true;
      out->rect = GroupBounds(gb);
      out->right = right.id();
      *new_mbr = GroupBounds(ga);
      return Status::OK();
    }
  }
  *new_mbr = node.Bounds();
  return Status::OK();
}

// ---------------------------------------------------------------- delete

Status RTree::Delete(const Rect& mbr, ObjectId oid) {
  bool found = false;
  bool removed_page = false;
  Rect new_mbr;
  std::vector<std::pair<REntry, uint32_t>> orphans;
  ZDB_RETURN_IF_ERROR(DeleteRec(root_, height_ - 1, mbr, oid, &found,
                                &removed_page, &new_mbr, &orphans));
  if (!found) return Status::NotFound("no such (mbr, oid) entry");
  --count_;

  // Reinsert orphaned entries at their original levels.
  for (const auto& [entry, level] : orphans) {
    ZDB_RETURN_IF_ERROR(InsertAtLevel(entry, level));
  }

  // Shrink the root while it is an internal node with a single child.
  for (;;) {
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(root_));
    RNode node(std::move(ref), capacity_);
    if (node.is_leaf() || node.count() != 1) break;
    const PageId child = node.Get(0).ref;
    const PageId old_root = root_;
    node = RNode(PageRef(), capacity_);  // unpin before delete
    ZDB_RETURN_IF_ERROR(pool_->Delete(old_root));
    root_ = child;
    --height_;
  }
  return Status::OK();
}

Status RTree::DeleteRec(PageId page, uint32_t level, const Rect& mbr,
                        ObjectId oid, bool* found, bool* removed_page,
                        Rect* new_mbr,
                        std::vector<std::pair<REntry, uint32_t>>* orphans) {
  PageRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(page));
  RNode node(std::move(ref), capacity_);

  if (node.is_leaf()) {
    for (uint16_t i = 0; i < node.count(); ++i) {
      const REntry e = node.Get(i);
      if (e.ref == oid && e.rect == mbr) {
        node.Remove(i);
        *found = true;
        break;
      }
    }
    if (!*found) return Status::OK();
  } else {
    for (uint16_t i = 0; i < node.count() && !*found; ++i) {
      REntry e = node.Get(i);
      if (!e.rect.Contains(mbr)) continue;
      bool child_removed = false;
      Rect child_mbr;
      ZDB_RETURN_IF_ERROR(DeleteRec(e.ref, level - 1, mbr, oid, found,
                                    &child_removed, &child_mbr, orphans));
      if (!*found) continue;
      if (child_removed) {
        node.Remove(i);
      } else {
        e.rect = child_mbr;
        node.Set(i, e);
      }
    }
    if (!*found) return Status::OK();
  }

  // CondenseTree: a non-root node that dropped below minimum occupancy is
  // dissolved; its entries are reinserted by the caller chain.
  if (page != root_ && node.count() < min_entries_) {
    for (const REntry& e : node.Drain()) {
      orphans->emplace_back(e, level);
    }
    node = RNode(PageRef(), capacity_);  // unpin before delete
    ZDB_RETURN_IF_ERROR(pool_->Delete(page));
    *removed_page = true;
    return Status::OK();
  }
  if (node.count() > 0) *new_mbr = node.Bounds();
  *removed_page = false;
  return Status::OK();
}

// ---------------------------------------------------------------- queries

template <typename NodePred, typename LeafPred>
Status RTree::QueryRec(PageId page, const NodePred& node_pred,
                       const LeafPred& leaf_pred, std::vector<ObjectId>* out,
                       RQueryStats* stats) const {
  PageRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(page));
  RNode node(std::move(ref), capacity_);
  if (stats != nullptr) ++stats->nodes_visited;

  if (node.is_leaf()) {
    for (uint16_t i = 0; i < node.count(); ++i) {
      const REntry e = node.Get(i);
      if (stats != nullptr) ++stats->leaf_entries_tested;
      if (leaf_pred(e.rect)) out->push_back(e.ref);
    }
    return Status::OK();
  }
  for (uint16_t i = 0; i < node.count(); ++i) {
    const REntry e = node.Get(i);
    if (node_pred(e.rect)) {
      ZDB_RETURN_IF_ERROR(
          QueryRec(e.ref, node_pred, leaf_pred, out, stats));
    }
  }
  return Status::OK();
}

Result<std::vector<ObjectId>> RTree::WindowQuery(const Rect& window,
                                                 RQueryStats* stats) {
  std::vector<ObjectId> out;
  ZDB_RETURN_IF_ERROR(QueryRec(
      root_, [&](const Rect& r) { return r.Intersects(window); },
      [&](const Rect& r) { return r.Intersects(window); }, &out, stats));
  if (stats != nullptr) stats->results = out.size();
  return out;
}

Result<std::vector<ObjectId>> RTree::PointQuery(const Point& p,
                                                RQueryStats* stats) {
  std::vector<ObjectId> out;
  ZDB_RETURN_IF_ERROR(QueryRec(
      root_, [&](const Rect& r) { return r.Contains(p); },
      [&](const Rect& r) { return r.Contains(p); }, &out, stats));
  if (stats != nullptr) stats->results = out.size();
  return out;
}

Result<std::vector<ObjectId>> RTree::ContainmentQuery(const Rect& window,
                                                      RQueryStats* stats) {
  std::vector<ObjectId> out;
  ZDB_RETURN_IF_ERROR(QueryRec(
      root_, [&](const Rect& r) { return r.Intersects(window); },
      [&](const Rect& r) { return window.Contains(r); }, &out, stats));
  if (stats != nullptr) stats->results = out.size();
  return out;
}

Result<std::vector<ObjectId>> RTree::EnclosureQuery(const Rect& window,
                                                    RQueryStats* stats) {
  std::vector<ObjectId> out;
  ZDB_RETURN_IF_ERROR(QueryRec(
      root_, [&](const Rect& r) { return r.Contains(window); },
      [&](const Rect& r) { return r.Contains(window); }, &out, stats));
  if (stats != nullptr) stats->results = out.size();
  return out;
}

Result<std::vector<std::pair<ObjectId, double>>> RTree::NearestNeighbors(
    const Point& p, size_t k, RQueryStats* stats) {
  std::vector<std::pair<ObjectId, double>> results;
  if (k == 0 || count_ == 0) return results;

  struct QueueItem {
    double dist;
    bool is_object;
    uint32_t ref;  // page id or object id
    bool operator>(const QueueItem& o) const { return dist > o.dist; }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>,
                      std::greater<QueueItem>>
      queue;
  queue.push({0.0, false, root_});

  while (!queue.empty() && results.size() < k) {
    const QueueItem item = queue.top();
    queue.pop();
    if (item.is_object) {
      // MINDIST order guarantees this is the next-nearest object.
      results.emplace_back(item.ref, item.dist);
      continue;
    }
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(item.ref));
    RNode node(std::move(ref), capacity_);
    if (stats != nullptr) ++stats->nodes_visited;
    for (uint16_t i = 0; i < node.count(); ++i) {
      const REntry e = node.Get(i);
      queue.push({e.rect.DistanceTo(p), node.is_leaf(), e.ref});
      if (stats != nullptr && node.is_leaf()) ++stats->leaf_entries_tested;
    }
  }
  if (stats != nullptr) stats->results = results.size();
  return results;
}

// ---------------------------------------------------------------- checks

Status RTree::CheckInvariants() const {
  uint32_t leaf_depth = 0;
  uint64_t entries = 0;
  ZDB_RETURN_IF_ERROR(
      CheckRec(root_, height_ - 1, nullptr, &leaf_depth, &entries));
  if (entries != count_) {
    return Status::Corruption("entry count mismatch");
  }
  return Status::OK();
}

Status RTree::CheckRec(PageId page, uint32_t level, const Rect* bound,
                       uint32_t* leaf_depth, uint64_t* entries) const {
  PageRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(page));
  RNode node(std::move(ref), capacity_);

  if (page != root_ && node.count() < min_entries_) {
    return Status::Corruption("underfull node " + std::to_string(page));
  }
  if (node.count() > capacity_) {
    return Status::Corruption("overfull node " + std::to_string(page));
  }
  for (uint16_t i = 0; i < node.count(); ++i) {
    const REntry e = node.Get(i);
    if (bound != nullptr && !bound->Contains(e.rect)) {
      return Status::Corruption("entry escapes parent MBR in page " +
                                std::to_string(page));
    }
  }
  if (node.is_leaf()) {
    if (level != 0) return Status::Corruption("leaf at non-zero level");
    if (*leaf_depth == 0) {
      *leaf_depth = height_;
    }
    *entries += node.count();
    return Status::OK();
  }
  for (uint16_t i = 0; i < node.count(); ++i) {
    const REntry e = node.Get(i);
    const Rect r = e.rect;
    ZDB_RETURN_IF_ERROR(
        CheckRec(e.ref, level - 1, &r, leaf_depth, entries));
  }
  return Status::OK();
}

}  // namespace zdb
