// Copyright (c) zdb authors. Licensed under the MIT license.

#include "btree/btree.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "btree/cursor.h"
#include "common/coding.h"

namespace zdb {

namespace {

constexpr uint32_t kMetaMagic = 0x7a627431;  // "zbt1"
constexpr size_t kMetaMagicOff = 0;
constexpr size_t kMetaRootOff = 4;
constexpr size_t kMetaHeightOff = 8;
constexpr size_t kMetaCountOff = 12;

/// A materialized leaf entry, used by the rebuild-based split paths.
struct LeafEntry {
  std::string key;
  std::string value;
  size_t cell_size() const { return Node::LeafCellSize(key.size(), value.size()); }
};

/// A materialized internal entry.
struct InternalEntry {
  std::string key;
  PageId child;
  size_t cell_size() const { return Node::InternalCellSize(key.size()); }
};

std::vector<LeafEntry> DrainLeaf(Node* node) {
  std::vector<LeafEntry> out;
  out.reserve(node->count());
  for (uint16_t i = 0; i < node->count(); ++i) {
    out.push_back({node->Key(i).ToString(), node->Value(i).ToString()});
  }
  return out;
}

void RebuildLeaf(Node* node, const std::vector<LeafEntry>& entries,
                 size_t begin, size_t end, PageId next, uint32_t page_size) {
  // Re-init in place; the PageRef inside Node stays pinned.
  char* raw = nullptr;
  (void)raw;
  // Node has no public reinit; emulate by removing all and reinserting
  // would be O(n^2); instead we re-format through Init-equivalent logic:
  // remove from the tail is O(1) amortized since tail cells are lowest.
  while (node->count() > 0) node->Remove(node->count() - 1);
  node->Compact();
  node->set_next(next);
  for (size_t i = begin; i < end; ++i) {
    bool ok = node->LeafInsert(static_cast<uint16_t>(i - begin),
                               Slice(entries[i].key), Slice(entries[i].value));
    assert(ok);
    (void)ok;
  }
  (void)page_size;
}

void RebuildInternal(Node* node, const std::vector<InternalEntry>& cells,
                     size_t begin, size_t end, PageId rightmost) {
  while (node->count() > 0) node->Remove(node->count() - 1);
  node->Compact();
  node->set_next(rightmost);
  for (size_t i = begin; i < end; ++i) {
    bool ok = node->InternalInsert(static_cast<uint16_t>(i - begin),
                                   Slice(cells[i].key), cells[i].child);
    assert(ok);
    (void)ok;
  }
}

/// Index that splits `sizes` into two byte-balanced halves: left covers
/// [0, idx), right covers [idx, n). Guarantees both sides non-empty.
template <typename T>
size_t BalancedSplitIndex(const std::vector<T>& entries) {
  size_t total = 0;
  for (const auto& e : entries) total += e.cell_size() + 2;
  size_t acc = 0;
  for (size_t i = 0; i + 1 < entries.size(); ++i) {
    acc += entries[i].cell_size() + 2;
    if (acc >= total / 2) return i + 1;
  }
  return entries.size() - 1;
}

}  // namespace

Result<std::unique_ptr<BTree>> BTree::Create(BufferPool* pool) {
  PageRef meta;
  ZDB_ASSIGN_OR_RETURN(meta, pool->New());
  PageRef root;
  ZDB_ASSIGN_OR_RETURN(root, pool->New());
  Node::Init(&root, Node::Type::kLeaf, pool->pager()->page_size());

  std::unique_ptr<BTree> tree(new BTree(pool, meta.id()));
  tree->root_ = root.id();
  tree->height_ = 1;
  tree->count_ = 0;
  meta.Release();
  root.Release();
  ZDB_RETURN_IF_ERROR(tree->StoreMeta());
  return tree;
}

Result<std::unique_ptr<BTree>> BTree::Open(BufferPool* pool,
                                           PageId meta_page) {
  std::unique_ptr<BTree> tree(new BTree(pool, meta_page));
  ZDB_RETURN_IF_ERROR(tree->LoadMeta());
  return tree;
}

Status BTree::LoadMeta() {
  PageRef meta;
  ZDB_ASSIGN_OR_RETURN(meta, pool_->Fetch(meta_page_));
  const char* p = meta.data();
  if (DecodeFixed32(p + kMetaMagicOff) != kMetaMagic) {
    return Status::Corruption("bad btree meta magic");
  }
  root_ = DecodeFixed32(p + kMetaRootOff);
  height_ = DecodeFixed32(p + kMetaHeightOff);
  count_ = DecodeFixed64(p + kMetaCountOff);
  return Status::OK();
}

Status BTree::StoreMeta() {
  PageRef meta;
  ZDB_ASSIGN_OR_RETURN(meta, pool_->Fetch(meta_page_));
  char* p = meta.mutable_data();
  EncodeFixed32(p + kMetaMagicOff, kMetaMagic);
  EncodeFixed32(p + kMetaRootOff, root_);
  EncodeFixed32(p + kMetaHeightOff, height_);
  EncodeFixed64(p + kMetaCountOff, count_);
  return Status::OK();
}

// ---------------------------------------------------------------- insert

Status BTree::Insert(const Slice& key, const Slice& value) {
  const uint32_t page_size = pool_->pager()->page_size();
  if (Node::LeafCellSize(key.size(), value.size()) >
      Node::MaxCellSize(page_size)) {
    return Status::InvalidArgument("key/value too large for page size");
  }
  SplitResult split;
  ZDB_RETURN_IF_ERROR(InsertRec(root_, key, value, /*overwrite=*/false,
                                &split));
  if (split.split) {
    PageRef new_root_ref;
    ZDB_ASSIGN_OR_RETURN(new_root_ref, pool_->New());
    Node::Init(&new_root_ref, Node::Type::kInternal, page_size);
    Node new_root(std::move(new_root_ref), page_size);
    bool ok = new_root.InternalInsert(0, Slice(split.separator), root_);
    assert(ok);
    (void)ok;
    new_root.set_next(split.right);
    root_ = new_root.id();
    ++height_;
  }
  ++count_;
  return Status::OK();
}

Status BTree::Put(const Slice& key, const Slice& value) {
  Status s = Insert(key, value);
  if (s.IsAlreadyExists()) {
    const uint32_t page_size = pool_->pager()->page_size();
    SplitResult split;
    ZDB_RETURN_IF_ERROR(
        InsertRec(root_, key, value, /*overwrite=*/true, &split));
    if (split.split) {
      PageRef new_root_ref;
      ZDB_ASSIGN_OR_RETURN(new_root_ref, pool_->New());
      Node::Init(&new_root_ref, Node::Type::kInternal, page_size);
      Node new_root(std::move(new_root_ref), page_size);
      bool ok = new_root.InternalInsert(0, Slice(split.separator), root_);
      assert(ok);
      (void)ok;
      new_root.set_next(split.right);
      root_ = new_root.id();
      ++height_;
    }
    return Status::OK();
  }
  return s;
}

Status BTree::InsertRec(PageId page, const Slice& key, const Slice& value,
                        bool overwrite, SplitResult* out) {
  const uint32_t page_size = pool_->pager()->page_size();
  PageRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(page));
  Node node(std::move(ref), page_size);

  if (node.is_leaf()) {
    uint16_t idx = node.LowerBound(key);
    if (idx < node.count() && node.Key(idx) == key) {
      if (!overwrite) return Status::AlreadyExists();
      if (node.LeafSetValue(idx, value)) return Status::OK();
      // New value does not fit: drop the old entry and fall through to
      // the regular insert-with-split path.
      node.Remove(idx);
    }
    if (node.LeafInsert(idx, key, value)) return Status::OK();
    return SplitLeaf(&node, key, value, out);
  }

  const uint16_t pos = node.UpperBound(key);
  const PageId child = node.Child(pos);
  SplitResult child_split;
  ZDB_RETURN_IF_ERROR(InsertRec(child, key, value, overwrite, &child_split));
  if (!child_split.split) return Status::OK();

  // Child split: old child keeps the low half; install (separator, child)
  // at pos and point the following slot at the new right page.
  if (node.InternalInsert(pos, Slice(child_split.separator), child)) {
    node.SetChild(static_cast<uint16_t>(pos + 1), child_split.right);
    return Status::OK();
  }
  return SplitInternal(&node, Slice(child_split.separator),
                       child_split.right, out);
}

Status BTree::SplitLeaf(Node* node, const Slice& key, const Slice& value,
                        SplitResult* out) {
  const uint32_t page_size = pool_->pager()->page_size();
  std::vector<LeafEntry> entries = DrainLeaf(node);
  // Insert the new pair at its sorted position.
  LeafEntry fresh{key.ToString(), value.ToString()};
  auto it = entries.begin();
  while (it != entries.end() && it->key < fresh.key) ++it;
  entries.insert(it, std::move(fresh));

  const size_t mid = BalancedSplitIndex(entries);

  PageRef right_ref;
  ZDB_ASSIGN_OR_RETURN(right_ref, pool_->New());
  Node::Init(&right_ref, Node::Type::kLeaf, page_size);
  Node right(std::move(right_ref), page_size);

  const PageId old_next = node->next();
  RebuildLeaf(&right, entries, mid, entries.size(), old_next, page_size);
  RebuildLeaf(node, entries, 0, mid, right.id(), page_size);

  out->split = true;
  out->separator = entries[mid].key;
  out->right = right.id();
  return Status::OK();
}

Status BTree::SplitInternal(Node* node, const Slice& key, PageId child,
                            SplitResult* out) {
  const uint32_t page_size = pool_->pager()->page_size();
  // Materialize: children c_0..c_n and boundary keys b_1..b_n where
  // b_i = separator below which c_{i-1} routes.
  std::vector<InternalEntry> cells;
  cells.reserve(node->count() + 1);
  for (uint16_t i = 0; i < node->count(); ++i) {
    cells.push_back({node->Key(i).ToString(), node->Child(i)});
  }
  PageId rightmost = node->next();

  // Insert the new separator: cell (key, old-child-at-pos); the child that
  // followed moves after it (i.e. new right page takes its slot).
  const std::string new_key = key.ToString();
  size_t pos = 0;
  while (pos < cells.size() && cells[pos].key < new_key) ++pos;
  PageId displaced = (pos < cells.size()) ? cells[pos].child : rightmost;
  cells.insert(cells.begin() + pos, {new_key, displaced});
  if (pos + 1 < cells.size()) {
    cells[pos + 1].child = child;
  } else {
    rightmost = child;
  }

  // Split: promote cells[mid].key; left keeps cells [0, mid) with
  // rightmost = cells[mid].child; right keeps (mid, n).
  const size_t mid = BalancedSplitIndex(cells);

  PageRef right_ref;
  ZDB_ASSIGN_OR_RETURN(right_ref, pool_->New());
  Node::Init(&right_ref, Node::Type::kInternal, page_size);
  Node right(std::move(right_ref), page_size);

  RebuildInternal(&right, cells, mid + 1, cells.size(), rightmost);
  const std::string promoted = cells[mid].key;
  const PageId left_rightmost = cells[mid].child;
  RebuildInternal(node, cells, 0, mid, left_rightmost);

  out->split = true;
  out->separator = promoted;
  out->right = right.id();
  return Status::OK();
}

// ---------------------------------------------------------------- lookup

Result<std::string> BTree::Get(const Slice& key) {
  const uint32_t page_size = pool_->pager()->page_size();
  PageId page = ReadRoot();
  for (;;) {
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(page));
    Node node(std::move(ref), page_size);
    if (node.is_leaf()) {
      uint16_t idx = node.LowerBound(key);
      if (idx < node.count() && node.Key(idx) == key) {
        return node.Value(idx).ToString();
      }
      return Status::NotFound();
    }
    page = node.Child(node.UpperBound(key));
  }
}

Result<Cursor> BTree::Seek(const Slice& key) {
  const uint32_t page_size = pool_->pager()->page_size();
  PageId page = ReadRoot();
  for (;;) {
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(page));
    Node node(std::move(ref), page_size);
    if (node.is_leaf()) {
      const uint16_t idx = node.LowerBound(key);
      Cursor cur(pool_, page_size);
      ZDB_RETURN_IF_ERROR(cur.PositionAt(std::move(node), idx));
      return cur;
    }
    page = node.Child(node.UpperBound(key));
  }
}

Result<Cursor> BTree::SeekFirst() { return Seek(Slice()); }

// ---------------------------------------------------------------- delete

Status BTree::Delete(const Slice& key) {
  bool underflow = false;
  ZDB_RETURN_IF_ERROR(DeleteRec(root_, key, &underflow));
  --count_;

  // Shrink the root when an internal root has a single child left.
  const uint32_t page_size = pool_->pager()->page_size();
  for (;;) {
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(root_));
    Node node(std::move(ref), page_size);
    if (node.is_leaf() || node.count() > 0) break;
    const PageId only_child = node.next();
    const PageId old_root = root_;
    node = Node(PageRef(), page_size);  // drop the pin before deleting
    ZDB_RETURN_IF_ERROR(pool_->Delete(old_root));
    root_ = only_child;
    --height_;
  }
  return Status::OK();
}

Status BTree::Flush() { return StoreMeta(); }

Status BTree::DeleteRec(PageId page, const Slice& key, bool* underflow) {
  const uint32_t page_size = pool_->pager()->page_size();
  PageRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(page));
  Node node(std::move(ref), page_size);

  if (node.is_leaf()) {
    uint16_t idx = node.LowerBound(key);
    if (idx >= node.count() || node.Key(idx) != key) {
      return Status::NotFound();
    }
    node.Remove(idx);
    *underflow = IsUnderfull(node);
    return Status::OK();
  }

  const uint16_t pos = node.UpperBound(key);
  bool child_underflow = false;
  ZDB_RETURN_IF_ERROR(DeleteRec(node.Child(pos), key, &child_underflow));
  if (child_underflow) {
    ZDB_RETURN_IF_ERROR(RebalanceChild(&node, pos));
  }
  *underflow = IsUnderfull(node);
  return Status::OK();
}

bool BTree::ReplaceParentKey(Node* parent, uint16_t idx,
                             const Slice& new_key) {
  const std::string old_key = parent->Key(idx).ToString();
  const PageId child = parent->Child(idx);
  parent->Remove(idx);
  if (parent->InternalInsert(idx, new_key, child)) return true;
  bool restored = parent->InternalInsert(idx, Slice(old_key), child);
  assert(restored);
  (void)restored;
  return false;
}

Status BTree::MergeChildren(Node* parent, uint16_t sep_idx, Node* left,
                            Node* right) {
  if (left->is_leaf()) {
    for (uint16_t i = 0; i < right->count(); ++i) {
      bool ok = left->LeafInsert(left->count(), right->Key(i),
                                 right->Value(i));
      assert(ok);
      (void)ok;
    }
    left->set_next(right->next());
  } else {
    // Pull the separator down, then absorb the right node's cells.
    bool ok = left->InternalInsert(left->count(), parent->Key(sep_idx),
                                   left->next());
    assert(ok);
    (void)ok;
    for (uint16_t i = 0; i < right->count(); ++i) {
      ok = left->InternalInsert(left->count(), right->Key(i),
                                right->Child(i));
      assert(ok);
      (void)ok;
    }
    left->set_next(right->next());
  }
  const PageId right_id = right->id();
  const PageId left_id = left->id();
  *right = Node(PageRef(), left->page_size());  // unpin before delete
  ZDB_RETURN_IF_ERROR(pool_->Delete(right_id));
  parent->Remove(sep_idx);
  parent->SetChild(sep_idx, left_id);
  return Status::OK();
}

Status BTree::RebalanceChild(Node* parent, uint16_t child_pos) {
  const uint32_t page_size = pool_->pager()->page_size();
  // Work on the (left, right) pair where `li` is the separator cell index.
  const uint16_t li = (child_pos > 0) ? static_cast<uint16_t>(child_pos - 1)
                                      : child_pos;
  if (parent->count() == 0) return Status::OK();  // nothing to pair with

  PageRef lref, rref;
  ZDB_ASSIGN_OR_RETURN(lref, pool_->Fetch(parent->Child(li)));
  ZDB_ASSIGN_OR_RETURN(
      rref, pool_->Fetch(parent->Child(static_cast<uint16_t>(li + 1))));
  Node left(std::move(lref), page_size);
  Node right(std::move(rref), page_size);

  const size_t payload = page_size - Node::kHeaderSize;
  const size_t sep_cost =
      left.is_leaf() ? 0
                     : Node::InternalCellSize(parent->Key(li).size()) + 2;

  if (left.UsedBytes() + right.UsedBytes() + sep_cost <= payload) {
    return MergeChildren(parent, li, &left, &right);
  }

  // Borrow towards the underfull side. If the parent cannot take the new
  // separator key (rare: longer key, full parent) we tolerate the
  // underflow — correctness is unaffected, occupancy is best-effort.
  const bool left_needy = IsUnderfull(left);
  if (left.is_leaf()) {
    if (left_needy) {
      while (IsUnderfull(left) && right.count() > 1) {
        bool ok = left.LeafInsert(left.count(), right.Key(0), right.Value(0));
        if (!ok) break;
        right.Remove(0);
      }
      ReplaceParentKey(parent, li, right.Key(0));
    } else {
      while (IsUnderfull(right) && left.count() > 1) {
        uint16_t last = static_cast<uint16_t>(left.count() - 1);
        bool ok = right.LeafInsert(0, left.Key(last), left.Value(last));
        if (!ok) break;
        left.Remove(last);
      }
      ReplaceParentKey(parent, li, right.Key(0));
    }
    return Status::OK();
  }

  // Internal rotation, one entry at a time.
  if (left_needy) {
    while (IsUnderfull(left) && right.count() > 1) {
      const std::string sep = parent->Key(li).ToString();
      const std::string new_sep = right.Key(0).ToString();
      if (!ReplaceParentKey(parent, li, Slice(new_sep))) break;
      bool ok = left.InternalInsert(left.count(), Slice(sep), left.next());
      assert(ok);
      (void)ok;
      left.set_next(right.Child(0));
      right.Remove(0);
    }
  } else {
    while (IsUnderfull(right) && left.count() > 1) {
      const std::string sep = parent->Key(li).ToString();
      const uint16_t last = static_cast<uint16_t>(left.count() - 1);
      const std::string new_sep = left.Key(last).ToString();
      if (!ReplaceParentKey(parent, li, Slice(new_sep))) break;
      bool ok = right.InternalInsert(0, Slice(sep), left.next());
      assert(ok);
      (void)ok;
      left.set_next(left.Child(last));
      left.Remove(last);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------- bulk load

Status BTree::BulkLoad(
    const std::function<bool(std::string* key, std::string* value)>& next,
    double fill) {
  if (count_ != 0) return Status::InvalidArgument("bulk load into non-empty tree");
  if (fill <= 0.0 || fill > 1.0) {
    return Status::InvalidArgument("fill must be in (0, 1]");
  }
  const uint32_t page_size = pool_->pager()->page_size();
  const size_t payload = page_size - Node::kHeaderSize;
  const size_t target = static_cast<size_t>(payload * fill);

  // Level 0: pack leaves left to right, remembering each leaf's first key.
  std::vector<InternalEntry> level;  // (first key, page) of each node
  {
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref, pool_->New());
    Node::Init(&ref, Node::Type::kLeaf, page_size);
    Node leaf(std::move(ref), page_size);
    bool leaf_empty = true;
    std::string prev_key;
    std::string key, value;
    while (next(&key, &value)) {
      if (!leaf_empty && !(prev_key < key)) {
        return Status::InvalidArgument("bulk load input not sorted/unique");
      }
      const size_t cell = Node::LeafCellSize(key.size(), value.size()) + 2;
      if (cell > Node::MaxCellSize(page_size)) {
        return Status::InvalidArgument("key/value too large for page size");
      }
      if (!leaf_empty && leaf.UsedBytes() + cell > target) {
        // Start a new leaf and chain it.
        PageRef nref;
        ZDB_ASSIGN_OR_RETURN(nref, pool_->New());
        Node::Init(&nref, Node::Type::kLeaf, page_size);
        Node nleaf(std::move(nref), page_size);
        leaf.set_next(nleaf.id());
        leaf = std::move(nleaf);
        leaf_empty = true;
      }
      if (leaf_empty) {
        level.push_back({key, leaf.id()});
        leaf_empty = false;
      }
      bool ok = leaf.LeafInsert(leaf.count(), Slice(key), Slice(value));
      assert(ok);
      (void)ok;
      prev_key = key;
      ++count_;
    }
    leaf.set_next(kInvalidPageId);
    if (count_ == 0) {
      // Empty input: the single empty leaf becomes the root.
      root_ = leaf.id();
      height_ = 1;
      return StoreMeta();
    }
  }

  // Upper levels until a single node remains.
  height_ = 1;
  while (level.size() > 1) {
    std::vector<InternalEntry> parent_level;
    size_t i = 0;
    while (i < level.size()) {
      PageRef ref;
      ZDB_ASSIGN_OR_RETURN(ref, pool_->New());
      Node::Init(&ref, Node::Type::kInternal, page_size);
      Node inode(std::move(ref), page_size);
      parent_level.push_back({level[i].key, inode.id()});
      // First child is the rightmost until another arrives.
      inode.set_next(level[i].child);
      ++i;
      while (i < level.size()) {
        const size_t cell = Node::InternalCellSize(level[i].key.size()) + 2;
        if (inode.UsedBytes() + cell > target) break;
        // Push current rightmost down into a cell keyed by the incoming
        // node's first key, then adopt the incoming node as rightmost.
        bool ok = inode.InternalInsert(inode.count(), Slice(level[i].key),
                                       inode.next());
        assert(ok);
        (void)ok;
        inode.set_next(level[i].child);
        ++i;
      }
    }
    level = std::move(parent_level);
    ++height_;
  }
  root_ = level[0].child;
  return StoreMeta();
}

// ---------------------------------------------------------------- checks

Status BTree::CheckInvariants() const {
  uint32_t leaf_depth = 0;
  uint64_t entries = 0;
  PageId prev_leaf = kInvalidPageId;
  ZDB_RETURN_IF_ERROR(CheckRec(root_, 1, std::nullopt, std::nullopt,
                               &leaf_depth, &entries, &prev_leaf));
  if (entries != count_) {
    return Status::Corruption("entry count mismatch: stored " +
                              std::to_string(count_) + " found " +
                              std::to_string(entries));
  }
  if (leaf_depth != height_) {
    return Status::Corruption("height mismatch");
  }
  if (prev_leaf != kInvalidPageId) {
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref,
                         const_cast<BufferPool*>(pool_)->Fetch(prev_leaf));
    Node node(std::move(ref), pool_->pager()->page_size());
    if (node.next() != kInvalidPageId) {
      return Status::Corruption("last leaf has a right sibling");
    }
  }
  return Status::OK();
}

Status BTree::CheckRec(PageId page, uint32_t depth,
                       const std::optional<std::string>& lower,
                       const std::optional<std::string>& upper,
                       uint32_t* leaf_depth, uint64_t* entries,
                       PageId* prev_leaf) const {
  const uint32_t page_size = pool_->pager()->page_size();
  PageRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, const_cast<BufferPool*>(pool_)->Fetch(page));
  Node node(std::move(ref), page_size);

  // Keys strictly ascending and within (lower, upper].
  for (uint16_t i = 0; i < node.count(); ++i) {
    const Slice k = node.Key(i);
    if (i > 0 && node.Key(i - 1).compare(k) >= 0) {
      return Status::Corruption("keys out of order in page " +
                                std::to_string(page));
    }
    if (lower && k.compare(Slice(*lower)) < 0) {
      return Status::Corruption("key below lower bound in page " +
                                std::to_string(page));
    }
    if (upper && k.compare(Slice(*upper)) >= 0) {
      return Status::Corruption("key above upper bound in page " +
                                std::to_string(page));
    }
  }

  if (node.is_leaf()) {
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at different depths");
    }
    if (*prev_leaf != kInvalidPageId) {
      PageRef pref;
      ZDB_ASSIGN_OR_RETURN(pref,
                           const_cast<BufferPool*>(pool_)->Fetch(*prev_leaf));
      Node prev(std::move(pref), page_size);
      if (prev.next() != page) {
        return Status::Corruption("broken leaf chain at page " +
                                  std::to_string(page));
      }
    }
    *prev_leaf = page;
    *entries += node.count();
    return Status::OK();
  }

  for (uint16_t i = 0; i <= node.count(); ++i) {
    std::optional<std::string> lo =
        (i == 0) ? lower : std::make_optional(node.Key(i - 1).ToString());
    std::optional<std::string> hi =
        (i == node.count()) ? upper
                            : std::make_optional(node.Key(i).ToString());
    ZDB_RETURN_IF_ERROR(CheckRec(node.Child(i), depth + 1, lo, hi,
                                 leaf_depth, entries, prev_leaf));
  }
  return Status::OK();
}

Result<BTreeStats> BTree::ComputeStats() const {
  const uint32_t page_size = pool_->pager()->page_size();
  BTreeStats stats;
  stats.height = height_;
  stats.entries = count_;
  double fill_sum = 0.0;

  // Iterative BFS over the tree.
  std::vector<PageId> frontier{root_};
  while (!frontier.empty()) {
    std::vector<PageId> next_level;
    for (PageId id : frontier) {
      PageRef ref;
      ZDB_ASSIGN_OR_RETURN(ref, const_cast<BufferPool*>(pool_)->Fetch(id));
      Node node(std::move(ref), page_size);
      if (node.is_leaf()) {
        ++stats.leaf_pages;
        fill_sum += static_cast<double>(node.UsedBytes()) /
                    (page_size - Node::kHeaderSize);
      } else {
        ++stats.internal_pages;
        for (uint16_t i = 0; i <= node.count(); ++i) {
          next_level.push_back(node.Child(i));
        }
      }
    }
    frontier = std::move(next_level);
  }
  if (stats.leaf_pages > 0) stats.avg_leaf_fill = fill_sum / stats.leaf_pages;
  return stats;
}

}  // namespace zdb
