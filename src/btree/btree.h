// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Disk-based B+-tree with variable-length keys and values over the buffer
// pool. Keys are unique byte strings ordered lexicographically (see
// common/coding.h for order-preserving encodings). Supports point lookup,
// ordered scans via Cursor, deletion with rebalancing (borrow/merge), and
// bottom-up bulk loading from a sorted stream.
//
// Concurrency: safe for any number of concurrent readers (Get/Seek/
// cursor scans) as long as no thread mutates the tree — the read path
// only pins pages through the thread-safe BufferPool and reads immutable
// in-memory metadata. Mutations (Insert/Put/Delete/BulkLoad) require
// external exclusive access; there is no latch-crabbing. SpatialIndex
// provides that exclusion: its reader/writer latch maps queries to
// shared sections and mutations to exclusive ones (see
// core/spatial_index.h), so a BTree owned by a SpatialIndex needs no
// extra locking by the caller.

#ifndef ZDB_BTREE_BTREE_H_
#define ZDB_BTREE_BTREE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "btree/node.h"
#include "common/result.h"
#include "common/slice.h"
#include "storage/buffer_pool.h"

namespace zdb {

class Cursor;

/// Aggregate statistics from a full tree walk (tests and benches).
struct BTreeStats {
  uint64_t entries = 0;
  uint32_t height = 0;
  uint32_t leaf_pages = 0;
  uint32_t internal_pages = 0;
  double avg_leaf_fill = 0.0;  ///< mean used/capacity over leaves

  uint32_t total_pages() const { return leaf_pages + internal_pages; }
};

/// A single-rooted B+-tree. Create() formats a new tree; Open() re-attaches
/// to one previously created in the same pager via its meta page.
class BTree {
 public:
  static Result<std::unique_ptr<BTree>> Create(BufferPool* pool);
  static Result<std::unique_ptr<BTree>> Open(BufferPool* pool,
                                             PageId meta_page);

  /// Meta page id; pass to Open() to re-attach.
  PageId meta_page() const { return meta_page_; }

  /// Inserts a new key. Fails with AlreadyExists if the key is present.
  Status Insert(const Slice& key, const Slice& value);

  /// Inserts or overwrites.
  Status Put(const Slice& key, const Slice& value);

  /// Removes a key. Fails with NotFound if absent.
  Status Delete(const Slice& key);

  /// Point lookup.
  Result<std::string> Get(const Slice& key);

  /// Cursor positioned at the first entry with key >= `key` (may be
  /// invalid if no such entry). The cursor must not outlive the tree and
  /// is invalidated by any mutation.
  Result<Cursor> Seek(const Slice& key);

  /// Cursor at the smallest key.
  Result<Cursor> SeekFirst();

  /// Bottom-up bulk load of a sorted, unique key stream into an empty
  /// tree. `next` returns false when exhausted. `fill` in (0,1] is the
  /// target leaf occupancy.
  Status BulkLoad(
      const std::function<bool(std::string* key, std::string* value)>& next,
      double fill = 0.9);

  uint64_t size() const { return count_; }
  uint32_t height() const { return height_; }

  /// Current root page (captured into snapshot metas by the index
  /// writer under the exclusive latch).
  PageId root() const { return root_; }

  /// Persists the in-memory root/height/count to the meta page. Call
  /// before dropping the tree if it will be re-attached with Open().
  Status Flush();

  /// Full structural audit: key order within and across nodes, separator
  /// bounds, uniform leaf depth, leaf-chain consistency, stored count.
  /// Intended for tests; walks the whole tree.
  Status CheckInvariants() const;

  /// Walks the tree collecting page/fill statistics.
  Result<BTreeStats> ComputeStats() const;

 private:
  friend class Cursor;

  BTree(BufferPool* pool, PageId meta_page)
      : pool_(pool), meta_page_(meta_page) {}

  struct SplitResult {
    bool split = false;
    std::string separator;  ///< first key routed to the right node
    PageId right = kInvalidPageId;
  };

  Status InsertRec(PageId page, const Slice& key, const Slice& value,
                   bool overwrite, SplitResult* out);
  Status SplitLeaf(Node* node, const Slice& key, const Slice& value,
                   SplitResult* out);
  Status SplitInternal(Node* node, const Slice& key, PageId child,
                       SplitResult* out);

  Status DeleteRec(PageId page, const Slice& key, bool* underflow);
  Status RebalanceChild(Node* parent, uint16_t child_pos);
  Status MergeChildren(Node* parent, uint16_t sep_idx, Node* left,
                       Node* right);

  /// Replaces the key of parent cell `idx` keeping its child pointer.
  /// Returns false (leaving the parent unchanged) if space is lacking.
  bool ReplaceParentKey(Node* parent, uint16_t idx, const Slice& new_key);

  bool IsUnderfull(const Node& node) const {
    // Root is exempt; checked by callers.
    return node.UsedBytes() <
           (pool_->pager()->page_size() - Node::kHeaderSize) / 3;
  }

  Status LoadMeta();
  Status StoreMeta();

  /// Root for the read path: the pinned snapshot's root when this tree
  /// is running under an installed SnapshotView (page reads then
  /// resolve through the version chains via BufferPool::Fetch), the
  /// live root otherwise.
  PageId ReadRoot() const {
    if (const SnapshotView* v = SnapshotView::FindBTree(this)) {
      return v->meta->btree_root;
    }
    return root_;
  }

  Status CheckRec(PageId page, uint32_t depth,
                  const std::optional<std::string>& lower,
                  const std::optional<std::string>& upper,
                  uint32_t* leaf_depth, uint64_t* entries,
                  PageId* prev_leaf) const;

  BufferPool* pool_;
  PageId meta_page_;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 1;  // number of levels; 1 == root is a leaf
  uint64_t count_ = 0;
};

}  // namespace zdb

#endif  // ZDB_BTREE_BTREE_H_
