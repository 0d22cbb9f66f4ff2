// Copyright (c) zdb authors. Licensed under the MIT license.

#include "btree/node.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "storage/pager.h"

namespace zdb {
namespace {

constexpr uint32_t kPageSize = 512;

class NodeTest : public ::testing::Test {
 protected:
  NodeTest()
      : pager_(Pager::OpenInMemory(kPageSize)),
        pool_(pager_.get(), 8) {}

  Node MakeNode(Node::Type type) {
    PageRef ref = pool_.New().value();
    Node::Init(&ref, type, kPageSize);
    return Node(std::move(ref), kPageSize);
  }

  std::unique_ptr<Pager> pager_;
  BufferPool pool_;
};

TEST_F(NodeTest, EmptyNode) {
  Node leaf = MakeNode(Node::Type::kLeaf);
  EXPECT_TRUE(leaf.is_leaf());
  EXPECT_EQ(leaf.count(), 0);
  EXPECT_EQ(leaf.next(), kInvalidPageId);
  EXPECT_EQ(leaf.UsedBytes(), 0u);
  EXPECT_EQ(leaf.FreeBytes(), kPageSize - Node::kHeaderSize);

  Node internal = MakeNode(Node::Type::kInternal);
  EXPECT_FALSE(internal.is_leaf());
}

TEST_F(NodeTest, LeafInsertAndLookup) {
  Node leaf = MakeNode(Node::Type::kLeaf);
  ASSERT_TRUE(leaf.LeafInsert(0, "banana", "yellow"));
  ASSERT_TRUE(leaf.LeafInsert(0, "apple", "red"));
  ASSERT_TRUE(leaf.LeafInsert(2, "cherry", "dark"));
  ASSERT_EQ(leaf.count(), 3);
  EXPECT_EQ(leaf.Key(0).ToString(), "apple");
  EXPECT_EQ(leaf.Key(1).ToString(), "banana");
  EXPECT_EQ(leaf.Key(2).ToString(), "cherry");
  EXPECT_EQ(leaf.Value(0).ToString(), "red");
  EXPECT_EQ(leaf.Value(2).ToString(), "dark");

  EXPECT_EQ(leaf.LowerBound("banana"), 1);
  EXPECT_EQ(leaf.UpperBound("banana"), 2);
  EXPECT_EQ(leaf.LowerBound("apricot"), 1);
  EXPECT_EQ(leaf.LowerBound(""), 0);
  EXPECT_EQ(leaf.LowerBound("zebra"), 3);
}

TEST_F(NodeTest, RemoveReclaimsSpaceViaCompaction) {
  Node leaf = MakeNode(Node::Type::kLeaf);
  int inserted = 0;
  while (leaf.LeafInsert(leaf.count(),
                         "key" + std::to_string(1000 + inserted),
                         std::string(20, 'v'))) {
    ++inserted;
  }
  ASSERT_GT(inserted, 5);
  const size_t full_free = leaf.FreeBytes();

  // Remove from the middle: space is counted as fragmented...
  leaf.Remove(static_cast<uint16_t>(inserted / 2));
  EXPECT_GT(leaf.FreeBytes(), full_free);
  // ...and reusable through insert (which compacts on demand).
  EXPECT_TRUE(leaf.LeafInsert(leaf.count(), "zzz", std::string(20, 'v')));
}

TEST_F(NodeTest, LeafSetValueGrowAndRestore) {
  Node leaf = MakeNode(Node::Type::kLeaf);
  ASSERT_TRUE(leaf.LeafInsert(0, "k", "small"));
  ASSERT_TRUE(leaf.LeafSetValue(0, "a-bigger-value"));
  EXPECT_EQ(leaf.Value(0).ToString(), "a-bigger-value");

  // Fill the page, then try to grow a value beyond free space: the
  // original entry must survive.
  int i = 0;
  while (leaf.LeafInsert(leaf.count(), "pad" + std::to_string(100 + i),
                         std::string(24, 'p'))) {
    ++i;
  }
  const std::string before = leaf.Value(0).ToString();
  EXPECT_FALSE(leaf.LeafSetValue(0, std::string(400, 'x')));
  EXPECT_EQ(leaf.Value(0).ToString(), before);
}

TEST_F(NodeTest, InternalChildRouting) {
  Node node = MakeNode(Node::Type::kInternal);
  node.set_next(99);  // rightmost child
  ASSERT_TRUE(node.InternalInsert(0, "m", 10));
  ASSERT_TRUE(node.InternalInsert(1, "t", 20));
  ASSERT_EQ(node.count(), 2);
  EXPECT_EQ(node.Child(0), 10u);
  EXPECT_EQ(node.Child(1), 20u);
  EXPECT_EQ(node.Child(2), 99u);

  node.SetChild(0, 11);
  node.SetChild(2, 98);
  EXPECT_EQ(node.Child(0), 11u);
  EXPECT_EQ(node.Child(2), 98u);
  EXPECT_EQ(node.Key(0).ToString(), "m");
}

TEST_F(NodeTest, InsertFailsWhenFull) {
  Node leaf = MakeNode(Node::Type::kLeaf);
  int i = 0;
  while (leaf.LeafInsert(leaf.count(), "key" + std::to_string(1000 + i),
                         std::string(30, 'v'))) {
    ++i;
  }
  EXPECT_FALSE(
      leaf.LeafInsert(0, "another-key", std::string(30, 'v')));
  // Node is still intact.
  EXPECT_EQ(leaf.count(), i);
  EXPECT_EQ(leaf.Key(0).ToString(), "key1000");
}

TEST_F(NodeTest, CompactPreservesOrderAfterChurn) {
  Node leaf = MakeNode(Node::Type::kLeaf);
  Random rng(9);
  std::vector<std::string> keys;
  for (int round = 0; round < 200; ++round) {
    if (!keys.empty() && rng.Bernoulli(0.4)) {
      const size_t victim = rng.Uniform(keys.size());
      leaf.Remove(static_cast<uint16_t>(victim));
      keys.erase(keys.begin() + victim);
    } else {
      const std::string k = "k" + std::to_string(rng.Uniform(100000));
      // Find sorted position; skip duplicates.
      size_t pos = 0;
      bool dup = false;
      for (; pos < keys.size(); ++pos) {
        if (keys[pos] == k) dup = true;
        if (keys[pos] >= k) break;
      }
      if (dup) continue;
      if (leaf.LeafInsert(static_cast<uint16_t>(pos), k, "v")) {
        keys.insert(keys.begin() + pos, k);
      }
    }
  }
  leaf.Compact();
  ASSERT_EQ(leaf.count(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(leaf.Key(static_cast<uint16_t>(i)).ToString(), keys[i]);
  }
}

TEST_F(NodeTest, MaxCellSizeLeavesRoomForFour) {
  const size_t max_cell = Node::MaxCellSize(kPageSize);
  Node leaf = MakeNode(Node::Type::kLeaf);
  const std::string big(max_cell - 8, 'b');
  EXPECT_TRUE(leaf.LeafInsert(0, "a", big));
  EXPECT_TRUE(leaf.LeafInsert(1, "b", big));
  EXPECT_TRUE(leaf.LeafInsert(2, "c", big));
}

/// The live payload by walking every cell: slots plus serialized cells.
size_t WalkUsedBytes(const Node& node) {
  size_t used = 2u * node.count();
  for (uint16_t i = 0; i < node.count(); ++i) {
    used += node.is_leaf() ? Node::LeafCellSize(node.Key(i).size(),
                                                node.Value(i).size())
                           : Node::InternalCellSize(node.Key(i).size());
  }
  return used;
}

// UsedBytes is computed from the header (page minus header minus free
// space); it must equal the cell walk after any sequence of inserts,
// removes, value rewrites and compactions, on both node kinds.
TEST_F(NodeTest, UsedBytesMatchesCellWalkUnderRandomChurn) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    for (Node::Type type : {Node::Type::kLeaf, Node::Type::kInternal}) {
      Node node = MakeNode(type);
      for (int step = 0; step < 300; ++step) {
        const uint64_t op = rng.Uniform(10);
        const uint16_t n = node.count();
        if (op < 5) {
          const std::string key(1 + rng.Uniform(24), 'k');
          const uint16_t at = static_cast<uint16_t>(rng.Uniform(n + 1u));
          if (node.is_leaf()) {
            (void)node.LeafInsert(at, key, std::string(rng.Uniform(40), 'v'));
          } else {
            (void)node.InternalInsert(at, key,
                                      static_cast<PageId>(rng.Uniform(999)));
          }
        } else if (op < 8 && n > 0) {
          node.Remove(static_cast<uint16_t>(rng.Uniform(n)));
        } else if (op < 9 && n > 0 && node.is_leaf()) {
          (void)node.LeafSetValue(static_cast<uint16_t>(rng.Uniform(n)),
                                  std::string(rng.Uniform(60), 'w'));
        } else {
          node.Compact();
        }
        ASSERT_EQ(node.UsedBytes(), WalkUsedBytes(node)) << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace zdb
