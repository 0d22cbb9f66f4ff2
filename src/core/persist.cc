// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Index persistence. Checkpoint() serializes the index state into a
// master page plus linked directory-chain pages for the object and
// polygon stores; Open() restores an index from the master page. The
// B+-tree persists through its own meta page.
//
// Master page layout:
//   0   u32  magic "zsp1"
//   4   u32  version
//   8   f64 x4  world rect
//   40  u32  grid_bits
//   44  u8   flags (bit 0: store_mbr_in_leaf, bit 1: use_bigmin)
//   48  data policy  (21 bytes, see EncodePolicy)
//   72  query policy (21 bytes)
//   96  u32  btree meta page
//   100 u64  level mask
//   108 u64  live objects
//   116 u64  build objects
//   124 u64  build index entries
//   132 f64  build total error
//   140 u32  object store next oid
//   144 u32  object store directory chain head
//   148 u32  polygon store directory chain head
//
// Directory chain page: u32 next | u32 count | u32 page ids...

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "core/spatial_index.h"

namespace zdb {

namespace {

constexpr uint32_t kMasterMagic = 0x7a737031;  // "zsp1"
constexpr uint32_t kVersion = 1;

void EncodePolicy(char* p, const DecomposeOptions& o) {
  p[0] = static_cast<char>(o.policy);
  EncodeFixed32(p + 1, o.max_elements);
  double e = o.max_error;
  std::memcpy(p + 5, &e, 8);
  EncodeFixed32(p + 13, o.max_level);
  EncodeFixed32(p + 17, o.hard_cap);
}

DecomposeOptions DecodePolicy(const char* p) {
  DecomposeOptions o;
  o.policy = static_cast<DecomposeOptions::Policy>(p[0]);
  o.max_elements = DecodeFixed32(p + 1);
  std::memcpy(&o.max_error, p + 5, 8);
  o.max_level = DecodeFixed32(p + 13);
  o.hard_cap = DecodeFixed32(p + 17);
  return o;
}

/// Writes `ids` into a fresh chain of pages; returns the head page.
Result<PageId> WriteChain(BufferPool* pool, const std::vector<PageId>& ids) {
  const uint32_t page_size = pool->pager()->page_size();
  const uint32_t per_page = (page_size - 8) / 4;
  PageId head = kInvalidPageId;
  PageId prev = kInvalidPageId;
  size_t i = 0;
  if (ids.empty()) {
    // Still allocate one empty page so the head is always valid.
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref, pool->New());
    EncodeFixed32(ref.mutable_data(), kInvalidPageId);
    EncodeFixed32(ref.mutable_data() + 4, 0);
    return ref.id();
  }
  while (i < ids.size()) {
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref, pool->New());
    const uint32_t n =
        static_cast<uint32_t>(std::min<size_t>(per_page, ids.size() - i));
    char* p = ref.mutable_data();
    EncodeFixed32(p, kInvalidPageId);
    EncodeFixed32(p + 4, n);
    for (uint32_t j = 0; j < n; ++j) {
      EncodeFixed32(p + 8 + 4 * j, ids[i + j]);
    }
    if (head == kInvalidPageId) {
      head = ref.id();
    } else {
      PageRef pref;
      ZDB_ASSIGN_OR_RETURN(pref, pool->Fetch(prev));
      EncodeFixed32(pref.mutable_data(), ref.id());
    }
    prev = ref.id();
    i += n;
  }
  return head;
}

Result<std::vector<PageId>> ReadChain(BufferPool* pool, PageId head) {
  std::vector<PageId> ids;
  PageId page = head;
  while (page != kInvalidPageId) {
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref, pool->Fetch(page));
    const char* p = ref.data();
    const PageId next = DecodeFixed32(p);
    const uint32_t n = DecodeFixed32(p + 4);
    for (uint32_t j = 0; j < n; ++j) {
      ids.push_back(DecodeFixed32(p + 8 + 4 * j));
    }
    page = next;
  }
  return ids;
}

Status FreeChain(BufferPool* pool, PageId head) {
  PageId page = head;
  while (page != kInvalidPageId) {
    PageId next;
    {
      PageRef ref;
      ZDB_ASSIGN_OR_RETURN(ref, pool->Fetch(page));
      next = DecodeFixed32(ref.data());
    }
    ZDB_RETURN_IF_ERROR(pool->Delete(page));
    page = next;
  }
  return Status::OK();
}

}  // namespace

Result<PageId> SpatialIndex::Checkpoint() {
  // A checkpoint rewrites directory chains and the master page; it is a
  // writer section even though the logical contents do not change (and
  // takes commit_mu_ first to serialize with the group-commit thread).
  MutexLock commit(commit_mu_);
  ZDB_RETURN_IF_ERROR(WritableLocked());
  WriterSection section(this);
  return CheckpointLocked();
}

Result<PageId> SpatialIndex::CheckpointLocked() {
  // The checkpoint's pages (the B+-tree meta page, the directory chains
  // and the master page) are never read through a snapshot, so its
  // writes save no before-images: those would outlive every pin until
  // the next publish, and lift the chain bound above the current epoch
  // so that every snapshot fetch took the chain mutex meanwhile.
  struct Unversioned {
    BufferPool* pool;
    uint64_t stamp;
    ~Unversioned() { pool->ArmVersioning(stamp); }
  } unversioned{pool_, pool_->versioning_stamp()};
  pool_->ArmVersioning(0);

  ZDB_RETURN_IF_ERROR(btree_->Flush());

  // Rewrite the directory chains (free previous versions first).
  if (obj_dir_chain_ != kInvalidPageId) {
    ZDB_RETURN_IF_ERROR(FreeChain(pool_, obj_dir_chain_));
  }
  if (poly_dir_chain_ != kInvalidPageId) {
    ZDB_RETURN_IF_ERROR(FreeChain(pool_, poly_dir_chain_));
  }
  ZDB_ASSIGN_OR_RETURN(obj_dir_chain_, WriteChain(pool_, store_->pages()));
  ZDB_ASSIGN_OR_RETURN(poly_dir_chain_, WriteChain(pool_, polys_->pages()));

  // Scoped so the master-page pin is provably released before returning:
  // Checkpoint() leaves no internal pins behind, and a following
  // BufferPool::FlushAll() only fails if the *caller* still holds
  // PageRefs on dirty pages (and then with a status naming them).
  {
    PageRef master;
    if (master_page_ == kInvalidPageId) {
      ZDB_ASSIGN_OR_RETURN(master, pool_->New());
      master_page_ = master.id();
    } else {
      ZDB_ASSIGN_OR_RETURN(master, pool_->Fetch(master_page_));
    }
    char* p = master.mutable_data();
    std::memset(p, 0, 152);
    EncodeFixed32(p, kMasterMagic);
    EncodeFixed32(p + 4, kVersion);
    std::memcpy(p + 8, &options_.world.xlo, 8);
    std::memcpy(p + 16, &options_.world.ylo, 8);
    std::memcpy(p + 24, &options_.world.xhi, 8);
    std::memcpy(p + 32, &options_.world.yhi, 8);
    EncodeFixed32(p + 40, options_.grid_bits);
    p[44] = static_cast<char>((options_.store_mbr_in_leaf ? 1 : 0) |
                              (options_.use_bigmin ? 2 : 0));
    EncodePolicy(p + 48, options_.data);
    EncodePolicy(p + 72, options_.query);
    EncodeFixed32(p + 96, btree_->meta_page());
    EncodeFixed64(p + 100, level_mask_);
    EncodeFixed64(p + 108, live_objects_);
    EncodeFixed64(p + 116, build_stats_.objects);
    EncodeFixed64(p + 124, build_stats_.index_entries);
    std::memcpy(p + 132, &build_stats_.total_error, 8);
    EncodeFixed32(p + 140, store_->size());
    EncodeFixed32(p + 144, obj_dir_chain_);
    EncodeFixed32(p + 148, poly_dir_chain_);
  }
  return master_page_;
}

Status SpatialIndex::ReloadLocked() {
  // Quiesce snapshot readers first: they hold no lock, but a pinned
  // read may be mid-flight, loading frames the Discard below drops or
  // dereferencing the handles this reload reseats. The barrier waits
  // those out and blocks new snapshot scopes until the reload
  // finishes; the caller's commit_mu_ keeps SpatialJoin, the one live
  // reader, out.
  epoch_mgr_->BeginQuiesce();
  Status st = ReloadUnquiescedLocked();
  epoch_mgr_->EndQuiesce();
  return st;
}

Status SpatialIndex::ReloadUnquiescedLocked() {
  if (master_page_ == kInvalidPageId) {
    return Status::InvalidArgument("reload without a prior checkpoint");
  }
  // Drop the B+-tree/store handles first (they keep no pins, but their
  // in-memory state is stale), then the cache, then re-read everything
  // from the master page — Open()'s restore logic applied in place. The
  // options are immutable, so only the dynamic state is re-decoded.
  btree_.reset();
  store_.reset();
  polys_.reset();
  ZDB_RETURN_IF_ERROR(pool_->Discard());

  PageId btree_meta, obj_chain, poly_chain;
  uint32_t next_oid;
  {
    PageRef master;
    ZDB_ASSIGN_OR_RETURN(master, pool_->Fetch(master_page_));
    const char* p = master.data();
    if (DecodeFixed32(p) != kMasterMagic) {
      return Status::Corruption("bad spatial-index master page");
    }
    btree_meta = DecodeFixed32(p + 96);
    level_mask_ = DecodeFixed64(p + 100);
    live_objects_.store(DecodeFixed64(p + 108),
                        std::memory_order_relaxed);
    build_stats_.objects = DecodeFixed64(p + 116);
    build_stats_.index_entries = DecodeFixed64(p + 124);
    std::memcpy(&build_stats_.total_error, p + 132, 8);
    next_oid = DecodeFixed32(p + 140);
    obj_chain = DecodeFixed32(p + 144);
    poly_chain = DecodeFixed32(p + 148);
  }
  ZDB_ASSIGN_OR_RETURN(btree_, BTree::Open(pool_, btree_meta));
  store_ = std::make_unique<ObjectStore>(pool_);
  polys_ = std::make_unique<PolygonStore>(pool_);
  std::vector<PageId> obj_pages, poly_pages;
  ZDB_ASSIGN_OR_RETURN(obj_pages, ReadChain(pool_, obj_chain));
  ZDB_ASSIGN_OR_RETURN(poly_pages, ReadChain(pool_, poly_chain));
  store_->Restore(std::move(obj_pages), next_oid);
  polys_->RestorePages(std::move(poly_pages));
  obj_dir_chain_ = obj_chain;
  poly_dir_chain_ = poly_chain;
  return Status::OK();
}

Result<std::unique_ptr<SpatialIndex>> SpatialIndex::Open(BufferPool* pool,
                                                         PageId master_page) {
  SpatialIndexOptions options;
  PageId btree_meta;
  uint64_t level_mask, live_objects;
  IndexBuildStats build;
  uint32_t next_oid;
  PageId obj_chain, poly_chain;
  {
    PageRef master;
    ZDB_ASSIGN_OR_RETURN(master, pool->Fetch(master_page));
    const char* p = master.data();
    if (DecodeFixed32(p) != kMasterMagic) {
      return Status::Corruption("bad spatial-index master page");
    }
    if (DecodeFixed32(p + 4) != kVersion) {
      return Status::Corruption("unsupported spatial-index version");
    }
    std::memcpy(&options.world.xlo, p + 8, 8);
    std::memcpy(&options.world.ylo, p + 16, 8);
    std::memcpy(&options.world.xhi, p + 24, 8);
    std::memcpy(&options.world.yhi, p + 32, 8);
    options.grid_bits = DecodeFixed32(p + 40);
    options.store_mbr_in_leaf = (p[44] & 1) != 0;
    options.use_bigmin = (p[44] & 2) != 0;
    options.data = DecodePolicy(p + 48);
    options.query = DecodePolicy(p + 72);
    btree_meta = DecodeFixed32(p + 96);
    level_mask = DecodeFixed64(p + 100);
    live_objects = DecodeFixed64(p + 108);
    build.objects = DecodeFixed64(p + 116);
    build.index_entries = DecodeFixed64(p + 124);
    std::memcpy(&build.total_error, p + 132, 8);
    next_oid = DecodeFixed32(p + 140);
    obj_chain = DecodeFixed32(p + 144);
    poly_chain = DecodeFixed32(p + 148);
  }

  std::unique_ptr<SpatialIndex> index(new SpatialIndex(pool, options));
  ZDB_ASSIGN_OR_RETURN(index->btree_, BTree::Open(pool, btree_meta));
  index->store_ = std::make_unique<ObjectStore>(pool);
  index->polys_ = std::make_unique<PolygonStore>(pool);

  std::vector<PageId> obj_pages, poly_pages;
  ZDB_ASSIGN_OR_RETURN(obj_pages, ReadChain(pool, obj_chain));
  ZDB_ASSIGN_OR_RETURN(poly_pages, ReadChain(pool, poly_chain));
  index->store_->Restore(std::move(obj_pages), next_oid);
  index->polys_->RestorePages(std::move(poly_pages));

  {
    // Uncontended (the index is not published yet), but the restored
    // fields carry GUARDED_BY contracts, so take their lock for real.
    MutexLock commit(index->commit_mu_);
    index->level_mask_ = level_mask;
    index->live_objects_ = live_objects;
    index->build_stats_ = build;
    index->master_page_ = master_page;
    index->obj_dir_chain_ = obj_chain;
    index->poly_dir_chain_ = poly_chain;
  }
  index->StartSnapshots();
  return index;
}

}  // namespace zdb
