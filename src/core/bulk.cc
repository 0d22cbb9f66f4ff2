// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Bulk loading: decompose everything, sort the entry keys once, and
// build the B+-tree bottom-up. The paper's incremental-insert cost grows
// with redundancy (E6); bulk loading pays the redundancy once in a sort
// instead of k random descents per object (ablation A5).

#include <algorithm>

#include "core/spatial_index.h"
#include "zorder/zkey.h"

namespace zdb {

Status SpatialIndex::BulkLoad(const std::vector<Rect>& data, double fill,
                              const std::vector<ObjectId>* oids) {
  MutexLock commit(commit_mu_);
  ZDB_RETURN_IF_ERROR(WritableLocked());
  WriterSection section(this);
  if (btree_->size() != 0 || store_->size() != 0) {
    return Status::InvalidArgument("bulk load into non-empty index");
  }
  if (oids != nullptr && oids->size() != data.size()) {
    return Status::InvalidArgument("bulk load oids/data size mismatch");
  }
  // A failure after the first store append may have left a partial load
  // in memory; PublishOrRollbackLocked then recovers at the last durable
  // group boundary.
  bool mutated = false;
  const Status st = BulkLoadLocked(data, fill, oids, &mutated);
  ZDB_RETURN_IF_ERROR(PublishOrRollbackLocked(st, mutated));
  section.End();
  return CommitInlineLocked();
}

Status SpatialIndex::BulkLoadLocked(const std::vector<Rect>& data,
                                    double fill,
                                    const std::vector<ObjectId>* oids,
                                    bool* mutated) {
  std::string value;
  if (options_.store_mbr_in_leaf) value.resize(kEncodedRectSize);

  struct Entry {
    std::string key;
    std::string value;
  };
  std::vector<Entry> entries;
  entries.reserve(data.size() * 2);

  for (size_t n = 0; n < data.size(); ++n) {
    const Rect& mbr = data[n];
    if (!mbr.valid()) return Status::InvalidArgument("invalid MBR");
    *mutated = true;
    ObjectId oid;
    if (oids == nullptr) {
      ZDB_ASSIGN_OR_RETURN(oid, store_->Insert(mbr));
    } else {
      oid = (*oids)[n];
      ZDB_RETURN_IF_ERROR(store_->InsertAt(oid, mbr));
    }
    const Decomposition decomp =
        Decompose(mapper_.ToGrid(mbr), options_.grid_bits, options_.data);
    if (options_.store_mbr_in_leaf) EncodeRect(mbr, value.data());
    for (const ZElement& elem : decomp.elements) {
      entries.push_back({EncodeZKey(elem, oid), value});
      level_mask_ |= 1ULL << elem.level;
    }
    ++build_stats_.objects;
    build_stats_.index_entries += decomp.elements.size();
    build_stats_.total_error += decomp.error();
    ++live_objects_;
  }

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });

  size_t i = 0;
  return btree_->BulkLoad(
      [&](std::string* key, std::string* val) {
        if (i >= entries.size()) return false;
        *key = entries[i].key;
        *val = entries[i].value;
        ++i;
        return true;
      },
      fill);
}

}  // namespace zdb
