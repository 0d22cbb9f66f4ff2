// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Bulk loading: decompose everything, sort the entry keys once, and
// build the B+-tree bottom-up. The paper's incremental-insert cost grows
// with redundancy (E6); bulk loading pays the redundancy once in a sort
// instead of k random descents per object (ablation A5).

#include <algorithm>

#include "core/spatial_index.h"

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
  std::vector<LeafEntry> entries;
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
    ZDB_RETURN_IF_ERROR(IndexObjectLocked(oid, mbr, nullptr, &entries));
  }

  std::sort(entries.begin(), entries.end(),
            [](const LeafEntry& a, const LeafEntry& b) {
              return a.first < b.first;
            });

  size_t i = 0;
  return btree_->BulkLoad(
      [&](std::string* key, std::string* val) {
        if (i >= entries.size()) return false;
        *key = entries[i].first;
        *val = entries[i].second;
        ++i;
        return true;
      },
      fill);
}

}  // namespace zdb
