// Copyright (c) zdb authors. Licensed under the MIT license.
//
// CommitSink: the hook a replication log sink implements to observe the
// committed write stream of a zdb::DB. The DB calls OnCommit exactly
// once per successfully published batch (DB::Apply or
// DB::ApplyReplicated), in strictly increasing epoch order, with the
// batch *resolved* — every insert carries the oid the DB actually
// assigned, so replaying the batch on another process with preassigned
// oids reproduces the leader's object ids byte-for-byte.
//
// Contract:
//   * OnCommit runs on the committing caller's thread, under the DB's
//     write mutex, right after the batch published on every involved
//     shard — it must not call back into the DB, and it should be cheap
//     (copy/enqueue, not serialize-and-send; the log shipper does its
//     encoding on a dedicated thread): every other writer waits for it.
//   * `epoch` is DB::write_epoch() observed immediately after the batch
//     published: the engine's epoch on a one-shard DB, the DB's batch
//     counter on a sharded one. Epochs are strictly increasing across
//     OnCommit calls but may have holes: a one-shard DB's engine also
//     bumps its epoch on group rollbacks, which produce no record.
//   * Durability is NOT implied: the batch is reader-visible but may
//     still roll back if the process crashes before its group fsync.
//     A follower replica therefore tracks the leader's *published*
//     stream; see DESIGN.md "Replication & log shipping" for why that
//     is the right trade for bounded-staleness reads.

#ifndef ZDB_CORE_COMMIT_SINK_H_
#define ZDB_CORE_COMMIT_SINK_H_

#include <cstdint>

#include "core/spatial_index.h"

namespace zdb {

class CommitSink {
 public:
  virtual ~CommitSink() = default;

  /// One committed batch. `resolved` ops: inserts carry the assigned oid
  /// in WriteOp::preassigned; erases are as submitted.
  virtual void OnCommit(uint64_t epoch, const WriteBatch& resolved) = 0;
};

}  // namespace zdb

#endif  // ZDB_CORE_COMMIT_SINK_H_
