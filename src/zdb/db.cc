// Copyright (c) zdb authors. Licensed under the MIT license.

#include "zdb/db.h"

#include <algorithm>
#include <atomic>

#include "shard/manifest.h"
#include "storage/file.h"

namespace zdb {

namespace {

bool IsMemoryPath(const std::string& path) {
  return path.empty() || path == ":memory:";
}

/// Runs `query(pinned)` and fills the optional `epochs`. A single engine
/// reports the epoch it pinned through `pinned`; the router has no
/// global pin, so a sharded DB brackets the call with write_epoch().
template <typename Query>
auto WithEpochs(const DB& db, EpochRange* epochs, Query query) {
  if (epochs == nullptr) return query(nullptr);
  if (!db.sharded()) {
    auto r = query(&epochs->first);
    epochs->last = epochs->first;
    return r;
  }
  epochs->first = db.write_epoch();
  auto r = query(nullptr);
  epochs->last = db.write_epoch();
  return r;
}

}  // namespace

struct DB::Impl {
  std::unique_ptr<shard::ShardRouter> router;
  bool sharded = false;  ///< N > 1: route writes/queries through router

  /// Replication hook. repl_mu_ serializes {publish, read epoch, emit}
  /// so the sink observes batches in strictly increasing epoch order;
  /// durability waits happen outside it. has_sink is the lock-free fast
  /// path — the unhooked write path is byte-for-byte the old one.
  Mutex repl_mu_;
  CommitSink* sink GUARDED_BY(repl_mu_) = nullptr;
  std::atomic<bool> has_sink{false};
};

DB::~DB() {
  // The router owns the engines; each engine stops its group-commit
  // thread before its pool/pager goes.
  impl_.reset();
}

Status DBOptions::Validate() const {
  if (cache_pages == 0) {
    return Status::InvalidArgument("cache_pages must be >= 1");
  }
  if (shards < 1 || shards > shard::kMaxShards) {
    return Status::InvalidArgument(
        "shards must be in [1, " + std::to_string(shard::kMaxShards) + "]");
  }
  return Status::OK();
}

Result<std::unique_ptr<DB>> DB::Open(const std::string& path,
                                     const DBOptions& options) {
  ZDB_RETURN_IF_ERROR(options.Validate());

  shard::ShardEngineOptions eopt;
  eopt.index = options.index;
  eopt.page_size = options.page_size;
  eopt.cache_pages = options.cache_pages;
  eopt.memory_journal = options.memory_journal;
  eopt.group_commit = options.group_commit;

  // Resolve the shard layout. The stored layout always wins on reopen:
  // a file starting with the shard manifest magic reopens sharded with
  // the stored count, any other non-empty file reopens as a classic
  // single-shard DB, and only a fresh path honours options.shards.
  uint32_t n = options.shards;
  std::vector<std::string> shard_paths;
  if (IsMemoryPath(path)) {
    shard_paths.assign(n, path);
  } else {
    std::unique_ptr<File> main_file;
    ZDB_ASSIGN_OR_RETURN(main_file, PosixFile::Open(path));
    const bool fresh = main_file->Size() == 0;
    if (!fresh && shard::IsManifest(main_file.get())) {
      shard::ShardManifest manifest;
      ZDB_ASSIGN_OR_RETURN(manifest, shard::ReadManifest(main_file.get()));
      n = manifest.shard_count;
    } else if (!fresh) {
      n = 1;
    } else if (n > 1) {
      ZDB_RETURN_IF_ERROR(
          shard::WriteManifest(main_file.get(), shard::ShardManifest{n}));
    }
    main_file.reset();  // release the sniffing handle before the engines open
    if (n == 1) {
      shard_paths.push_back(path);
    } else {
      for (uint32_t s = 0; s < n; ++s) {
        shard_paths.push_back(shard::ShardFilePath(path, s));
      }
    }
  }

  std::vector<std::unique_ptr<shard::ShardEngine>> engines;
  engines.reserve(n);
  for (const std::string& p : shard_paths) {
    std::unique_ptr<shard::ShardEngine> engine;
    ZDB_ASSIGN_OR_RETURN(engine, shard::ShardEngine::Open(p, eopt));
    engines.push_back(std::move(engine));
  }

  std::unique_ptr<DB> db(new DB());
  db->impl_ = std::make_unique<Impl>();
  db->journaled_ = engines[0]->journaled();
  db->impl_->sharded = n > 1;

  // Routing comes from the engines' actual (possibly reopened) index
  // options, not the caller's, so a reopened DB routes exactly as it
  // did when created.
  const SpatialIndexOptions& iopt = engines[0]->index()->options();
  shard::ShardRouting routing(n, iopt.world, iopt.grid_bits);
  db->impl_->router = std::make_unique<shard::ShardRouter>(std::move(engines),
                                                           std::move(routing));
  if (db->impl_->sharded) {
    ZDB_RETURN_IF_ERROR(db->impl_->router->RecoverState());
  }
  return db;
}

// --------------------------------------------------------------- queries

Result<std::vector<ObjectId>> DB::Window(const Rect& window,
                                         QueryStats* stats,
                                         EpochRange* epochs) {
  return WithEpochs(*this, epochs, [&](uint64_t* pinned) {
    if (impl_->sharded) return impl_->router->Window(window, stats);
    return index()->WindowQuery(window, stats, pinned);
  });
}

Result<std::vector<ObjectId>> DB::Point(const zdb::Point& p, QueryStats* stats,
                                        EpochRange* epochs) {
  return WithEpochs(*this, epochs, [&](uint64_t* pinned) {
    if (impl_->sharded) return impl_->router->Point(p, stats);
    return index()->PointQuery(p, stats, pinned);
  });
}

Result<std::vector<ObjectId>> DB::Containment(const Rect& window,
                                              QueryStats* stats) {
  if (impl_->sharded) return impl_->router->Containment(window, stats);
  return index()->ContainmentQuery(window, stats);
}

Result<std::vector<std::pair<ObjectId, double>>> DB::Nearest(
    const zdb::Point& p, size_t k, QueryStats* stats, EpochRange* epochs) {
  return WithEpochs(*this, epochs, [&](uint64_t* pinned) {
    if (impl_->sharded) return impl_->router->Nearest(p, k, stats);
    return index()->NearestNeighbors(p, k, stats, nullptr, pinned);
  });
}

// --------------------------------------------------------------- updates

Result<ObjectId> DB::Insert(const Rect& mbr, uint32_t payload) {
  if (impl_->has_sink.load(std::memory_order_acquire)) {
    // Route through Apply so the mutation reaches the commit sink as a
    // one-op batch (publish-time ack, like the direct path).
    WriteBatch batch;
    batch.Insert(mbr, payload);
    std::vector<ObjectId> ids;
    ZDB_ASSIGN_OR_RETURN(ids, Apply(batch, Durability::kPublished));
    return ids[0];
  }
  if (impl_->sharded) return impl_->router->Insert(mbr, payload);
  return index()->Insert(mbr, payload);
}

Result<ObjectId> DB::InsertPolygon(const Polygon& poly) {
  if (impl_->has_sink.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "InsertPolygon has no batch representation to replicate; "
        "not available while a commit sink is attached");
  }
  if (impl_->sharded) return impl_->router->InsertPolygon(poly);
  return index()->InsertPolygon(poly);
}

Status DB::Erase(ObjectId oid) {
  if (impl_->has_sink.load(std::memory_order_acquire)) {
    WriteBatch batch;
    batch.Erase(oid);
    return Apply(batch, Durability::kPublished).status();
  }
  if (impl_->sharded) return impl_->router->Erase(oid);
  return index()->Erase(oid);
}

Status DB::BulkLoad(const std::vector<Rect>& data, double fill) {
  if (impl_->has_sink.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "BulkLoad bypasses the batch commit path; "
        "not available while a commit sink is attached");
  }
  if (impl_->sharded) return impl_->router->BulkLoad(data, fill);
  return index()->BulkLoad(data, fill);
}

Result<std::vector<ObjectId>> DB::Apply(const WriteBatch& batch,
                                        Durability durability) {
  if (!impl_->has_sink.load(std::memory_order_acquire)) {
    if (impl_->sharded) return impl_->router->Apply(batch, durability);
    return index()->ApplyBatch(batch, durability);
  }

  // Sink attached: publish and emit under repl_mu_ so OnCommit sees
  // batches in strictly increasing epoch order, then satisfy kDurable
  // outside the lock (concurrent committers overlap their fsyncs).
  uint64_t publish_epoch = 0;
  Result<std::vector<ObjectId>> r = std::vector<ObjectId>{};
  {
    MutexLock lock(impl_->repl_mu_);
    if (impl_->sink == nullptr) {
      // Detached between the fast-path check and the lock.
      lock.Unlock();
      if (impl_->sharded) return impl_->router->Apply(batch, durability);
      return index()->ApplyBatch(batch, durability);
    }
    r = impl_->sharded
            ? impl_->router->Apply(batch, Durability::kPublished)
            : index()->ApplyBatch(batch, Durability::kPublished);
    if (!r.ok()) return r;
    if (!batch.empty()) {
      publish_epoch = write_epoch();
      WriteBatch resolved = batch;
      size_t next_inserted = 0;
      for (WriteOp& op : resolved.ops) {
        if (op.kind == WriteOp::Kind::kInsert) {
          op.preassigned = r.value()[next_inserted++];
        }
      }
      impl_->sink->OnCommit(publish_epoch, resolved);
    }
  }
  if (durability == Durability::kDurable && !batch.empty()) {
    ZDB_RETURN_IF_ERROR(WaitDurable(publish_epoch));
  }
  return r;
}

// ----------------------------------------------------------- replication

Status DB::SetCommitSink(CommitSink* sink) {
  MutexLock lock(impl_->repl_mu_);
  if (sink != nullptr && impl_->sink != nullptr && impl_->sink != sink) {
    return Status::InvalidArgument("a commit sink is already attached");
  }
  impl_->sink = sink;
  impl_->has_sink.store(sink != nullptr, std::memory_order_release);
  return Status::OK();
}

Result<std::vector<ObjectId>> DB::ApplyReplicated(const WriteBatch& batch) {
  for (const WriteOp& op : batch.ops) {
    if (op.kind == WriteOp::Kind::kInsert &&
        op.preassigned == kNoPreassignedOid) {
      return Status::InvalidArgument(
          "replicated insert lacks a leader-assigned oid");
    }
  }
  if (impl_->sharded) return impl_->router->ApplyReplicated(batch);
  return index()->ApplyBatch(batch, Durability::kPublished);
}

// ------------------------------------------------------------ durability

Status DB::Checkpoint() { return impl_->router->Checkpoint(); }

Status DB::WaitDurable(uint64_t epoch, uint64_t timeout_ms) {
  if (impl_->sharded) return impl_->router->WaitDurable(epoch, timeout_ms);
  return index()->WaitDurable(epoch, timeout_ms);
}

// -------------------------------------------------------------- plumbing

DBStats DB::Stats() const {
  const shard::ShardRouter* router = impl_->router.get();
  DBStats s;
  s.shards = router->shards();
  s.objects = impl_->sharded ? router->object_count()
                             : router->index(0)->object_count();
  s.write_epoch = impl_->sharded ? router->write_epoch()
                                 : router->index(0)->write_epoch();
  s.durable_epoch = router->index(0)->durable_epoch();
  s.page_size = router->engine(0)->pager()->page_size();
  s.group_commit = router->index(0)->group_commit_active();
  for (uint32_t i = 0; i < router->shards(); ++i) {
    const SpatialIndex* index = router->index(i);
    const Pager* pager = router->engine(i)->pager();
    s.index_entries += index->build_stats().index_entries;
    s.journal_commits += pager->commit_count();
    s.pages += pager->page_count();
    s.durable_epoch = std::min(s.durable_epoch, index->durable_epoch());
    const EpochStats es = index->epoch_stats();
    s.pinned_epochs += es.pinned;
    s.pins_taken += es.pins_taken;
    s.gc_cycles += es.gc_cycles;
    const PageVersionStats vs = index->version_stats();
    s.page_versions += vs.live;
    s.version_bytes += vs.bytes;
    s.versions_saved += vs.saved;
    s.versions_reclaimed += vs.reclaimed;
  }
  s.redundancy =
      s.objects == 0 ? 0.0 : static_cast<double>(s.index_entries) / s.objects;
  return s;
}

std::vector<shard::ShardCounters> DB::ShardStats() const {
  std::vector<shard::ShardCounters> out;
  out.reserve(impl_->router->shards());
  for (uint32_t s = 0; s < impl_->router->shards(); ++s) {
    out.push_back(impl_->router->CountersOf(s));
  }
  return out;
}

bool DB::sharded() const { return impl_->sharded; }

uint32_t DB::shards() const { return impl_->router->shards(); }

uint64_t DB::write_epoch() const {
  return impl_->sharded ? impl_->router->write_epoch()
                        : impl_->router->index(0)->write_epoch();
}

uint64_t DB::object_count() const {
  return impl_->sharded ? impl_->router->object_count()
                        : impl_->router->index(0)->object_count();
}

const IndexBuildStats& DB::build_stats() const {
  return impl_->router->index(0)->build_stats();
}

IoStats DB::io_stats() const {
  return impl_->router->engine(0)->pager()->io_stats();
}

void DB::set_simulated_read_latency_us(uint32_t us) {
  for (uint32_t s = 0; s < impl_->router->shards(); ++s) {
    impl_->router->engine(s)->pager()->set_simulated_read_latency_us(us);
  }
}

Status DB::ClearCache() {
  for (uint32_t s = 0; s < impl_->router->shards(); ++s) {
    ZDB_RETURN_IF_ERROR(impl_->router->engine(s)->pool()->Clear());
  }
  return Status::OK();
}

std::unique_ptr<QueryExecutor> DB::NewExecutor(size_t threads) {
  return std::make_unique<QueryExecutor>(impl_->router->indexes(),
                                         impl_->router->routing(), threads);
}

SpatialIndex* DB::index() { return impl_->router->index(0); }

shard::ShardRouter* DB::router() { return impl_->router.get(); }

}  // namespace zdb
