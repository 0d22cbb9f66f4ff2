// Copyright (c) zdb authors. Licensed under the MIT license.

#include "zdb/db.h"

#include <algorithm>
#include <atomic>

#include "shard/manifest.h"

namespace zdb {

namespace {

bool IsMemoryPath(const std::string& path) {
  return path.empty() || path == ":memory:";
}

}  // namespace

struct DB::Impl {
  std::unique_ptr<shard::ShardRouter> router;

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

  // A file DB's stored layout wins on reopen (shard/manifest.h).
  std::vector<std::string> shard_paths(options.shards, path);
  if (!IsMemoryPath(path)) {
    ZDB_ASSIGN_OR_RETURN(shard_paths,
                         shard::ShardPaths(path, options.shards));
  }
  std::vector<std::unique_ptr<shard::ShardEngine>> engines;
  for (const std::string& p : shard_paths) {
    std::unique_ptr<shard::ShardEngine> engine;
    ZDB_ASSIGN_OR_RETURN(engine, shard::ShardEngine::Open(p, eopt));
    engines.push_back(std::move(engine));
  }
  return Open(std::move(engines));
}

Result<std::unique_ptr<DB>> DB::Open(
    std::vector<std::unique_ptr<shard::ShardEngine>> engines) {
  std::unique_ptr<DB> db(new DB());
  db->impl_ = std::make_unique<Impl>();
  ZDB_ASSIGN_OR_RETURN(db->impl_->router,
                       shard::ShardRouter::Open(std::move(engines)));
  return db;
}

// --------------------------------------------------------------- queries

Result<std::vector<ObjectId>> DB::Window(const Rect& window,
                                         QueryStats* stats,
                                         EpochRange* epochs) {
  return impl_->router->Window(window, stats, epochs);
}

Result<std::vector<ObjectId>> DB::Point(const zdb::Point& p, QueryStats* stats,
                                        EpochRange* epochs) {
  return impl_->router->Point(p, stats, epochs);
}

Result<std::vector<ObjectId>> DB::Containment(const Rect& window,
                                              QueryStats* stats) {
  return impl_->router->Containment(window, stats);
}

Result<std::vector<std::pair<ObjectId, double>>> DB::Nearest(
    const zdb::Point& p, size_t k, QueryStats* stats, EpochRange* epochs) {
  return impl_->router->Nearest(p, k, stats, epochs);
}

// --------------------------------------------------------------- updates

Result<ObjectId> DB::Insert(const Rect& mbr, uint32_t payload) {
  WriteBatch batch;
  batch.Insert(mbr, payload);
  std::vector<ObjectId> ids;
  ZDB_ASSIGN_OR_RETURN(ids, Apply(batch, Durability::kPublished));
  return ids[0];
}

Result<ObjectId> DB::InsertPolygon(const Polygon& poly) {
  if (impl_->has_sink.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "InsertPolygon has no batch representation to replicate; "
        "not available while a commit sink is attached");
  }
  return impl_->router->InsertPolygon(poly);
}

Status DB::Erase(ObjectId oid) {
  WriteBatch batch;
  batch.Erase(oid);
  return Apply(batch, Durability::kPublished).status();
}

Status DB::BulkLoad(const std::vector<Rect>& data, double fill) {
  if (impl_->has_sink.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "BulkLoad bypasses the batch commit path; "
        "not available while a commit sink is attached");
  }
  return impl_->router->BulkLoad(data, fill);
}

Result<std::vector<ObjectId>> DB::Apply(const WriteBatch& batch,
                                        Durability durability) {
  if (!impl_->has_sink.load(std::memory_order_acquire)) {
    return impl_->router->Apply(batch, durability);
  }

  // Sink attached: publish and emit under repl_mu_ so OnCommit sees
  // batches in strictly increasing epoch order, then satisfy kDurable
  // outside the lock (concurrent committers overlap their fsyncs).
  uint64_t publish_epoch = 0;
  Result<std::vector<ObjectId>> r = std::vector<ObjectId>{};
  {
    MutexLock lock(impl_->repl_mu_);
    r = impl_->router->Apply(batch, Durability::kPublished);
    if (!r.ok() || batch.empty()) return r;
    publish_epoch = write_epoch();
    // The sink may have detached between the fast-path check and the
    // lock; the batch is then simply not reported.
    if (impl_->sink != nullptr) {
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
  if (durability == Durability::kDurable) {
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
  return impl_->router->Apply(batch, Durability::kPublished,
                              /*replicated=*/true);
}

// ------------------------------------------------------------ durability

Status DB::Checkpoint() { return impl_->router->Checkpoint(); }

Status DB::WaitDurable(uint64_t epoch, uint64_t timeout_ms) {
  return impl_->router->WaitDurable(epoch, timeout_ms);
}

// -------------------------------------------------------------- plumbing

DBStats DB::Stats() const {
  shard::ShardRouter* router = impl_->router.get();
  DBStats s;
  s.shards = router->shards();
  s.objects = router->object_count();
  s.write_epoch = router->write_epoch();
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

uint32_t DB::shards() const { return impl_->router->shards(); }

uint64_t DB::write_epoch() const { return impl_->router->write_epoch(); }

uint64_t DB::object_count() const { return impl_->router->object_count(); }

IndexBuildStats DB::build_stats() const {
  return impl_->router->index(0)->build_stats();
}

IoStats DB::io_stats() const {
  IoStats sum;
  for (uint32_t s = 0; s < impl_->router->shards(); ++s) {
    sum.Add(impl_->router->engine(s)->pager()->io_stats());
  }
  return sum;
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

}  // namespace zdb
