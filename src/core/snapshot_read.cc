// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The SpatialIndex half of epoch-based snapshot reads: enabling the
// feature, pinning epochs, opening per-thread snapshot scopes and the
// pinned (*At) query variants. The version chains live in
// storage/snapshot.{h,cc}; pin accounting and the reclamation thread in
// core/epoch.{h,cc}. See DESIGN.md "Snapshot reads & epoch GC" for the
// full safety argument.

#include "core/spatial_index.h"

namespace zdb {

Status SpatialIndex::EnableSnapshots() {
  MutexLock commit(commit_mu_);
  WriterSection lock(this);
  if (snapshots_on_.load(std::memory_order_relaxed)) return Status::OK();
  epoch_mgr_ =
      std::make_unique<EpochManager>(&write_epoch_, pool_->versions());
  // The current state is the first pinned-readable epoch: a pin taken
  // right after this call returns must find its meta.
  epoch_mgr_->RecordMeta(write_epoch(), CaptureMetaLocked());
  snapshots_on_.store(true, std::memory_order_release);
  // This writer section was entered before the flag flipped, so arm
  // copy-on-write by hand; every later WriterSection arms itself.
  pool_->ArmVersioning(write_epoch() + 1);
  epoch_mgr_->StartGc();
  return Status::OK();
}

EpochPin SpatialIndex::PinEpoch() const {
  if (!snapshots_enabled()) {
    internal::LockAssertFail("PinEpoch() before EnableSnapshots()");
  }
  return epoch_mgr_->Pin();
}

SnapshotMeta SpatialIndex::CaptureMetaLocked() const {
  SnapshotMeta m;
  m.btree_root = btree_->root();
  m.btree_height = btree_->height();
  btree_->CaptureUpperPages(&m.btree_root_page, &m.btree_root_children);
  m.obj_next_oid = store_->size();
  m.obj_pages = store_->pages();
  m.poly_pages = polys_->pages();
  m.level_mask = level_mask_;
  m.live_objects = live_objects_.load(std::memory_order_relaxed);
  return m;
}

SnapshotView SpatialIndex::MakeView(uint64_t epoch,
                                    const SnapshotMeta* meta) const {
  SnapshotView v;
  v.epoch = epoch;
  v.versions = pool_->versions();
  v.pool = pool_;
  v.owner = this;
  v.btree = btree_.get();
  v.objects = store_.get();
  v.polygons = polys_.get();
  v.meta = meta;
  return v;
}

// -------------------------------------------------- SnapshotReadScope

SpatialIndex::SnapshotReadScope::SnapshotReadScope(const SpatialIndex* ix,
                                                   const EpochPin& pin)
    : ix_(ix), epoch_(pin.epoch()) {
  if (!ix_->snapshots_enabled()) {
    status_ = Status::InvalidArgument("snapshots not enabled on this index");
    return;
  }
  ix_->epoch_mgr_->EnterRead();
  entered_ = true;
  // Checked after entering: a rollback marks its epochs before raising
  // the reload barrier, so a read that waited the reload out sees the
  // mark here.
  Result<const SnapshotMeta*> meta = ix_->epoch_mgr_->MetaAt(pin);
  if (!meta.ok()) {
    status_ = meta.status();
    return;
  }
  // The component handles (btree_/store_/polys_) are only reseated by
  // ReloadLocked, which waits for this thread's read to leave — reading
  // them without the latch is race-free.
  scope_.emplace(ix_->MakeView(epoch_, meta.value()));
}

SpatialIndex::SnapshotReadScope::~SnapshotReadScope() {
  scope_.reset();
  if (entered_) ix_->epoch_mgr_->LeaveRead();
}

Result<std::unique_ptr<SpatialIndex::SnapshotReadScope>>
SpatialIndex::OpenSnapshot(const EpochPin& pin) const {
  std::unique_ptr<SnapshotReadScope> scope(new SnapshotReadScope(this, pin));
  ZDB_RETURN_IF_ERROR(scope->status());
  return scope;
}

// ----------------------------------------------------- pinned queries
//
// Each opens its scope on the stack (no allocation) and fails with the
// scope's status when the pinned epoch cannot be read.

Result<std::vector<ObjectId>> SpatialIndex::WindowQueryAt(
    const EpochPin& pin, const Rect& window, QueryStats* stats) {
  SnapshotReadScope scope(this, pin);
  ZDB_RETURN_IF_ERROR(scope.status());
  SnapshotSection section(this);
  return WindowQueryLocked(window, stats);
}

Result<std::vector<ObjectId>> SpatialIndex::PointQueryAt(
    const EpochPin& pin, const Point& p, QueryStats* stats) {
  SnapshotReadScope scope(this, pin);
  ZDB_RETURN_IF_ERROR(scope.status());
  SnapshotSection section(this);
  return PointQueryLocked(p, stats);
}

Result<std::vector<ObjectId>> SpatialIndex::ContainmentQueryAt(
    const EpochPin& pin, const Rect& window, QueryStats* stats) {
  SnapshotReadScope scope(this, pin);
  ZDB_RETURN_IF_ERROR(scope.status());
  SnapshotSection section(this);
  return ContainmentQueryLocked(window, stats);
}

Result<std::vector<ObjectId>> SpatialIndex::EnclosureQueryAt(
    const EpochPin& pin, const Rect& window, QueryStats* stats) {
  SnapshotReadScope scope(this, pin);
  ZDB_RETURN_IF_ERROR(scope.status());
  SnapshotSection section(this);
  return EnclosureQueryLocked(window, stats);
}

Result<std::vector<std::pair<ObjectId, double>>>
SpatialIndex::NearestNeighborsAt(const EpochPin& pin, const Point& p,
                                 size_t k, QueryStats* stats,
                                 uint32_t* rounds) {
  SnapshotReadScope scope(this, pin);
  ZDB_RETURN_IF_ERROR(scope.status());
  SnapshotSection section(this);
  return NearestNeighborsLocked(p, k, stats, rounds);
}

// --------------------------------------------------------------- stats

EpochStats SpatialIndex::epoch_stats() const {
  // epoch_mgr_ is set once, before concurrent use (EnableSnapshots is
  // part of index setup) — a monitor read here needs no lock.
  return epoch_mgr_ != nullptr ? epoch_mgr_->stats() : EpochStats{};
}

PageVersionStats SpatialIndex::version_stats() const {
  return pool_->versions()->stats();
}

// ---------------------------------------------- view-aware index state

uint64_t SpatialIndex::EffectiveLevelMask() const {
  if (const SnapshotView* v = SnapshotView::FindOwner(this)) {
    return v->meta->level_mask;
  }
  return level_mask_;
}

uint64_t SpatialIndex::EffectiveLiveObjects() const {
  if (const SnapshotView* v = SnapshotView::FindOwner(this)) {
    return v->meta->live_objects;
  }
  return live_objects_.load(std::memory_order_relaxed);
}

}  // namespace zdb
