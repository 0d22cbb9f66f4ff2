// The durability tail the seeded publish path reaches: FlushTail ->
// SyncJournal -> fsync. Nothing in this TU opens a section; the violation
// only exists on the cross-TU path from publish.cc.

namespace zdb {

void SyncJournal() { fsync(3); }

void FlushTail() { SyncJournal(); }

}  // namespace zdb
