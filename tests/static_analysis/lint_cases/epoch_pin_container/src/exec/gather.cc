// Seeded violation: a scatter-gather driver hoards EpochPins in an
// ad-hoc vector, detaching their lifetime from the scope (and thread)
// that pinned them. A pin stays on the stack of the thread that took
// it; other threads share it by reference, each inside its own
// SnapshotReadScope. zdb_lint must reject this with [epoch-pin].

#include <vector>

namespace zdb {

class EpochPin {};

void GatherShards() {
  std::vector<EpochPin> pins;  // pins must not live in containers
  pins.push_back(EpochPin());
}

}  // namespace zdb
