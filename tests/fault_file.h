// Copyright (c) zdb authors. Licensed under the MIT license.
//
// FaultFile: the failure-injecting in-memory File of the failure tests.
// It fails I/O on three triggers:
//
//   * a countdown budget over Read, Write, Truncate and Sync: after
//     `budget` successful operations every further one fails (a dead
//     disk), or — transient — only the next one does. A negative budget
//     disables the countdown.
//   * FailRearm(true): every write at offset 0 fails. The journal header
//     is written there only by Pager::BeginBatch, so on a journal file
//     this fails exactly the re-arm that follows a group's commit.
//
// Snapshot/RestoreSnapshot copy the bytes for crash simulation. The
// triggers are atomic, so a commit thread may hit them concurrently with
// the test thread re-arming them.

#ifndef ZDB_TESTS_FAULT_FILE_H_
#define ZDB_TESTS_FAULT_FILE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "storage/file.h"

namespace zdb {

class FaultFile : public File {
 public:
  explicit FaultFile(int64_t budget = -1) : budget_(budget) {}

  Status Read(uint64_t offset, size_t n, char* buf) const override {
    if (Spend()) return Status::IOError("injected read failure");
    return inner_.Read(offset, n, buf);
  }
  Status Write(uint64_t offset, const char* data, size_t n) override {
    if (offset == 0 && fail_rearm_.load(std::memory_order_acquire)) {
      return Status::IOError("injected journal re-arm failure");
    }
    if (Spend()) return Status::IOError("injected write failure");
    return inner_.Write(offset, data, n);
  }
  uint64_t Size() const override { return inner_.Size(); }
  Status Truncate(uint64_t size) override {
    if (Spend()) return Status::IOError("injected truncate failure");
    return inner_.Truncate(size);
  }
  Status Sync() override {
    if (Spend()) return Status::IOError("injected sync failure");
    return inner_.Sync();
  }

  /// Re-arms (b >= 0) or disables (b < 0) the failure countdown
  /// without touching data. A transient fault fails one operation only.
  void set_budget(int64_t b, bool transient = false) {
    transient_.store(transient);
    budget_.store(b);
  }

  /// Makes every write at offset 0 fail (true) or succeed again.
  void FailRearm(bool fail) {
    fail_rearm_.store(fail, std::memory_order_release);
  }

  std::vector<char> Snapshot() const { return inner_.Snapshot(); }
  void RestoreSnapshot(const std::vector<char>& image) {
    inner_.RestoreSnapshot(image);
  }

 private:
  /// Counts one operation against the budget; true if it must fail.
  bool Spend() const {
    int64_t b = budget_.load();
    for (;;) {
      if (b < 0) return false;  // disabled
      // A spent budget stays spent (dead disk) unless the fault is
      // transient, which disables the countdown after one failure.
      const int64_t next = b > 0 ? b - 1 : (transient_.load() ? -1 : 0);
      if (next == b) return true;
      if (budget_.compare_exchange_weak(b, next)) return b == 0;
    }
  }

  MemFile inner_;
  mutable std::atomic<int64_t> budget_;
  std::atomic<bool> transient_{false};
  std::atomic<bool> fail_rearm_{false};
};

}  // namespace zdb

#endif  // ZDB_TESTS_FAULT_FILE_H_
