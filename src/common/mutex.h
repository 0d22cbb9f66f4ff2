// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Annotated lock wrappers: zdb::Mutex, zdb::SharedMutex, zdb::CondVar and
// the RAII guards MutexLock / ReaderLock / WriterLock. These are thin
// shims over the std primitives that carry the Clang thread-safety
// attributes from common/thread_annotations.h, so -Wthread-safety can
// check lock discipline at compile time. All lockable members in src/
// must use these types; a raw std::mutex member is invisible to the
// analysis and is rejected in review (and by grep in CI).
//
// The wrappers also track the current holder with relaxed atomics —
// negligible cost next to the lock operation itself — so AssertHeld()
// and AssertReaderHeld() are real runtime checks in every build mode,
// not just debug. A failed assertion prints the violated contract and
// aborts, which turns "mutated without the latch" from silent memory
// corruption into an immediate, attributable crash.

#ifndef ZDB_COMMON_MUTEX_H_
#define ZDB_COMMON_MUTEX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "common/thread_annotations.h"

namespace zdb {

namespace internal {

[[noreturn]] inline void LockAssertFail(const char* what) {
  std::fprintf(stderr, "zdb lock assertion failed: %s\n", what);
  std::abort();
}

}  // namespace internal

class CondVar;

/// Exclusive mutex. Identical semantics to std::mutex, plus capability
/// annotations and a holder check backing AssertHeld().
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// A mutex whose Lock() retries try_lock up to `spins` times before
  /// it sleeps. For locks held only a few dozen nanoseconds by many
  /// threads (buffer-pool shards): a futex sleep and wakeup cost far
  /// more than the wait.
  explicit Mutex(int spins) : spins_(spins) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    if (!TrySpin()) mu_.lock();
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  void Unlock() RELEASE() {
    holder_.store(std::thread::id(), std::memory_order_relaxed);
    mu_.unlock();
  }

  /// Aborts unless the calling thread holds this mutex. Safe to call in
  /// any build mode; the holder is tracked with relaxed atomics.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
    if (holder_.load(std::memory_order_relaxed) !=
        std::this_thread::get_id()) {
      internal::LockAssertFail("Mutex not held by this thread");
    }
  }

 private:
  friend class CondVar;

  /// Up to spins_ try_lock attempts, pausing the core between them.
  bool TrySpin() {
    for (int i = 0; i < spins_; ++i) {
      if (mu_.try_lock()) return true;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    }
    return false;
  }

  std::mutex mu_;
  const int spins_ = 0;
  std::atomic<std::thread::id> holder_{};
};

/// Reader/writer mutex over std::shared_mutex. Tracks the exclusive
/// holder and a shared-reader count so both assertion flavors are real
/// runtime checks.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    mu_.lock();
    writer_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  void Unlock() RELEASE() {
    writer_.store(std::thread::id(), std::memory_order_relaxed);
    mu_.unlock();
  }

  void LockShared() ACQUIRE_SHARED() {
    mu_.lock_shared();
    readers_.fetch_add(1, std::memory_order_relaxed);
  }

  void UnlockShared() RELEASE_SHARED() {
    readers_.fetch_sub(1, std::memory_order_relaxed);
    mu_.unlock_shared();
  }

  /// Aborts unless the calling thread holds this mutex exclusively.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
    if (writer_.load(std::memory_order_relaxed) !=
        std::this_thread::get_id()) {
      internal::LockAssertFail("SharedMutex not held exclusively by this thread");
    }
  }

  /// Aborts unless some reader holds the mutex shared, or the calling
  /// thread holds it exclusively. (The reader count is global, not
  /// per-thread — a cheap contract check, not a proof of ownership.)
  void AssertReaderHeld() const ASSERT_SHARED_CAPABILITY(this) {
    if (readers_.load(std::memory_order_relaxed) == 0 &&
        writer_.load(std::memory_order_relaxed) !=
            std::this_thread::get_id()) {
      internal::LockAssertFail("SharedMutex not held (shared or exclusive)");
    }
  }

 private:
  std::shared_mutex mu_;
  std::atomic<std::thread::id> writer_{};
  std::atomic<uint32_t> readers_{0};
};

/// Condition variable bound to zdb::Mutex. The REQUIRES annotation makes
/// "wait without holding the mutex" a compile error on Clang. Prefer
/// explicit `while (!cond) cv.Wait(mu);` loops over predicate lambdas:
/// the analysis does not propagate lock state into lambda bodies, so a
/// predicate reading GUARDED_BY fields would defeat the check.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    mu.holder_.store(std::thread::id(), std::memory_order_relaxed);
    cv_.wait(lk);
    mu.holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    lk.release();  // ownership stays with the caller's scope
  }

  /// Returns false iff the deadline passed without a notification.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    mu.holder_.store(std::thread::id(), std::memory_order_relaxed);
    const std::cv_status st = cv_.wait_until(lk, deadline);
    mu.holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    lk.release();
    return st == std::cv_status::no_timeout;
  }

  /// Returns false iff the timeout elapsed without a notification.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout)
      REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() + timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// RAII exclusive lock over zdb::Mutex, with optional early release for
/// publish-then-wait patterns (see SpatialIndex::ApplyBatch).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() RELEASE() {
    if (held_) mu_->Unlock();
  }

  /// Releases before end of scope. Calling twice is a compile error on
  /// Clang and an abort at runtime elsewhere.
  void Unlock() RELEASE() {
    mu_->AssertHeld();
    mu_->Unlock();
    held_ = false;
  }

 private:
  Mutex* mu_;
  bool held_ = true;
};

/// RAII shared (reader) lock over zdb::SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu_->LockShared();
  }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

  ~ReaderLock() RELEASE() { mu_->UnlockShared(); }

 private:
  SharedMutex* mu_;
};

/// RAII exclusive (writer) lock over zdb::SharedMutex, with optional
/// early release.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(&mu) {
    mu_->Lock();
  }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

  ~WriterLock() RELEASE() {
    if (held_) mu_->Unlock();
  }

  void Unlock() RELEASE() {
    mu_->AssertHeld();
    mu_->Unlock();
    held_ = false;
  }

 private:
  SharedMutex* mu_;
  bool held_ = true;
};

}  // namespace zdb

#endif  // ZDB_COMMON_MUTEX_H_
