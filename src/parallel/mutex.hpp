// Capability-annotated mutex for clang thread-safety analysis.
//
// libstdc++'s std::mutex carries no capability attributes, so writing
// LBMIB_GUARDED_BY(some_std_mutex) produces -Wthread-safety-attributes
// noise instead of analysis. Mutex wraps std::mutex in a class the
// analysis understands, which lets Channel and BlockingBarrier annotate
// their protected state (see thread_safety.hpp for the macro set).
//
// Condition waits go through Mutex::wait(cv): it adopts the underlying
// std::mutex into a unique_lock for the duration of the wait and
// releases ownership back afterwards, so no annotated lock/unlock call
// is ever made from inside unanalyzable standard-library code. The
// capability bookkeeping nets out to "still held", matching the
// LBMIB_REQUIRES annotation. Predicate re-checks belong in a while loop
// at the call site (a predicate lambda would be analyzed without the
// capability context and flagged).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "parallel/thread_safety.hpp"

namespace lbmib {

class LBMIB_CAPABILITY("Mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LBMIB_ACQUIRE() { m_.lock(); }
  void unlock() LBMIB_RELEASE() { m_.unlock(); }
  bool try_lock() LBMIB_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// Atomically release the mutex, block on `cv`, and re-acquire.
  /// Spurious wakeups are possible; re-check the condition in a while
  /// loop around the call.
  void wait(std::condition_variable& cv) LBMIB_REQUIRES(this) {
    std::unique_lock<std::mutex> lock(m_, std::adopt_lock);
    // The predicate loop lives at every call site (see the header
    // comment); a predicate here would defeat the capability adoption.
    // NOLINTNEXTLINE(lbmib-sync-visibility) leaf wrapper; cancel/mc seams live at call sites
    cv.wait(lock);  // NOLINT(bugprone-spuriously-wake-up-functions)
    lock.release();
  }

  /// wait() with a timeout: returns false on timeout, true when
  /// notified. Same adoption pattern and the same call-site predicate
  /// obligation; the bounded wait is what lets blocking primitives poll
  /// a CancelToken instead of sleeping forever (see barrier.cpp,
  /// channel.hpp).
  template <class Rep, class Period>
  bool wait_for(std::condition_variable& cv,
                std::chrono::duration<Rep, Period> timeout)
      LBMIB_REQUIRES(this) {
    std::unique_lock<std::mutex> lock(m_, std::adopt_lock);
    // NOLINTNEXTLINE(lbmib-sync-visibility) bounded leaf wrapper; callers poll cancellation
    const std::cv_status status = cv.wait_for(lock, timeout);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

 private:
  std::mutex m_;
};

/// Scoped lock for Mutex (the std::lock_guard of this file).
class LBMIB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) LBMIB_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() LBMIB_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace lbmib
