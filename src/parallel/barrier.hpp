// Thread barriers for the cube-based solver.
//
// Algorithm 4 places three barriers in each time step. We provide two
// implementations with identical semantics:
//   * SpinBarrier  - centralized generation-counting spin barrier; lowest
//                    latency when threads <= cores.
//   * BlockingBarrier - mutex/condvar barrier; yields the CPU while
//                    waiting, the right choice when oversubscribed.
// The ablation bench bench/ablation_barrier.cpp compares them.
//
// Under LBMIB_RACE_DETECT every completed generation is also a
// happens-before edge: each arrival contributes its vector clock before
// blocking, the last arrival publishes the merged clock, and every
// leaver acquires it (RaceDetector::barrier_arrive/barrier_leave).
//
// Both barriers are cancellation points (parallel/cancel.hpp): a wait
// polls the installed CancelToken and throws CancelledError once it is
// cancelled, so a wedged generation unwinds instead of deadlocking. A
// cancelled barrier is *poisoned* — its arrival count is short — and
// must be destroyed and rebuilt before reuse.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>

#include "parallel/mutex.hpp"

namespace lbmib {

/// Tracing side of one barrier passage: a "barrier.wait" span from
/// arrival to release, whose duration also feeds the barrier-wait
/// counter. Both barriers below open one per wait; so does the OpenMP
/// solver around `#pragma omp barrier` (core/phase.hpp). Costs one
/// relaxed load while the tracer is stopped.
class BarrierWaitScope {
 public:
  BarrierWaitScope();
  ~BarrierWaitScope();
  BarrierWaitScope(const BarrierWaitScope&) = delete;
  BarrierWaitScope& operator=(const BarrierWaitScope&) = delete;

 private:
  bool active_ = false;
  std::int64_t start_ns_ = 0;
};

/// Abstract barrier interface so solvers can swap implementations.
class Barrier {
 public:
  virtual ~Barrier() = default;
  /// Block until all participating threads have arrived.
  virtual void arrive_and_wait() = 0;
};

/// Centralized spin barrier. Arriving threads decrement a counter; the last
/// arrival resets it and bumps a generation number the others spin on.
/// Requires no per-thread state, so one thread may freely mix several
/// barrier instances (as the cube solver does).
class SpinBarrier final : public Barrier {
 public:
  explicit SpinBarrier(int num_threads);
  ~SpinBarrier() override;
  void arrive_and_wait() override;

 private:
  const int num_threads_;
  std::atomic<int> remaining_;
  std::atomic<std::uint64_t> generation_{0};
};

/// Mutex + condition-variable barrier; sleeps instead of spinning. The
/// mutex-protected state carries clang thread-safety annotations (see
/// mutex.hpp for why std::mutex itself cannot).
class BlockingBarrier final : public Barrier {
 public:
  explicit BlockingBarrier(int num_threads);
  ~BlockingBarrier() override;
  void arrive_and_wait() override;

 private:
  const int num_threads_;
  Mutex mutex_;
  std::condition_variable cv_;
  int remaining_ LBMIB_GUARDED_BY(mutex_);
  std::uint64_t generation_ LBMIB_GUARDED_BY(mutex_) = 0;
};

/// Which barrier flavour a parallel solver should construct.
enum class BarrierKind { kSpin, kBlocking };

}  // namespace lbmib
