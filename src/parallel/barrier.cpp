#include "parallel/barrier.hpp"

#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/modelcheck.hpp"
#include "parallel/race_detector.hpp"

namespace lbmib {

#if LBMIB_TRACE_ENABLED
BarrierWaitScope::BarrierWaitScope()
    : active_(obs::Tracer::active()),
      start_ns_(active_ ? obs::Tracer::now_ns() : 0) {}

BarrierWaitScope::~BarrierWaitScope() {
  if (!active_) return;
  const std::int64_t dur = obs::Tracer::now_ns() - start_ns_;
  obs::record_span(obs::SpanCat::kBarrier, "barrier.wait", start_ns_, dur);
  obs::metric_barrier_wait_seconds().inc(static_cast<double>(dur) * 1e-9);
}
#else
BarrierWaitScope::BarrierWaitScope() = default;
BarrierWaitScope::~BarrierWaitScope() = default;
#endif

namespace {

/// Race-detector side of a barrier passage: arrive (contribute this
/// thread's clock) must run before the real barrier can complete, leave
/// (acquire the merged clock) after it has. The returned generation
/// token pairs the two even when several generations are in flight.
inline std::uint64_t race_barrier_arrive(const void* barrier,
                                         int participants) {
  LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active()) {
    return rd->barrier_arrive(barrier, participants);
  })
  (void)barrier;
  (void)participants;
  return 0;
}

inline void race_barrier_leave(const void* barrier,
                               std::uint64_t generation) {
  LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active()) {
    rd->barrier_leave(barrier, generation);
  })
  (void)barrier;
  (void)generation;
}

inline void race_barrier_forget(const void* barrier) {
  LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active()) {
    rd->forget_sync(barrier);
  })
  (void)barrier;
}

}  // namespace

SpinBarrier::SpinBarrier(int num_threads)
    : num_threads_(num_threads), remaining_(num_threads) {
  require(num_threads >= 1, "barrier needs at least one thread");
}

SpinBarrier::~SpinBarrier() { race_barrier_forget(this); }

void SpinBarrier::arrive_and_wait() {
  // Poll before arriving: a thread that hasn't decremented yet unwinds
  // without also corrupting the arrival count.
  cancel_point("SpinBarrier::arrive_and_wait");
  LBMIB_TRACE_ON(BarrierWaitScope trace_wait_scope;)
  // Under the model checker the arrival is a schedule point and the
  // generation spin becomes a cooperative wait, so the engine can
  // enumerate arrival orders and detect a wedged generation as a
  // structural deadlock instead of a spin.
  LBMIB_MC_CHECK(if (mc::active()) {
    mc::sched_point(mc::Op::kBarrierArrive, this);
    const std::uint64_t mc_race_generation =
        race_barrier_arrive(this, num_threads_);
    const std::uint64_t mc_generation =
        generation_.load(std::memory_order_acquire);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      remaining_.store(num_threads_, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      mc::notify(this);
      race_barrier_leave(this, mc_race_generation);
      return;
    }
    const CancelToken* token = CancelToken::current();
    mc::wait_until(this, [this, mc_generation, token] {
      return generation_.load(std::memory_order_acquire) != mc_generation ||
             (token != nullptr && token->cancelled());
    });
    if (generation_.load(std::memory_order_acquire) == mc_generation) {
      // Woken by cancellation, not release: poisoned, same as the real
      // path's CancelledError.
      cancel_point("SpinBarrier::arrive_and_wait");
    }
    race_barrier_leave(this, mc_race_generation);
    return;
  })
  const std::uint64_t race_generation =
      race_barrier_arrive(this, num_threads_);
  const std::uint64_t my_generation =
      generation_.load(std::memory_order_acquire);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last arrival: reopen the barrier for the next generation.
    remaining_.store(num_threads_, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    race_barrier_leave(this, race_generation);
    return;
  }
  // Spin until the last arrival advances the generation. Yield
  // occasionally so oversubscribed runs (threads > cores) still
  // progress, and poll the installed CancelToken on that slow branch:
  // a cancelled wait throws CancelledError, which leaves the barrier's
  // counters permanently short one arrival — a cancelled barrier (and
  // the solver that owns it) is poisoned and must be rebuilt, which is
  // what ResilientRunner's recovery does.
  int spins = 0;
  while (generation_.load(std::memory_order_acquire) == my_generation) {
    if (++spins >= 1024) {
      spins = 0;
      cancel_point("SpinBarrier::arrive_and_wait");
      std::this_thread::yield();
    } else {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
  race_barrier_leave(this, race_generation);
}

BlockingBarrier::BlockingBarrier(int num_threads)
    : num_threads_(num_threads), remaining_(num_threads) {
  require(num_threads >= 1, "barrier needs at least one thread");
}

BlockingBarrier::~BlockingBarrier() { race_barrier_forget(this); }

void BlockingBarrier::arrive_and_wait() {
  cancel_point("BlockingBarrier::arrive_and_wait");
  LBMIB_TRACE_ON(BarrierWaitScope trace_wait_scope;)
  // Cooperative path: the condvar wait is replaced by mc::wait_until so
  // the engine sees a blocked thread. The predicate takes the barrier
  // mutex itself (it is evaluated on notifying threads too); the mutex
  // is never held across a schedule point, so it cannot contend.
  LBMIB_MC_CHECK(if (mc::active()) {
    mc::sched_point(mc::Op::kBarrierArrive, this);
    const std::uint64_t mc_race_generation =
        race_barrier_arrive(this, num_threads_);
    bool mc_last = false;
    std::uint64_t mc_generation;
    {
      MutexLock lock(mutex_);
      mc_generation = generation_;
      if (--remaining_ == 0) {
        remaining_ = num_threads_;
        ++generation_;
        mc_last = true;
      }
    }
    if (mc_last) {
      mc::notify(this);
    } else {
      const CancelToken* token = CancelToken::current();
      mc::wait_until(this, [this, mc_generation, token] {
        MutexLock lock(mutex_);
        return generation_ != mc_generation ||
               (token != nullptr && token->cancelled());
      });
      bool released;
      {
        MutexLock lock(mutex_);
        released = generation_ != mc_generation;
      }
      if (!released) cancel_point("BlockingBarrier::arrive_and_wait");
    }
    race_barrier_leave(this, mc_race_generation);
    return;
  })
  const std::uint64_t race_generation =
      race_barrier_arrive(this, num_threads_);
  bool last = false;
  {
    MutexLock lock(mutex_);
    const std::uint64_t my_generation = generation_;
    if (--remaining_ == 0) {
      remaining_ = num_threads_;
      ++generation_;
      last = true;
    } else {
      // Bounded waits so a wedged generation can be cancelled (same
      // poisoning caveat as SpinBarrier: after a CancelledError the
      // barrier must be rebuilt). 20 ms keeps the idle poll cost
      // negligible while staying well inside any realistic watchdog
      // deadline.
      while (generation_ == my_generation) {
        if (!mutex_.wait_for(cv_, std::chrono::milliseconds(20)) &&
            generation_ == my_generation) {
          cancel_point("BlockingBarrier::arrive_and_wait");
        }
      }
    }
  }
  if (last) cv_.notify_all();
  race_barrier_leave(this, race_generation);
}

}  // namespace lbmib
