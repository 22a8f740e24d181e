// The phase vocabulary every solver speaks (DESIGN.md §13, §14).
//
// A solver's step is a sequence of kernel phases separated by sync
// points. PhaseScope is the one way to time a phase: one clock pair
// feeds the thread's KernelProfiler bucket and the same scope is the
// phase's trace span (and hardware-counter sample), named by
// kernel_span_name. sync_point is the one way to cross a sync point:
// heartbeat, chaos hook, barrier wait and access-checker phase advance.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/profiler.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "parallel/access_checker.hpp"
#include "parallel/barrier.hpp"

namespace lbmib {

/// RAII kernel phase on the calling thread: charges its lifetime to
/// `profiler`'s `kernel` bucket and records it as the kernel span
/// kernel_span_name(kernel, fused) with `arg` (a cube id, or -1).
class PhaseScope {
 public:
  PhaseScope(KernelProfiler& profiler, Kernel kernel,
             [[maybe_unused]] bool fused,
             [[maybe_unused]] std::int64_t arg = -1)
#if LBMIB_TRACE_ENABLED
      : span_(obs::SpanCat::kKernel, kernel_span_name(kernel, fused), arg),
        profiler_(profiler),
#else
      : profiler_(profiler),
#endif
        kernel_(kernel),
        start_(Clock::now()) {}
  ~PhaseScope() {
    profiler_.add(kernel_,
                  std::chrono::duration<double>(Clock::now() - start_)
                      .count());
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
#if LBMIB_TRACE_ENABLED
  obs::Span span_;  ///< opens before and closes after the clock pair
#endif
  KernelProfiler& profiler_;
  Kernel kernel_;
  Clock::time_point start_;
};

/// Cross the sync point `label` (static storage; what a hang report
/// names) as thread `tid` of step `step`: heartbeat, chaos hook, then —
/// with a barrier — the wait (the barrier records its own barrier.wait
/// span and polls for cancellation) and, when `checker` is set, the
/// access checker's advance into `next`. Without a barrier it marks a
/// blocking call the caller makes next (halo exchange, allreduce) or a
/// step boundary.
void sync_point(const char* label, int tid, Index step,
                Barrier* barrier = nullptr, AccessChecker* checker = nullptr,
                StepPhase next = StepPhase::kSpread);

/// sync_point's in-region form for an OpenMP team: heartbeat, a
/// barrier.wait span around `#pragma omp barrier` and, in race-detector
/// builds, the detector's barrier protocol keyed on `race_key` for a
/// team of `nthreads`. It has no chaos hook and no cancellation, since
/// no exception may leave an omp region (DESIGN.md §14). Call it from
/// every thread of the enclosing parallel region.
void omp_sync_point(const char* label, const void* race_key, int nthreads);

}  // namespace lbmib
