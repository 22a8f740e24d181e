#include "core/phase.hpp"

#include "parallel/cancel.hpp"
#include "parallel/chaos.hpp"
#include "parallel/race_detector.hpp"

namespace lbmib {

void sync_point(const char* label, int tid, Index step, Barrier* barrier,
                AccessChecker* checker, StepPhase next) {
  ProgressBoard::global().beat(label);
  if (chaos::enabled()) chaos::sync_point(label, tid, step);
  if (barrier == nullptr) return;
  barrier->arrive_and_wait();
  if (checker != nullptr) checker->advance_phase(next);
}

void omp_sync_point(const char* label,
                    [[maybe_unused]] const void* race_key,
                    [[maybe_unused]] int nthreads) {
  ProgressBoard::global().beat(label);
  LBMIB_TRACE_ON(BarrierWaitScope wait;)
#if LBMIB_RACE_DETECT_ENABLED
  // The branch is uniform across the team (the detector is installed
  // before the region), so every thread reaches the same barrier.
  if (RaceDetector* rd = RaceDetector::active()) {
    const std::uint64_t gen = rd->barrier_arrive(race_key, nthreads);
#pragma omp barrier
    rd->barrier_leave(race_key, gen);
    return;
  }
#endif
#pragma omp barrier
}

}  // namespace lbmib
