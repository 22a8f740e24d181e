// Critical-path attribution over drained trace spans — the analysis
// leg of the performance observatory (DESIGN.md §18).
//
// Input is the span list the tracer records anyway (Tracer::drain()):
// per-thread kStep windows with kKernel/kBarrier/kHalo/kCheckpoint
// children. For every step window the analyzer attributes the window's
// wall time to four buckets:
//
//   compute  — time covered by kernel spans,
//   barrier  — time covered by barrier (and task-slot) waits,
//   halo     — halo exchanges and checkpoint serialization,
//   serial   — the remainder: orchestration, fiber bookkeeping, and
//              any section no span brackets (the "serial fraction"
//              Amdahl charges the step with).
//
// Overlapping spans are resolved by priority (barrier > halo >
// compute): a barrier wait inside a kernel span counts as waiting,
// not work. The *critical path* is then assembled per step: the thread
// whose step span is longest gates the step's completion, so its
// breakdown is what the step actually paid — summed over steps this
// answers "would removing barrier waits speed anything up, or is the
// critical thread computing the whole time?" (the live version of the
// paper's Table II imbalance argument).
//
// Used two ways: the Simulation::profile_report() appendix after a
// traced run (what lbmib_run prints), and the watchdog hang report
// (attribute whatever the rings hold when a hang trips). When the
// tracer's rings wrapped, the table covers only the newest steps and
// says so.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace lbmib::obs {

/// Wall-time attribution of one thread (or of the critical path).
struct PathBreakdown {
  double step_seconds = 0.0;     ///< total step-window wall time
  double compute_seconds = 0.0;  ///< kernel coverage
  double barrier_seconds = 0.0;  ///< barrier arrive-to-leave waits
  double halo_seconds = 0.0;     ///< halo exchange + checkpoint
  double serial_seconds = 0.0;   ///< uncovered remainder
  std::uint64_t steps = 0;       ///< step windows attributed

  double compute_frac() const {
    return step_seconds > 0.0 ? compute_seconds / step_seconds : 0.0;
  }
  double barrier_frac() const {
    return step_seconds > 0.0 ? barrier_seconds / step_seconds : 0.0;
  }
  double serial_frac() const {
    return step_seconds > 0.0 ? serial_seconds / step_seconds : 0.0;
  }
};

struct ThreadPath {
  std::uint32_t tid = 0;
  PathBreakdown breakdown;
};

struct CriticalPathReport {
  std::vector<ThreadPath> threads;  ///< per-thread totals, by tid
  /// Per step, the breakdown of the thread whose step window was
  /// longest, summed over steps. Empty trace -> all zeros.
  PathBreakdown critical;
  std::uint64_t steps = 0;  ///< distinct step args seen
  /// Events the tracer lost to ring wrap-around before attribution; the
  /// table then covers only `steps` of the run (the newest ones).
  Size dropped_events = 0;

  bool empty() const { return threads.empty(); }
  /// Fixed-width per-thread table plus the critical-path summary line.
  std::string to_string() const;
};

/// Attribute a drained span list (need not be sorted; spans from
/// threads that recorded no kStep window are ignored).
CriticalPathReport attribute_spans(const std::vector<SpanEvent>& events);

/// Convenience: drain the current tracer session and attribute it,
/// recording Tracer::dropped() in the report.
/// Requires the tracer drain() quiescence contract, except from the
/// watchdog hang path where a torn in-flight span merely perturbs one
/// step's numbers.
CriticalPathReport attribute_current_session();

}  // namespace lbmib::obs
