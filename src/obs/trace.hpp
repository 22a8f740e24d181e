// Low-overhead per-thread span tracer — the recording half of the
// observability layer (DESIGN.md §13).
//
// Spans are RAII scopes (or manual record_span() calls) that land in a
// lock-free thread-local ring buffer: (start, duration, thread id,
// category, static name, optional integer arg such as a cube id or
// rank). Solvers bracket the nine kernels (one span per kernel phase,
// named by kernel_span_name, including each dataflow task), every
// barrier wait, halo exchanges and the buffer swap, so a trace
// timeline shows *where inside a step* each thread spends its time —
// the per-thread imbalance of the paper's Table II, live instead of via
// the offline perfmodel replay.
//
// Cost model, in order of how often each path runs:
//   * compiled out (LBMIB_TRACE=OFF): every hook expands to nothing,
//     following the LBMIB_RACE_CHECK pattern (race_detector.hpp);
//   * compiled in, tracer stopped: one relaxed atomic load per span;
//   * recording: two steady_clock reads plus one ring-slot store per
//     span; no locks, no allocation (the ring is armed lazily at a
//     thread's first span of a tracing session).
//
// Draining (drain(), chrome_trace_json()) requires quiescence: no spans
// may be in flight on other threads. Simulation satisfies this by
// exporting only between run() calls, after worker teams have joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/perf_counters.hpp"

namespace lbmib::obs {

/// Coarse span categories; exported as the Chrome trace "cat" field so
/// Perfetto can filter/color by phase kind.
enum class SpanCat : std::uint8_t {
  kStep = 0,        ///< one full time step (per thread)
  kKernel = 1,      ///< one of the nine Algorithm-1 kernels
  kBarrier = 2,     ///< barrier arrive-to-leave (or task-slot) wait
  kHalo = 3,        ///< distributed halo exchange
  kCheckpoint = 4,  ///< checkpoint serialization
  kOther = 5,
};

const char* to_string(SpanCat cat);

/// One completed span. `name` must point at a string literal (or other
/// storage outliving the tracer session); nothing is copied on the
/// recording path.
struct SpanEvent {
  std::int64_t start_ns;  ///< relative to the Tracer::start() epoch
  std::int64_t dur_ns;
  std::int64_t arg;  ///< cube id / rank / step; -1 = none
  const char* name;
  std::uint32_t tid;  ///< tracer-assigned sequential thread id
  SpanCat cat;
};

/// Process-wide tracer control. All methods are static: there is one
/// tracing session at a time, shared by every grid/solver in the
/// process (matching the one MetricsRegistry::global()).
class Tracer {
 public:
  static constexpr Size kDefaultCapacity = Size{1} << 16;

  /// True while a tracing session is recording. Hot-path guard.
  static bool active() {
    return g_active.load(std::memory_order_relaxed);
  }

  /// Begin a session: spans start recording into per-thread rings of
  /// `events_per_thread` slots (oldest events overwritten on wrap).
  /// Restarting discards events of the previous session.
  static void start(Size events_per_thread = kDefaultCapacity);

  /// Stop recording; buffered events stay available to drain().
  static void stop();

  /// Snapshot every thread's buffered events of the current session,
  /// sorted by (tid, start). Non-destructive. Requires quiescence (see
  /// file comment).
  static std::vector<SpanEvent> drain();

  /// Events lost to ring wrap-around in the current session.
  static Size dropped();

  /// Name the calling thread in exported traces ("worker-3"); default
  /// is "thread-<tid>".
  static void set_thread_name(const std::string& name);

  /// (tid, name) for every thread that recorded in the current session.
  static std::vector<std::pair<std::uint32_t, std::string>> thread_names();

  /// Nanoseconds since the session epoch (0 when no session started).
  static std::int64_t now_ns();

  /// Arm the calling thread's ring for the current session, which its
  /// first recorded span would otherwise do. Span calls it before
  /// taking its start time, so a thread's first span of a session does
  /// not leave the ring's allocation as uncovered time in its parent.
  static void arm_thread();

 private:
  friend class Span;
  friend void record_span(SpanCat, const char*, std::int64_t,
                          std::int64_t, std::int64_t);
  static std::atomic<bool> g_active;
};

/// Record a completed span with externally measured timestamps. Used
/// where a scope does not fit (e.g. the barrier wait also feeds a
/// metric from the same two clock reads).
void record_span(SpanCat cat, const char* name, std::int64_t start_ns,
                 std::int64_t dur_ns, std::int64_t arg = -1);

/// RAII span: records construction-to-destruction as one complete
/// ("X") event. Near-free when the tracer is stopped.
///
/// Kernel spans (kKernel) double as the sampling points of
/// the performance observatory: when a PerfCounters session is active,
/// the ctor/dtor bracket the scope with counter-group reads and the
/// delta accrues under the span name (perf_counters.hpp). The two
/// sessions are independent — counters work without a running Tracer
/// and vice versa; each costs one relaxed load when off.
class Span {
 public:
  explicit Span(SpanCat cat, const char* name, std::int64_t arg = -1)
      : name_(nullptr), perf_name_(nullptr) {
    if (Tracer::active()) {
      Tracer::arm_thread();
      name_ = name;
      cat_ = cat;
      arg_ = arg;
      start_ns_ = Tracer::now_ns();
    }
    if (cat == SpanCat::kKernel && PerfCounters::active()) {
      perf_name_ = name;
      PerfCounters::begin(sample_);
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      record_span(cat_, name_, start_ns_, Tracer::now_ns() - start_ns_,
                  arg_);
    }
    if (perf_name_ != nullptr) {
      PerfCounters::end(perf_name_, sample_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* perf_name_;
  std::int64_t start_ns_ = 0;
  std::int64_t arg_ = -1;
  SpanCat cat_ = SpanCat::kOther;
  PerfSample sample_;
};

}  // namespace lbmib::obs

// Zero-cost gate, mirroring LBMIB_RACE_CHECK in race_detector.hpp:
// tracing hooks are written as LBMIB_TRACE_ON(<code>) or
// LBMIB_TRACE_SPAN(<cat>, <name>[, <arg>]) and vanish entirely — the
// arguments are not even evaluated — unless the build defines
// LBMIB_TRACE (CMake option LBMIB_TRACE, default ON).
#if defined(LBMIB_TRACE) && LBMIB_TRACE
#define LBMIB_TRACE_ON(...) __VA_ARGS__
#define LBMIB_TRACE_ENABLED 1
#define LBMIB_TRACE_CONCAT_(a, b) a##b
#define LBMIB_TRACE_CONCAT(a, b) LBMIB_TRACE_CONCAT_(a, b)
#define LBMIB_TRACE_SPAN(...)                                      \
  ::lbmib::obs::Span LBMIB_TRACE_CONCAT(lbmib_trace_span_at_line_, \
                                        __LINE__)(__VA_ARGS__)
#else
#define LBMIB_TRACE_ON(...)
#define LBMIB_TRACE_ENABLED 0
#define LBMIB_TRACE_SPAN(...)
#endif
