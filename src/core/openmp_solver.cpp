#include "core/openmp_solver.hpp"

#include <omp.h>

#include <algorithm>

#include "common/timer.hpp"
#include "ib/fiber_forces.hpp"
#include "ib/footprint.hpp"
#include "ib/interpolation.hpp"
#include "ib/spreading.hpp"
#include "lbm/boundary.hpp"
#include "lbm/collision.hpp"
#include "lbm/fused.hpp"
#include "lbm/mrt.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/streaming.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/chaos.hpp"
#include "parallel/race_detector.hpp"

namespace lbmib {

OpenMPSolver::OpenMPSolver(const SimulationParams& params)
    : Solver(params),
      grid_(params),
      footprint_(params.nx, params.ny),
      thread_profiles_(static_cast<Size>(params.num_threads)) {}

namespace {

/// Static block partition of [0, count) for thread tid of nthreads.
struct Range {
  Index begin, end;
};
Range block_range(Index count, int tid, int nthreads) {
  return {count * tid / nthreads, count * (tid + 1) / nthreads};
}

}  // namespace

void OpenMPSolver::step() {
  // Liveness hooks live at the step boundary only: exceptions must not
  // escape an `#pragma omp parallel` structured block and libgomp's
  // barriers cannot poll a token, so cancellation cannot unwind from
  // *inside* the region. A worker wedged mid-region stops the master's
  // beat with it (the master waits at the region's implicit barrier),
  // so the watchdog still detects and reports the hang; the unwind
  // happens here once the region would have ended. See DESIGN.md §14.
  cancel_point("openmp:step");
  ProgressBoard::global().beat("openmp:step");
  if (chaos::enabled()) {
    chaos::sync_point("openmp:step", 0, steps_completed_);
  }
  const int nthreads = params_.num_threads;
  const Index nx = grid_.nx();
  const Size plane = static_cast<Size>(grid_.ny()) *
                     static_cast<Size>(grid_.nz());
  // Fused pipeline: reset forces on the previous step's IB footprint only
  // (the whole field after construction or restore), and compute rho/u on
  // this step's footprint only (DESIGN.md §11). Decided before the region
  // so every thread sees the same values.
  const bool fused = params_.fused_step;
  const bool reset_footprint_only = fused && forces_tracked_;
  const IbFootprint::Stamp prev_stamp = footprint_stamp_;
  const IbFootprint::Stamp stamp = footprint_stamp_ + 1;

  // Reset forces before spreading (part of kernel 4's cost, like the
  // sequential program).
  // span_name overrides the trace label where the profiler bucket and
  // the phase diverge (the fused sweep bills to kCollision but traces
  // as "collide_stream", matching the other solvers).
  auto timed = [&](int tid, Kernel k, auto&& work,
                   [[maybe_unused]] const char* span_name = nullptr) {
    LBMIB_TRACE_SPAN(obs::SpanCat::kKernel,
                     span_name != nullptr ? span_name
                                          : kernel_short_name(k));
    WallTimer timer;
    work();
    thread_profiles_[static_cast<Size>(tid)].add(k, timer.seconds());
  };

#if LBMIB_RACE_DETECT_ENABLED
  // OpenMP's pool is opaque to the detector, so model the parallel
  // region as fork/join and wrap each `#pragma omp barrier` in the
  // detector's barrier protocol, keyed on the solver. The branch on
  // `race_detector` is uniform across the team, so every thread reaches
  // the same textual barrier.
  RaceDetector* race_detector = RaceDetector::active();
  const std::uint64_t race_token =
      race_detector != nullptr ? race_detector->fork() : 0;
#endif
  auto team_barrier = [&] {
#if LBMIB_RACE_DETECT_ENABLED
    if (race_detector != nullptr) {
      const std::uint64_t gen =
          race_detector->barrier_arrive(this, params_.num_threads);
#pragma omp barrier
      race_detector->barrier_leave(this, gen);
      return;
    }
#endif
#pragma omp barrier
  };

#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    // Per-thread step span: one bar per thread per step in the trace
    // timeline (OpenMP's worker threads get tracer tids on first span).
    LBMIB_TRACE_SPAN(obs::SpanCat::kStep, "step",
                     static_cast<std::int64_t>(steps_completed_));
#if LBMIB_RACE_DETECT_ENABLED
    struct RaceWorkerScope {
      RaceDetector* rd;
      std::uint64_t token;
      RaceWorkerScope(RaceDetector* r, std::uint64_t t) : rd(r), token(t) {
        if (rd != nullptr) rd->worker_start(token);
      }
      ~RaceWorkerScope() {
        if (rd != nullptr) rd->worker_end(token);
      }
    } race_worker_scope(race_detector, race_token);
    race::context("openmp solver");
#endif
    const Range slabs = block_range(nx, tid, nthreads);
    const Size node_begin = static_cast<Size>(slabs.begin) * plane;
    const Size node_end = static_cast<Size>(slabs.end) * plane;
    // This thread's rows of the footprint (row id x * ny + y).
    const Size row_begin =
        static_cast<Size>(slabs.begin) * static_cast<Size>(grid_.ny());
    const Size row_end =
        static_cast<Size>(slabs.end) * static_cast<Size>(grid_.ny());
    // Per-sheet fiber ranges owned by this thread (Algorithm 3 style).
    auto my_fibers = [&](const FiberSheet& sheet) {
      return block_range(sheet.num_fibers(), tid, nthreads);
    };

    // --- IB related (Algorithm 3 style fiber partitioning) ---
    timed(tid, Kernel::kBendingForce, [&] {
      for (FiberSheet& sheet : structure_) {
        const Range r = my_fibers(sheet);
        compute_bending_force(sheet, r.begin, r.end);
      }
    });
    team_barrier();
    timed(tid, Kernel::kStretchingForce, [&] {
      for (FiberSheet& sheet : structure_) {
        const Range r = my_fibers(sheet);
        compute_stretching_force(sheet, r.begin, r.end);
      }
    });
    team_barrier();
    timed(tid, Kernel::kElasticForce, [&] {
      for (FiberSheet& sheet : structure_) {
        const Range r = my_fibers(sheet);
        compute_elastic_force(sheet, r.begin, r.end);
      }
    });
    team_barrier();
    timed(tid, Kernel::kSpreadForce, [&] {
      // Reset this thread's slab of the force field, then spread this
      // thread's fibers with atomic accumulation. The barrier also orders
      // every reset (which reads the previous footprint's stamps) before
      // any thread marks this step's footprint.
      if (reset_footprint_only) {
        reset_forces_on_footprint(grid_, footprint_, prev_stamp, row_begin,
                                  row_end, node_begin, params_.body_force);
      } else {
        grid_.reset_forces(params_.body_force, node_begin, node_end);
      }
      LBMIB_RACE_CHECK(race::access_range(
          &grid_, static_cast<Size>(slabs.begin),
          static_cast<Size>(slabs.end), RaceField::kForce,
          RaceAccess::kWrite, "reset forces");)
      team_barrier();
      for (const FiberSheet& sheet : structure_) {
        const Range r = my_fibers(sheet);
        if (fused) footprint_.mark(sheet, r.begin, r.end, stamp);
        spread_force_atomic(sheet, grid_, r.begin, r.end);
      }
    });
    team_barrier();

    // --- LBM related (Algorithm 2 style x-slab partitioning) ---
    // Fused pipeline: one pass over this thread's slabs that collides in
    // registers and pushes into df_new. No thread writes df, and each
    // df_new slot has a unique writer, so the collide/stream barrier of
    // the reference pipeline disappears along with the second traversal.
    // (The conditional barriers are legal: fused_step is uniform across
    // the team.)
    if (params_.fused_step) {
      timed(
          tid, Kernel::kCollision,
          [&] {
            fused_collide_stream_x_slab(grid_, params_.tau, mrt_.get(),
                                        slabs.begin, slabs.end,
                                        params_.simd_step, params_.tile_y);
          },
          "collide_stream");
    } else {
      timed(tid, Kernel::kCollision, [&] {
        if (mrt_) {
          mrt_collide_range(grid_, *mrt_, node_begin, node_end);
        } else {
          collide_range(grid_, params_.tau, node_begin, node_end);
        }
      });
      team_barrier();
      timed(tid, Kernel::kStreaming,
            [&] { stream_x_slab(grid_, slabs.begin, slabs.end); });
    }
    team_barrier();

    // --- FSI coupling related ---
    timed(tid, Kernel::kUpdateVelocity, [&] {
      if (uses_inlet_outlet(params_.boundary)) {
        apply_inlet_outlet(grid_, params_.inlet_velocity, slabs.begin,
                           slabs.end);
      }
      if (fused) {
        count_velocity_update(update_velocity_on_footprint(
            grid_, footprint_, stamp, row_begin, row_end, node_begin));
      } else {
        update_velocity_range(grid_, node_begin, node_end);
        count_velocity_update(node_end - node_begin);
      }
    });
    team_barrier();
    timed(tid, Kernel::kMoveFibers, [&] {
      for (FiberSheet& sheet : structure_) {
        const Range r = my_fibers(sheet);
        move_fibers(sheet, grid_, r.begin, r.end);
      }
    });
    team_barrier();
    if (!params_.fused_step) {
      timed(tid, Kernel::kCopyDistribution,
            [&] { copy_distributions_range(grid_, node_begin, node_end); });
    }
  }

#if LBMIB_RACE_DETECT_ENABLED
  if (race_detector != nullptr) race_detector->join(race_token);
#endif

  if (params_.fused_step) {
    // Kernel 9 as an O(1) swap, after the parallel region's implicit
    // barrier has published every thread's df_new writes. Charged to
    // thread 0's profile so the merge below still reports it.
    LBMIB_TRACE_SPAN(obs::SpanCat::kKernel, "swap_df");
    WallTimer timer;
    grid_.swap_buffers();
    thread_profiles_[0].add(Kernel::kCopyDistribution, timer.seconds());
    finish_fused_steps(stamp);
  }

  // Merge per-thread time into the aggregate profiler: charge the
  // slowest thread per kernel (wall time of the parallel region).
  for (int k = 0; k < kNumKernels; ++k) {
    double max_time = 0.0;
    for (int t = 0; t < nthreads; ++t) {
      max_time = std::max(
          max_time, thread_profiles_[static_cast<Size>(t)].seconds(
                        static_cast<Kernel>(k)));
    }
    profiler_.add(static_cast<Kernel>(k),
                  max_time - profiler_merge_mark_[static_cast<Size>(k)]);
    profiler_merge_mark_[static_cast<Size>(k)] = max_time;
  }

  ++steps_completed_;
}

Size OpenMPSolver::recompute_stale_macroscopic() const {
  const Size rows = static_cast<Size>(grid_.nx()) *
                    static_cast<Size>(grid_.ny());
  return materialize_velocity_off_footprint(grid_, footprint_,
                                            footprint_stamp_, 0, rows, 0);
}

}  // namespace lbmib
