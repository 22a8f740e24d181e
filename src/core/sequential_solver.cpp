#include "core/sequential_solver.hpp"

#include "core/phase.hpp"
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

namespace lbmib {

SequentialSolver::SequentialSolver(const SimulationParams& params)
    : Solver(params, 1), grid_(params), footprint_(params.nx, params.ny) {}

void SequentialSolver::step() {
  // Step boundary = the sequential solver's only cancellation point and
  // heartbeat (kernels are short; a hung *sequential* step means a hung
  // kernel, which the last-beat label narrows to this step).
  cancel_point("sequential:step");
  sync_point("sequential:step", 0, steps_completed_);
  KernelProfiler& prof = thread_profiles_[0];
  const bool fused = params_.fused_step;
  const Size n = grid_.num_nodes();
  const Size rows = static_cast<Size>(grid_.nx()) *
                    static_cast<Size>(grid_.ny());
  // Fused pipeline: this step's IB footprint (DESIGN.md §11).
  const IbFootprint::Stamp stamp = footprint_stamp_ + 1;
  LBMIB_TRACE_SPAN(obs::SpanCat::kStep, "step",
                   static_cast<std::int64_t>(steps_completed_));

  // --- IB related (kernels 1-4 over every sheet of the structure) ---
  {
    const PhaseScope phase(prof, Kernel::kBendingForce, fused);
    for (FiberSheet& sheet : structure_) {
      compute_bending_force(sheet, 0, sheet.num_fibers());
    }
  }
  {
    const PhaseScope phase(prof, Kernel::kStretchingForce, fused);
    for (FiberSheet& sheet : structure_) {
      compute_stretching_force(sheet, 0, sheet.num_fibers());
    }
  }
  {
    const PhaseScope phase(prof, Kernel::kElasticForce, fused);
    for (FiberSheet& sheet : structure_) {
      compute_elastic_force(sheet, 0, sheet.num_fibers());
    }
  }
  {
    const PhaseScope phase(prof, Kernel::kSpreadForce, fused);
    if (fused && forces_tracked_) {
      // Only the previous step's footprint holds spread forces.
      reset_forces_on_footprint(grid_, footprint_, footprint_stamp_, 0,
                                rows, 0, params_.body_force);
    } else {
      grid_.reset_forces(params_.body_force);
    }
    for (const FiberSheet& sheet : structure_) {
      if (fused) footprint_.mark(sheet, 0, sheet.num_fibers(), stamp);
      spread_force(sheet, grid_, 0, sheet.num_fibers());
    }
  }

  // --- LBM related ---
  if (fused) {
    // Kernels 5+6 in one pass, billed to the collision bucket (there is
    // no separate streaming traversal to time).
    const PhaseScope phase(prof, Kernel::kCollision, fused);
    fused_collide_stream_x_slab(grid_, params_.tau, mrt_.get(), 0,
                                grid_.nx(), params_.simd_step,
                                params_.tile_y);
  } else {
    {
      const PhaseScope phase(prof, Kernel::kCollision, fused);
      if (mrt_) {
        mrt_collide_range(grid_, *mrt_, 0, n);
      } else {
        collide_range(grid_, params_.tau, 0, n);
      }
    }
    {
      const PhaseScope phase(prof, Kernel::kStreaming, fused);
      stream_x_slab(grid_, 0, grid_.nx());
    }
  }

  // --- FSI coupling related ---
  {
    const PhaseScope phase(prof, Kernel::kUpdateVelocity, fused);
    if (uses_inlet_outlet(params_.boundary)) {
      apply_inlet_outlet(grid_, params_.inlet_velocity, 0, grid_.nx());
    }
    if (fused) {
      // Only move_fibers reads u inside the step; the rest goes stale.
      count_velocity_update(
          update_velocity_on_footprint(grid_, footprint_, stamp, 0, rows, 0));
    } else {
      update_velocity_range(grid_, 0, n);
      count_velocity_update(n);
    }
  }
  {
    const PhaseScope phase(prof, Kernel::kMoveFibers, fused);
    for (FiberSheet& sheet : structure_) {
      move_fibers(sheet, grid_, 0, sheet.num_fibers());
    }
  }
  {
    // Kernel 9: O(1) swap under the fused pipeline, 19-plane copy under
    // the reference pipeline — either way it lands in the same profiler
    // bucket, so Table 1 reports how much of the step "kernel 9" costs.
    const PhaseScope phase(prof, Kernel::kCopyDistribution, fused);
    if (fused) {
      grid_.swap_buffers();
    } else {
      copy_distributions_range(grid_, 0, n);
    }
  }

  if (fused) finish_fused_steps(stamp);
  ++steps_completed_;
}

Size SequentialSolver::recompute_stale_macroscopic() const {
  const Size rows = static_cast<Size>(grid_.nx()) *
                    static_cast<Size>(grid_.ny());
  return materialize_velocity_off_footprint(grid_, footprint_,
                                            footprint_stamp_, 0, rows, 0);
}

}  // namespace lbmib
