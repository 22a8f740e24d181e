// The OpenMP LBM-IB program of Section IV.
//
// Fluid kernels are parallelized over contiguous x-slabs (the static
// scheduling of Algorithm 2: the 3-D grid is cut into segments of 2-D y-z
// surfaces); fiber kernels over blocks of fibers (Algorithm 3). Force
// spreading accumulates with atomic adds since neighbouring fibers'
// influential domains overlap.
//
// Each thread charges its own KernelProfiler so the Table II style load
// imbalance (max-avg)/max can be computed from per_thread_profiles().
#pragma once

#include <array>

#include "core/solver.hpp"

namespace lbmib {

class OpenMPSolver final : public Solver {
 public:
  explicit OpenMPSolver(const SimulationParams& params);

  void step() override;
  std::string name() const override { return "openmp"; }

  std::vector<KernelProfiler> per_thread_profiles() const override {
    return thread_profiles_;
  }

  /// The planar grid with rho/u materialized; see SequentialSolver::fluid.
  FluidGrid& fluid() {
    materialize_macroscopic();
    forces_tracked_ = false;
    return grid_;
  }
  const FluidGrid& fluid() const {
    materialize_macroscopic();
    return grid_;
  }

 private:
  void restore_fluid(const FluidGrid& fluid) override {
    grid_.copy_from(fluid);
  }
  void copy_fluid(FluidGrid& out) const override { out.copy_from(grid_); }
  const FluidGrid* planar_grid() const override { return &grid_; }
  Size recompute_stale_macroscopic() const override;

  /// mutable: rho/u are a cache materialize_macroscopic fills on demand.
  mutable FluidGrid grid_;
  IbFootprint footprint_;  ///< rows of grid_
  std::vector<KernelProfiler> thread_profiles_;
  // Cumulative per-kernel max-over-threads time already merged into the
  // aggregate profiler (thread profiles are cumulative across steps).
  std::array<double, kNumKernels> profiler_merge_mark_{};
};

}  // namespace lbmib
