// The sequential LBM-IB program of Section III: Algorithm 1 verbatim, with
// every kernel wrapped in the KernelProfiler (our gprof substitute for
// Table I).
#pragma once

#include "core/solver.hpp"

namespace lbmib {

class SequentialSolver final : public Solver {
 public:
  explicit SequentialSolver(const SimulationParams& params);

  void step() override;
  std::string name() const override { return "sequential"; }

  /// The planar grid with rho/u materialized. The mutable overload also
  /// lets the caller rewrite forces (e.g. load a checkpoint into it), so
  /// the next step resets the whole force field.
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
};

}  // namespace lbmib
