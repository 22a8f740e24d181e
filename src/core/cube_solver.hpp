// The cube-centric LBM-IB program of Section V (Algorithm 4).
//
// The fluid grid is blocked into k^3-node cubes (CubeGrid); cubes are
// statically assigned to a P x Q x R thread mesh through cube2thread() and
// fibers through fiber2thread(). run() launches one persistent worker per
// thread that executes the whole time loop — the paper's Thread_entry_fn —
// with barrier synchronization between dependent kernel phases and
// per-owner locks around cross-thread force spreading.
//
// Barrier placement: Algorithm 4 shows three barriers per step (after
// streaming, after update_fluid_velocity, and at the end of the step). We
// add a fourth between force spreading and collision so that results are
// bit-reproducible against the sequential solver; without it a thread
// could start colliding its cubes while a neighbour is still spreading
// force into them. The deviation is documented in DESIGN.md.
#pragma once

#include <vector>

#include "core/solver.hpp"
#include "cube/cube_grid.hpp"
#include "cube/distribution.hpp"
#include "cube/numa_distribution.hpp"
#include "parallel/access_checker.hpp"
#include "parallel/barrier.hpp"
#include "parallel/mesh.hpp"
#include "parallel/spinlock.hpp"

namespace lbmib {

class CubeSolver final : public Solver {
 public:
  CubeSolver(const SimulationParams& params,
             DistributionPolicy policy = DistributionPolicy::kBlock,
             BarrierKind barrier_kind = BarrierKind::kBlocking);

  /// NUMA-aware construction: lay the thread mesh hierarchically over
  /// `topology` (numa_distribution.hpp) so each NUMA node owns one
  /// contiguous box of cubes. num_threads must use whole NUMA nodes or
  /// fit within one.
  CubeSolver(const SimulationParams& params,
             const MachineTopology& topology,
             DistributionPolicy policy = DistributionPolicy::kBlock,
             BarrierKind barrier_kind = BarrierKind::kBlocking);

  void step() override;
  void run(Index num_steps, const StepObserver& observer = nullptr,
           Index observer_interval = 1) override;
  std::string name() const override { return "cube"; }

  /// The cube grid with rho/u materialized.
  CubeGrid& cubes() {
    materialize_macroscopic();
    return grid_;
  }
  const CubeGrid& cubes() const {
    materialize_macroscopic();
    return grid_;
  }
  const CubeDistribution& distribution() const { return dist_; }
  const ThreadMesh& thread_mesh() const { return mesh_; }

 private:
  /// Adopt the snapshot with the force field reset: this solver resets
  /// forces at the end of each step, so a step starts from the body force.
  void restore_fluid(const FluidGrid& fluid) override {
    grid_.from_planar(fluid);
    grid_.reset_forces(params_.body_force);
  }
  void copy_fluid(FluidGrid& out) const override { grid_.to_planar(out); }
  Size recompute_stale_macroscopic() const override;

  /// Shared tail of both constructors: owned-cube/fiber lists + forces.
  void finish_construction(DistributionPolicy policy);

  /// Body of the paper's Thread_entry_fn for `num_steps` steps, the
  /// first of which is the solver's step `first_step`.
  void thread_entry(int tid, Index first_step, Index num_steps,
                    IbFootprint::Stamp first_stamp,
                    const StepObserver& observer, Index observer_interval);

  /// Execute `num_steps` steps with a freshly launched persistent team.
  void run_loop(Index num_steps, const StepObserver& observer,
                Index observer_interval);

  /// mutable: rho/u are a cache materialize_macroscopic fills on demand.
  mutable CubeGrid grid_;
  /// Fused pipeline: the IB footprint in cube columns (block = cube edge).
  IbFootprint footprint_;
  ThreadMesh mesh_;
  CubeDistribution dist_;
  std::unique_ptr<Barrier> barrier_;
  std::vector<SpinLock> locks_;                 // one per owner thread
  std::vector<std::vector<Size>> owned_cubes_;  // cube ids per thread
  /// (sheet index, fiber index) pairs owned per thread; distribution uses
  /// the global fiber numbering across all sheets of the structure.
  std::vector<std::vector<std::pair<Size, Index>>> owned_fibers_;
  /// Debug ownership/phase checker, allocated and attached to grid_ only
  /// in LBMIB_CHECK_ACCESS builds (null otherwise).
  std::unique_ptr<AccessChecker> access_checker_;
};

}  // namespace lbmib
