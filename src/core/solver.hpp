// The LBM-IB solver interface.
//
// A Solver owns the fluid state and the immersed structure, and advances
// them by executing the paper's nine computational kernels per time step
// (Algorithm 1). Three implementations exist, mirroring the paper's three
// programs:
//   * SequentialSolver - single-threaded reference (Section III),
//   * OpenMPSolver     - loop-parallel version (Section IV),
//   * CubeSolver       - cube-centric Pthreads-style version (Section V).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/params.hpp"
#include "common/profiler.hpp"
#include "common/types.hpp"
#include "ib/fiber_sheet.hpp"
#include "ib/footprint.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/mrt.hpp"

namespace lbmib {

class Solver {
 public:
  /// `workers` sizes per_thread_profiles(): the threads that step.
  Solver(const SimulationParams& params, int workers);
  virtual ~Solver() = default;

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Advance the simulation by exactly one time step (all nine kernels).
  virtual void step() = 0;

  /// Called on the controlling thread between steps; receives the solver
  /// and the 0-based index of the step just completed.
  using StepObserver = std::function<void(Solver&, Index)>;

  /// Advance `num_steps` steps. If `observer` is set it runs after every
  /// `observer_interval`-th step. Parallel solvers may override this to
  /// keep one persistent thread team across all steps (Algorithm 4).
  virtual void run(Index num_steps, const StepObserver& observer = nullptr,
                   Index observer_interval = 1);

  /// Copy the current fluid state into `out` (planar layout). The planar
  /// solvers copy their grid; the cube solver converts from cubes. Stale
  /// rho/u are materialized first.
  void snapshot_fluid(FluidGrid& out) const {
    materialize_macroscopic();
    copy_fluid(out);
  }

  /// Direct read access to the fluid state if this solver stores it in
  /// planar layout (sequential, OpenMP); null otherwise — callers then
  /// fall back to snapshot_fluid. Lets health scans avoid copying. Stale
  /// rho/u are materialized first.
  const FluidGrid* planar_fluid() const {
    materialize_macroscopic();
    return planar_grid();
  }

  /// The stale-rho/u contract (DESIGN.md §11). The fused pipeline
  /// computes rho and u only on the IB footprint, where move_fibers reads
  /// them; every other node's stored rho/u is stale after a step. This
  /// recomputes them from the present populations and F with kernel 7's
  /// arithmetic (bit-identical to the reference pipeline), charged to
  /// Kernel::kMaterializeMacroscopic and traced as
  /// "materialize_macroscopic". A no-op when nothing is stale. Every
  /// reader (snapshot_fluid, planar_fluid, the planar solvers' fluid(),
  /// the cube solvers' cubes(), and through them health scans,
  /// checkpoints, VTK and observables)
  /// calls it; call it directly before reading a solver's grid any other
  /// way. Not safe against a concurrently stepping solver: readers run
  /// between steps or from a step observer.
  void materialize_macroscopic() const;

  /// Nodes kernel 7 computed rho/u for, summed over every step so far:
  /// the whole grid per step under the reference pipeline, the IB
  /// footprint under the fused one. The roofline's update_velocity units.
  double velocity_update_nodes() const {
    return static_cast<double>(
        velocity_update_nodes_.load(std::memory_order_relaxed));
  }

  /// Nodes materialize_macroscopic recomputed, summed over all calls.
  double materialized_nodes() const { return materialized_nodes_; }

  /// Replace the complete simulation state with a previously saved one
  /// (checkpoint rollback): fluid in planar layout, all sheets, and the
  /// completed-step counter. `fluid` must match the solver's dimensions
  /// and `structure` its sheet layout.
  virtual void restore_state(const FluidGrid& fluid,
                             const Structure& structure, Index step);

  /// Human-readable implementation name.
  virtual std::string name() const = 0;

  const SimulationParams& params() const { return params_; }

  /// The full immersed structure (one or more fiber sheets).
  Structure& structure() { return structure_; }
  const Structure& structure() const { return structure_; }

  /// The primary (first) sheet — the common single-sheet case.
  FiberSheet& sheet() { return structure_.front(); }
  const FiberSheet& sheet() const { return structure_.front(); }

  Index steps_completed() const { return steps_completed_; }

  /// Per-kernel wall time of the critical thread: per kernel, the
  /// slowest thread's seconds (the wall time that phase gated), plus
  /// the on-demand materialize_macroscopic time.
  const KernelProfiler& profiler() const;

  /// Per-thread per-kernel times for load-imbalance analysis, one entry
  /// per worker (sequential has one).
  std::vector<KernelProfiler> per_thread_profiles() const {
    return thread_profiles_;
  }

 protected:
  /// Adopt `fluid` as the solver's fluid state (layout conversion as
  /// needed). Called by restore_state after the structure is in place.
  virtual void restore_fluid(const FluidGrid& fluid) = 0;

  /// snapshot_fluid without the materialization.
  virtual void copy_fluid(FluidGrid& out) const = 0;

  /// planar_fluid without the materialization.
  virtual const FluidGrid* planar_grid() const { return nullptr; }

  /// Recompute rho/u of every node outside the footprint stamped
  /// footprint_stamp_ from the present populations; returns the number
  /// of nodes recomputed. Called only while macroscopic_stale_ is set.
  virtual Size recompute_stale_macroscopic() const = 0;

  /// Bookkeeping after a fused step (or run of steps) whose last
  /// footprint carries `stamp`: rho/u are stale off that footprint, and
  /// the force field is body force everywhere off it.
  void finish_fused_steps(IbFootprint::Stamp stamp) {
    footprint_stamp_ = stamp;
    forces_tracked_ = true;
    macroscopic_stale_ = true;
  }

  /// Add `nodes` to the kernel-7 node count (any thread).
  void count_velocity_update(Size nodes) {
    velocity_update_nodes_.fetch_add(nodes, std::memory_order_relaxed);
  }

  SimulationParams params_;
  Structure structure_;  ///< never empty; [0] is the primary sheet
  /// Non-null iff params.collision == kMRT; shared by all kernel phases.
  std::unique_ptr<MrtOperator> mrt_;
  /// Worker t charges its phases to thread_profiles_[t] (PhaseScope,
  /// core/phase.hpp); one entry per worker, sized by the constructor.
  std::vector<KernelProfiler> thread_profiles_;
  Index steps_completed_ = 0;

  // --- fused pipeline: footprint bookkeeping (DESIGN.md §11) -------------
  /// Stamp of the latest fused step's IB footprint (0 = none yet). Step s
  /// of a run that starts at stamp b is stamped b + s + 1.
  IbFootprint::Stamp footprint_stamp_ = 0;
  /// True when the force field equals the body force everywhere off the
  /// footprint stamped footprint_stamp_, so the next step may reset
  /// forces on that footprint only. False after construction and
  /// restore_state (and after the planar solvers hand out a mutable
  /// grid): the next step resets the whole field.
  bool forces_tracked_ = false;
  /// rho/u off the latest footprint await materialize_macroscopic.
  mutable bool macroscopic_stale_ = false;

 private:
  std::atomic<std::uint64_t> velocity_update_nodes_{0};
  mutable double materialized_nodes_ = 0.0;
  /// materialize_macroscopic's time (charged by whichever thread reads).
  mutable KernelProfiler on_demand_profile_;
  /// profiler()'s fold of thread_profiles_ and on_demand_profile_.
  mutable KernelProfiler profiler_;
};

/// Which solver implementation to instantiate. kDataflow is the
/// dynamically scheduled variant of the cube solver; kDistributed and
/// kDistributed2D are the message-passing solver on two rank-mesh shapes
/// — the paper's two future-work directions (see core/dataflow_solver.hpp,
/// core/distributed2d_solver.hpp).
enum class SolverKind {
  kSequential,
  kOpenMP,
  kCube,
  kDataflow,
  kDistributed,    ///< message passing over an R x 1 mesh of x-slabs
  kDistributed2D,  ///< message passing over a balanced Rx x Ry tile mesh
};

std::string_view solver_kind_name(SolverKind kind);

/// Factory covering all three implementations.
std::unique_ptr<Solver> make_solver(SolverKind kind,
                                    const SimulationParams& params);

}  // namespace lbmib
