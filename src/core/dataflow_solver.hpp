// Dataflow (dynamic task scheduling) cube solver.
//
// The paper's conclusion names as future work "removing the global
// synchronizations by using dynamic task scheduling". This solver
// implements that idea for the fluid phases of the cube algorithm:
//
//   * Work is self-scheduled: threads pull tasks from a lock-free queue
//     instead of owning a static cube subset, so load imbalance between
//     wall cubes (which bounce-back) and interior cubes evens out.
//   * The two fluid barriers of Algorithm 4 are replaced by per-cube
//     dependency counting: a cube's update_fluid_velocity becomes ready
//     the moment the *last* cube of its 27-cube streaming neighbourhood
//     has streamed — no thread waits for the whole grid. copy (kernel 9)
//     and the next step's force reset run immediately after each cube's
//     update, in the same task.
//
// Per time step the solver issues exactly 2 * num_cubes tasks:
//   COLLIDE+STREAM(c)  -> decrements the pending count of every cube in
//                         region(c); a count hitting zero enqueues
//   UPDATE+COPY(c).
// Fiber work (kernels 1-4 fused per fiber, kernel 8) is self-scheduled
// through atomic fiber counters with atomic force spreading. Three
// barriers per step remain (around the fiber<->fluid hand-offs), versus
// Algorithm 4's three plus our determinism barrier — and none of them
// sits between the fluid kernels.
//
// TIME-STEP OVERLAP (the paper's other future-work item, "overlapping
// different time steps"): for fiber-free runs the fiber hand-offs vanish
// and the dependency counting extends across steps —
// COLLIDE+STREAM(t+1, c) becomes ready when UPDATE+COPY(t, n) has run for
// every n in region(c). run() then executes the *entire* multi-step run
// as one task graph with zero barriers between steps: cubes on one side
// of the domain may be two phases ahead of the other side.
//
// Results match the sequential solver to floating-point reordering noise
// (spreading order is nondeterministic across threads).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/solver.hpp"
#include "cube/cube_grid.hpp"
#include "parallel/barrier.hpp"

namespace lbmib {

class DataflowCubeSolver final : public Solver {
 public:
  explicit DataflowCubeSolver(const SimulationParams& params);

  void step() override;
  void run(Index num_steps, const StepObserver& observer = nullptr,
           Index observer_interval = 1) override;
  std::string name() const override { return "dataflow"; }

  /// The cube grid with rho/u materialized.
  CubeGrid& cubes() {
    materialize_macroscopic();
    return grid_;
  }
  const CubeGrid& cubes() const {
    materialize_macroscopic();
    return grid_;
  }

  /// Tasks executed by each thread in the last run (load-balance probe).
  const std::vector<Size>& tasks_executed() const {
    return tasks_executed_;
  }

 private:
  /// Adopt the snapshot with the force field reset: update tasks reset
  /// forces as they retire a cube, so a step starts from the body force.
  void restore_fluid(const FluidGrid& fluid) override {
    grid_.from_planar(fluid);
    grid_.reset_forces(params_.body_force);
  }
  void copy_fluid(FluidGrid& out) const override { grid_.to_planar(out); }
  Size recompute_stale_macroscopic() const override;

  void thread_entry(int tid, Index first_step, Index num_steps,
                    IbFootprint::Stamp first_stamp,
                    const StepObserver& observer, Index observer_interval);
  void run_loop(Index num_steps, const StepObserver& observer,
                Index observer_interval);

  /// Reset queue/counters for the next step. Called by a single thread
  /// between barriers.
  void arm_step();

  /// Fiber-free cross-step pipeline: all steps as one task graph.
  void run_overlapped(Index num_steps);

  /// Wait until a queue slot holds a task and return it; the wait is a
  /// "task.wait" span and, on its slow path, the cancellation point
  /// `wait_label`.
  static std::int64_t await_task(std::atomic<std::int64_t>& slot,
                                 const char* wait_label);

  /// A COLLIDE+STREAM task: kernels 5+6 on `cube` (reading df at
  /// src_base, pushing into dst_base under the fused pipeline), then
  /// `resolve` publishes the tasks it enables; each phase is billed to
  /// prof.
  template <typename Resolve>
  void collide_stream_task(KernelProfiler& prof, Size cube, Size src_base,
                           Size dst_base, Resolve&& resolve);

  /// mutable: rho/u are a cache materialize_macroscopic fills on demand.
  mutable CubeGrid grid_;
  /// Fused pipeline: the IB footprint in cube columns (block = cube edge).
  IbFootprint footprint_;
  BlockingBarrier barrier_;

  // --- dataflow state -------------------------------------------------
  // Distinct streaming neighbourhood (self + up to 26 cubes) per cube.
  std::vector<std::vector<Size>> region_;
  std::vector<int> pending_init_;  // region_[c].size() for each c

  std::vector<std::atomic<int>> pending_;     // per cube, counts down
  std::vector<std::atomic<std::int64_t>> queue_;  // task slots
  std::atomic<Size> queue_head_{0};
  std::atomic<Size> queue_tail_{0};

  // Fiber self-scheduling: global fiber index across sheets.
  std::vector<std::pair<Size, Index>> fiber_list_;  // (sheet, fiber)
  std::atomic<Size> fiber_cursor_{0};
  std::atomic<Size> move_cursor_{0};

  std::vector<Size> tasks_executed_;
};

}  // namespace lbmib
