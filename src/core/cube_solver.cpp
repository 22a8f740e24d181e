#include "core/cube_solver.hpp"

#include "common/error.hpp"
#include "core/phase.hpp"
#include "cube/cube_kernels.hpp"
#include "ib/fiber_forces.hpp"
#include "lbm/boundary.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/race_detector.hpp"
#include "parallel/thread_team.hpp"

namespace lbmib {

namespace {

std::unique_ptr<Barrier> make_barrier(BarrierKind kind, int threads) {
  if (kind == BarrierKind::kSpin)
    return std::make_unique<SpinBarrier>(threads);
  return std::make_unique<BlockingBarrier>(threads);
}

}  // namespace

CubeSolver::CubeSolver(const SimulationParams& params,
                       DistributionPolicy policy, BarrierKind barrier_kind)
    : Solver(params, params.num_threads),
      grid_(params),
      footprint_(params.nx, params.ny, grid_.cube_size()),
      mesh_(fitted_mesh(params.num_threads, grid_.cubes_x(),
                        grid_.cubes_y(), grid_.cubes_z())),
      dist_(grid_.cubes_x(), grid_.cubes_y(), grid_.cubes_z(), mesh_,
            policy),
      barrier_(make_barrier(barrier_kind, params.num_threads)),
      locks_(static_cast<Size>(params.num_threads)),
      owned_cubes_(static_cast<Size>(params.num_threads)),
      owned_fibers_(static_cast<Size>(params.num_threads)) {
  finish_construction(policy);
}

CubeSolver::CubeSolver(const SimulationParams& params,
                       const MachineTopology& topology,
                       DistributionPolicy policy, BarrierKind barrier_kind)
    : Solver(params, params.num_threads),
      grid_(params),
      footprint_(params.nx, params.ny, grid_.cube_size()),
      mesh_(numa_hierarchical_mesh(topology, params.num_threads).mesh),
      dist_(make_numa_distribution(topology, params.num_threads,
                                   grid_.cubes_x(), grid_.cubes_y(),
                                   grid_.cubes_z(), policy)),
      barrier_(make_barrier(barrier_kind, params.num_threads)),
      locks_(static_cast<Size>(params.num_threads)),
      owned_cubes_(static_cast<Size>(params.num_threads)),
      owned_fibers_(static_cast<Size>(params.num_threads)) {
  finish_construction(policy);
}

void CubeSolver::finish_construction(DistributionPolicy policy) {
  // Precompute each thread's cube and fiber lists. Equivalent to the
  // "if cube2thread(I,J,K) == tid" scan in Algorithm 4, hoisted out of the
  // time loop.
  for (Index cx = 0; cx < grid_.cubes_x(); ++cx) {
    for (Index cy = 0; cy < grid_.cubes_y(); ++cy) {
      for (Index cz = 0; cz < grid_.cubes_z(); ++cz) {
        const int tid = dist_.cube2thread(cx, cy, cz);
        owned_cubes_[static_cast<Size>(tid)].push_back(
            grid_.cube_id(cx, cy, cz));
      }
    }
  }
#if LBMIB_ACCESS_CHECK_ENABLED
  // Shadow the grid with its cube2thread image so every write hook can
  // verify ownership. Ownership is frozen here: any later drift between
  // dist_ and the checker's map is itself a bug the checker will surface.
  access_checker_ =
      std::make_unique<AccessChecker>(grid_.num_cubes(), params_.num_threads);
  for (Index cx = 0; cx < grid_.cubes_x(); ++cx) {
    for (Index cy = 0; cy < grid_.cubes_y(); ++cy) {
      for (Index cz = 0; cz < grid_.cubes_z(); ++cz) {
        access_checker_->set_owner(grid_.cube_id(cx, cy, cz),
                                   dist_.cube2thread(cx, cy, cz));
      }
    }
  }
  grid_.attach_access_checker(access_checker_.get());
#endif
  const Index total_fibers = structure_num_fibers(structure_);
  Index global_fiber = 0;
  for (Size s = 0; s < structure_.size(); ++s) {
    for (Index f = 0; f < structure_[s].num_fibers(); ++f, ++global_fiber) {
      const int tid = fiber2thread(global_fiber, total_fibers,
                                   params_.num_threads, policy);
      owned_fibers_[static_cast<Size>(tid)].emplace_back(s, f);
    }
  }
  // The constant body force must be present before the first collision.
  grid_.reset_forces(params_.body_force);
}

void CubeSolver::thread_entry(int tid,
                              [[maybe_unused]] Index first_step,
                              Index num_steps,
                              IbFootprint::Stamp first_stamp,
                              const StepObserver& observer,
                              Index observer_interval) {
  KernelProfiler& prof = thread_profiles_[static_cast<Size>(tid)];
  // Debug builds: bind this worker to the checker for the whole loop; the
  // binding resets the thread's phase automaton to kSpread.
  LBMIB_ACCESS_CHECK(ScopedThreadBind checker_bind(*access_checker_, tid);)
  AccessChecker* const checker = access_checker_.get();
  Barrier* const barrier = barrier_.get();
  const std::vector<Size>& my_cubes = owned_cubes_[static_cast<Size>(tid)];
  const std::vector<std::pair<Size, Index>>& my_fibers =
      owned_fibers_[static_cast<Size>(tid)];
  // Fused pipeline (DESIGN.md §11): kernel 7 and the end-of-step force
  // reset touch only the cubes of this step's IB footprint. A cube column
  // is (cx, cy), i.e. cube id / cubes_z.
  const bool fused = params_.fused_step;
  const Size cubes_z = static_cast<Size>(grid_.cubes_z());

  // Liveness: one heartbeat per sync point per step plus a cancel poll
  // at the step boundary. The label names the sync point the thread is
  // about to enter, which is what a hang report shows for a thread that
  // never came out of it.
  for (Index step = 0; step < num_steps; ++step) {
    cancel_point("cube:step");
    sync_point("cube:step:start", tid, step);
    // One bar per thread per step in the trace timeline; kernel and
    // barrier-wait spans nest inside it.
    LBMIB_TRACE_SPAN(obs::SpanCat::kStep, "step",
                     static_cast<std::int64_t>(first_step + step));
    const IbFootprint::Stamp stamp =
        first_stamp + static_cast<IbFootprint::Stamp>(step);
    auto in_footprint = [&](Size cube) {
      return !fused || footprint_.covered(cube / cubes_z, stamp);
    };
    // --- 1st loop: fiber kernels 1-4 on owned fibers ---------------------
    LBMIB_RACE_CHECK(race::context("cube solver: spread phase");)
    {
      const PhaseScope phase(prof, Kernel::kBendingForce, fused);
      for (const auto& [s, f] : my_fibers) {
        compute_bending_force(structure_[s], f, f + 1);
      }
    }
    {
      const PhaseScope phase(prof, Kernel::kStretchingForce, fused);
      for (const auto& [s, f] : my_fibers) {
        compute_stretching_force(structure_[s], f, f + 1);
      }
    }
    {
      const PhaseScope phase(prof, Kernel::kElasticForce, fused);
      for (const auto& [s, f] : my_fibers) {
        compute_elastic_force(structure_[s], f, f + 1);
      }
    }
    {
      const PhaseScope phase(prof, Kernel::kSpreadForce, fused);
      for (const auto& [s, f] : my_fibers) {
        if (fused) footprint_.mark(structure_[s], f, f + 1, stamp);
        cube_spread_force(structure_[s], grid_, dist_, locks_, f, f + 1);
      }
    }
    // Extra barrier (see header comment): all spreading must land before
    // any thread collides.
    sync_point("cube:barrier:spread", tid, step, barrier, checker,
               StepPhase::kCollideStream);
    LBMIB_RACE_CHECK(race::context("cube solver: collide+stream phase");)

    // --- 2nd loop: collision + streaming per cube ------------------------
    if (fused) {
      // One register-fused pass per cube (kernels 5+6), billed to the
      // collision bucket — there is no second traversal to time.
      const PhaseScope phase(prof, Kernel::kCollision, fused);
      for (Size cube : my_cubes) {
        if (mrt_) {
          cube_mrt_collide_stream(grid_, *mrt_, cube, params_.simd_step);
        } else {
          cube_collide_stream(grid_, params_.tau, cube,
                              params_.simd_step);
        }
      }
    } else {
      // All owned cubes collide, then all stream: a cube's collision
      // writes only its own df, which only its own streaming reads, so
      // the split leaves every value as the per-cube interleave did.
      {
        const PhaseScope phase(prof, Kernel::kCollision, fused);
        for (Size cube : my_cubes) {
          if (mrt_) {
            cube_mrt_collide(grid_, *mrt_, cube);
          } else {
            cube_collide(grid_, params_.tau, cube);
          }
        }
      }
      const PhaseScope phase(prof, Kernel::kStreaming, fused);
      for (Size cube : my_cubes) cube_stream(grid_, cube);
    }
    sync_point("cube:barrier:collide", tid, step, barrier, checker,
               StepPhase::kUpdate);  // paper barrier #1
    LBMIB_RACE_CHECK(race::context("cube solver: update phase");)

    // --- 3rd loop: update velocity ---------------------------------------
    {
      const PhaseScope phase(prof, Kernel::kUpdateVelocity, fused);
      if (uses_inlet_outlet(params_.boundary)) {
        for (Size cube : my_cubes) {
          cube_apply_inlet_outlet(grid_, params_.inlet_velocity, cube);
        }
      }
      Size nodes = 0;
      for (Size cube : my_cubes) {
        if (!in_footprint(cube)) continue;
        cube_update_velocity(grid_, cube);
        nodes += grid_.nodes_per_cube();
      }
      count_velocity_update(nodes);
    }
    sync_point("cube:barrier:update", tid, step, barrier, checker,
               StepPhase::kMoveCopy);  // paper barrier #2
    LBMIB_RACE_CHECK(race::context("cube solver: move+copy phase");)

    // --- 4th loop: move owned fibers --------------------------------------
    {
      const PhaseScope phase(prof, Kernel::kMoveFibers, fused);
      for (const auto& [s, f] : my_fibers) {
        cube_move_fibers(structure_[s], grid_, f, f + 1);
      }
    }

    // --- 5th loop: kernel 9, and reset forces for the next step's
    // spreading (own cubes only, so no synchronization needed) -------------
    if (fused && tid == 0) {
      // Kernel 9 as an O(1) parity flip, done once by thread 0. Legal
      // anywhere inside the move+copy phase: after barrier #2 no thread
      // reads df/df_new again this step (loops 4/5 touch only
      // velocity/force slots, whose bases never move), and barrier #3
      // publishes the flip before the next step's reads.
      const PhaseScope phase(prof, Kernel::kCopyDistribution, fused);
      grid_.swap_df_buffers();
    } else if (!fused) {
      const PhaseScope phase(prof, Kernel::kCopyDistribution, fused);
      for (Size cube : my_cubes) cube_copy_distributions(grid_, cube);
    }
    {
      // The reset belongs to the next step's spreading, like the planar
      // solvers' resets.
      const PhaseScope phase(prof, Kernel::kSpreadForce, fused);
      for (Size cube : my_cubes) {
        // Off the footprint the force field already holds the body force.
        if (!in_footprint(cube)) continue;
        // The reset below writes the force slots directly, bypassing the
        // hooked add_force accessors.
        LBMIB_RACE_CHECK(race::access(&grid_, cube, RaceField::kForce,
                                      RaceAccess::kWrite, "reset forces");)
        Real* fx = grid_.slot(cube, CubeGrid::kFxSlot);
        Real* fy = grid_.slot(cube, CubeGrid::kFySlot);
        Real* fz = grid_.slot(cube, CubeGrid::kFzSlot);
        for (Size local = 0; local < grid_.nodes_per_cube(); ++local) {
          fx[local] = params_.body_force.x;
          fy[local] = params_.body_force.y;
          fz[local] = params_.body_force.z;
        }
      }
    }
    sync_point("cube:barrier:step-end", tid, step, barrier, checker,
               StepPhase::kSpread);  // paper barrier #3 (end of step)

    if (tid == 0) {
      // Only thread 0 touches the solver's bookkeeping; the others
      // derive their stamps from first_stamp.
      ++steps_completed_;
      if (fused) finish_fused_steps(stamp);
    }
    if (observer && ((step + 1) % observer_interval == 0)) {
      if (tid == 0) observer(*this, steps_completed_ - 1);
      sync_point("cube:barrier:observer", tid, step, barrier);
    }
  }
}

void CubeSolver::run_loop(Index num_steps, const StepObserver& observer,
                          Index observer_interval) {
  // Only worker 0 advances steps_completed_ during the run, so every
  // worker takes the run's first step and stamp from here.
  const Index first_step = steps_completed_;
  const IbFootprint::Stamp first_stamp = footprint_stamp_ + 1;
  ThreadTeam team(params_.num_threads);
  team.run([&](int tid) {
    thread_entry(tid, first_step, num_steps, first_stamp, observer,
                 observer_interval);
  });
}

void CubeSolver::step() { run_loop(1, nullptr, 1); }

void CubeSolver::run(Index num_steps, const StepObserver& observer,
                     Index observer_interval) {
  require(observer_interval >= 1, "observer interval must be >= 1");
  if (num_steps <= 0) return;
  run_loop(num_steps, observer, observer_interval);
}

Size CubeSolver::recompute_stale_macroscopic() const {
  // Runs outside the step protocol — between runs, or from the step
  // observer on worker 0 while every other worker is parked at the
  // observer barrier — so it is not an owner-phase kernel: detach the
  // ownership checker for its duration.
  AccessChecker* const checker = grid_.access_checker();
  grid_.attach_access_checker(nullptr);
  const Size nodes =
      cube_materialize_off_footprint(grid_, footprint_, footprint_stamp_);
  grid_.attach_access_checker(checker);
  return nodes;
}

}  // namespace lbmib
