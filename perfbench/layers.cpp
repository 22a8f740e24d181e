// Per-layer probes of the traced run, all measured from outside the
// library by timing calls into its public functions.
//
// lbm/ib   A replica of SequentialSolver::step (fused pipeline) built
//          from the public kernels, one timer around each call. It runs
//          in lock-step with a real SequentialSolver and must end
//          bit-identical to it, so the trace measures the same program.
//          Bytes per call come from perfmodel::kernel_traffic (computed,
//          not counted).
// cube     The cube sweep kernels over every cube of a CubeGrid, the
//          locked spread on 4 threads, and CubeGrid::from_planar.
// parallel SpinBarrier waits, ThreadTeam fork/join and a halo-sized
//          Channel round trip, each on the benchmark's own threads.
// perfmodel  The roofline denominators: a single-thread triad in and out
//          of the LLC, and perfmodel::measure_peak_gflops.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <span>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/aligned_buffer.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"
#include "cube/cube_grid.hpp"
#include "cube/cube_kernels.hpp"
#include "cube/distribution.hpp"
#include "ib/fiber_forces.hpp"
#include "ib/fiber_sheet.hpp"
#include "ib/interpolation.hpp"
#include "ib/spreading.hpp"
#include "lbm/boundary.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/fused.hpp"
#include "lbm/macroscopic.hpp"
#include "parallel/barrier.hpp"
#include "parallel/channel.hpp"
#include "parallel/mesh.hpp"
#include "parallel/spinlock.hpp"
#include "parallel/thread_team.hpp"
#include "perfmodel/roofline.hpp"

namespace lbmbench {
namespace {

using namespace lbmib;

constexpr int kTeam = 4;

double bytes_per_unit(const char* span) {
  const perfmodel::KernelTraffic* t = perfmodel::kernel_traffic(span);
  return t != nullptr ? t->bytes_per_unit : 0.0;
}

/// Per-call times of one replica step, in seconds.
struct StepTimes {
  double forces = 0, reset = 0, spread = 0, sweep = 0, update = 0,
         move = 0, swap = 0, total = 0;
};

/// SequentialSolver::step, fused pipeline, replayed from public calls.
class Replica {
 public:
  explicit Replica(const SimulationParams& p)
      : p_(p), grid_(p), structure_(make_structure(p)) {}

  StepTimes step() {
    StepTimes t;
    const auto t0 = Clock::now();
    for (FiberSheet& s : structure_) {
      compute_bending_force(s, 0, s.num_fibers());
    }
    for (FiberSheet& s : structure_) {
      compute_stretching_force(s, 0, s.num_fibers());
    }
    for (FiberSheet& s : structure_) {
      compute_elastic_force(s, 0, s.num_fibers());
    }
    const auto t1 = Clock::now();
    grid_.reset_forces(p_.body_force);
    const auto t2 = Clock::now();
    for (const FiberSheet& s : structure_) {
      spread_force(s, grid_, 0, s.num_fibers());
    }
    const auto t3 = Clock::now();
    fused_collide_stream_x_slab(grid_, p_.tau, nullptr, 0, grid_.nx(),
                                p_.simd_step, p_.tile_y);
    const auto t4 = Clock::now();
    if (uses_inlet_outlet(p_.boundary)) {
      apply_inlet_outlet(grid_, p_.inlet_velocity, 0, grid_.nx());
    }
    update_velocity_range(grid_, 0, grid_.num_nodes());
    const auto t5 = Clock::now();
    for (FiberSheet& s : structure_) {
      move_fibers(s, grid_, 0, s.num_fibers());
    }
    const auto t6 = Clock::now();
    grid_.swap_buffers();
    const auto t7 = Clock::now();
    auto d = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    t.forces = d(t0, t1);
    t.reset = d(t1, t2);
    t.spread = d(t2, t3);
    t.sweep = d(t3, t4);
    t.update = d(t4, t5);
    t.move = d(t5, t6);
    t.swap = d(t6, t7);
    t.total = d(t0, t7);
    return t;
  }

  FluidGrid& grid() { return grid_; }
  Structure& structure() { return structure_; }

 private:
  SimulationParams p_;
  FluidGrid grid_;
  Structure structure_;
};

template <class F>
std::vector<double> column(const std::vector<StepTimes>& v, F f) {
  std::vector<double> out;
  for (const StepTimes& t : v) out.push_back(f(t));
  return out;
}

/// Time `body(tid)` on a team of kTeam threads `reps` times, separated by
/// barriers; returns thread 0's per-rep times.
template <class Body>
std::vector<double> team_reps(int reps, Body body) {
  SpinBarrier barrier(kTeam);
  std::vector<double> times;
  ThreadTeam team(kTeam);
  team.run([&](int tid) {
    for (int r = 0; r < reps; ++r) {
      barrier.arrive_and_wait();
      const auto t0 = Clock::now();
      body(tid);
      barrier.arrive_and_wait();
      if (tid == 0) times.push_back(seconds_since(t0));
    }
  });
  return times;
}

Index fiber_begin(Index nf, int tid) { return nf * tid / kTeam; }

/// Single-thread triad a[i] = b[i] + s * c[i]; best-of-reps is avoided:
/// the median of `reps` sweeps, in GB/s (3 arrays x 8 bytes per element).
double triad_gbps(std::size_t elems, int reps) {
  AlignedBuffer<double> a(elems), b(elems), c(elems);
  for (std::size_t i = 0; i < elems; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  std::vector<double> t;
  const double s = 0.5;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
#pragma omp simd
    for (std::size_t i = 0; i < elems; ++i) pa[i] = pb[i] + s * pc[i];
    t.push_back(seconds_since(t0));
  }
  if (a[elems / 2] != 2.0) std::cerr << "triad: unexpected result\n";
  return 3.0 * 8.0 * static_cast<double>(elems) / median(t) / 1e9;
}

}  // namespace

bool run_layer_probes(const SimulationParams& params,
                      const LayerOptions& opts, Report& report) {
  SimulationParams seq = params;
  seq.num_threads = 1;
  const double nodes = static_cast<double>(params.fluid_nodes());
  const double points = static_cast<double>(params.fiber_nodes());
  bool identical = false;
  std::vector<StepTimes> trace;
  std::vector<double> untraced;

  std::vector<double> atomic_t, cube_sweep, cube_update, cube_spread,
      from_planar;
  {
    // ---- lbm / ib: traced replica in lock-step with the solver -------
    SequentialSolver ref(seq);
    Replica rep(seq);
    for (const auto t0 = Clock::now();
         seconds_since(t0) < opts.seconds || trace.size() < 3;) {
      const auto r0 = Clock::now();
      ref.run(1);
      untraced.push_back(seconds_since(r0));
      trace.push_back(rep.step());
    }
    StateDiff d = compare_fluid(rep.grid(), ref.fluid());
    const StateDiff ds = compare_structures(rep.structure(), ref.structure());
    d.max_position = ds.max_position;
    d.max_force = ds.max_force;
    identical = d.max_any() == 0.0;
    std::cerr << "traced replica vs SequentialSolver after " << trace.size()
              << " steps: " << (identical ? "bit-identical" : "DIFFERS")
              << " (" << d.to_string() << ")\n";

    // ---- ib: atomic spread on the benchmark's own 4 threads ----------
    const int reps = opts.smoke ? 3 : 20;
    atomic_t = team_reps(reps, [&](int tid) {
      for (const FiberSheet& s : rep.structure()) {
        spread_force_atomic(s, rep.grid(), fiber_begin(s.num_fibers(), tid),
                            fiber_begin(s.num_fibers(), tid + 1));
      }
    });

    // ---- cube: sweep kernels, locked spread, layout conversion -------
    CubeGrid cubes(params);
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      cubes.from_planar(rep.grid());
      from_planar.push_back(seconds_since(t0));
    }
    const Size ncubes = cubes.num_cubes();
    for (int r = 0; r < (opts.smoke ? 2 : 5); ++r) {
      auto t0 = Clock::now();
      for (Size c = 0; c < ncubes; ++c) {
        cube_collide_stream(cubes, params.tau, c, params.simd_step);
      }
      cube_sweep.push_back(seconds_since(t0));
      t0 = Clock::now();
      for (Size c = 0; c < ncubes; ++c) cube_update_velocity(cubes, c);
      cube_update.push_back(seconds_since(t0));
      cubes.swap_df_buffers();
    }
    const ThreadMesh mesh = fitted_mesh(kTeam, cubes.cubes_x(),
                                        cubes.cubes_y(), cubes.cubes_z());
    const CubeDistribution dist(cubes.cubes_x(), cubes.cubes_y(),
                                cubes.cubes_z(), mesh);
    std::vector<SpinLock> locks(kTeam);
    cube_spread = team_reps(reps, [&](int tid) {
      for (const FiberSheet& s : rep.structure()) {
        cube_spread_force(s, cubes, dist, std::span<SpinLock>(locks),
                          fiber_begin(s.num_fibers(), tid),
                          fiber_begin(s.num_fibers(), tid + 1));
      }
    });
  }

  // ---- parallel: barrier, fork/join, halo-sized channel --------------
  // Barrier: blocks of kWaits back-to-back waits, one sample per block.
  constexpr int kWaits = 1000;
  SpinBarrier probe_barrier(kTeam);
  const std::vector<double> barrier_t =
      team_reps(opts.smoke ? 2 : 20, [&](int) {
        for (int i = 0; i < kWaits; ++i) probe_barrier.arrive_and_wait();
      });
  std::vector<double> fork_join;
  {
    ThreadTeam team(kTeam);
    for (int i = 0; i < (opts.smoke ? 20 : 200); ++i) {
      const auto t0 = Clock::now();
      team.run([](int) {});
      fork_join.push_back(seconds_since(t0));
    }
  }
  std::vector<double> msg_t;
  {
    // One face of a slab halo: 5 crossing populations over ny * nz nodes.
    const std::size_t halo = 5 * static_cast<std::size_t>(params.ny) *
                             static_cast<std::size_t>(params.nz);
    const std::vector<Real> source(halo, 1.0);
    std::vector<Real> sink(halo);
    Channel<std::vector<Real>> ping, pong;
    const int msgs = opts.smoke ? 50 : 1000;
    std::thread echo([&] {
      for (int i = 0; i < msgs; ++i) {
        std::vector<Real> m = ping.recv();
        std::copy(m.begin(), m.end(), sink.begin());
        pong.send(std::vector<Real>(source));
      }
    });
    for (int i = 0; i < msgs; ++i) {
      const auto t0 = Clock::now();
      ping.send(std::vector<Real>(source));
      std::vector<Real> m = pong.recv();
      std::copy(m.begin(), m.end(), sink.begin());
      msg_t.push_back(0.5 * seconds_since(t0));
    }
    echo.join();
  }

  // ---- perfmodel: roofline denominators ------------------------------
  // Out of the LLC: every array twice the LLC (six times in all); in the
  // LLC: all three arrays together a quarter of it.
  const std::size_t out_elems =
      opts.smoke ? (std::size_t{8} << 20) / 8 : 2 * opts.llc_bytes / 8;
  const std::size_t in_elems = opts.llc_bytes / 4 / 3 / 8;
  const double triad_out = triad_gbps(out_elems, opts.smoke ? 2 : 5);
  const double triad_in = triad_gbps(in_elems, opts.smoke ? 5 : 50);
  const double fma = perfmodel::measure_peak_gflops(1);
  std::cerr << "triad (1 thread): out-of-LLC arrays 3 x " << out_elems * 8
            << " B = " << triad_out << " GB/s; in-LLC arrays 3 x "
            << in_elems * 8 << " B = " << triad_in << " GB/s\n";

  // ---- figures -------------------------------------------------------
  const double ws = nodes * ((19 * 2 + 7) * 8.0 + 1.0);
  const double roof =
      ws > static_cast<double>(opts.llc_bytes) ? triad_out : triad_in;
  auto per = [](std::vector<double> v, double units, double scale) {
    for (double& x : v) x = x / units * scale;
    return v;
  };
  const auto sweep = column(trace, [](const StepTimes& t) { return t.sweep; });
  const auto update =
      column(trace, [](const StepTimes& t) { return t.update; });
  auto gbps = [&](const char* span, const std::vector<double>& t) {
    return bytes_per_unit(span) * nodes / median(t) / 1e9;
  };
  Report& r = report;
  r.add_samples("lbm.collide_stream.ns_per_node", "ns",
                per(sweep, nodes, 1e9), Better::kLower);
  r.add_value("lbm.collide_stream.model_gbps", "GB/s",
              gbps("collide_stream", sweep), sweep.size());
  r.add_value("lbm.collide_stream.roof_frac", "ratio",
              gbps("collide_stream", sweep) / roof, sweep.size());
  r.add_samples("lbm.update_velocity.ns_per_node", "ns",
                per(update, nodes, 1e9), Better::kLower);
  r.add_value("lbm.update_velocity.model_gbps", "GB/s",
              gbps("update_velocity", update), update.size());
  r.add_value("lbm.update_velocity.roof_frac", "ratio",
              gbps("update_velocity", update) / roof, update.size());
  r.add_samples("lbm.reset_forces.ns_per_node", "ns",
                per(column(trace, [](const StepTimes& t) { return t.reset; }),
                    nodes, 1e9),
                Better::kLower);
  r.add_samples("ib.fiber_forces.ns_per_point", "ns",
                per(column(trace, [](const StepTimes& t) { return t.forces; }),
                    points, 1e9),
                Better::kLower);
  const auto spread =
      column(trace, [](const StepTimes& t) { return t.spread; });
  r.add_samples("ib.spread.ns_per_point", "ns", per(spread, points, 1e9),
                Better::kLower);
  r.add_samples("ib.spread_atomic.ns_per_point", "ns",
                per(atomic_t, points, 1e9), Better::kLower);
  r.add_value("ib.spread.model_gbps", "GB/s",
              bytes_per_unit("spread") * points / median(spread) / 1e9,
              spread.size());
  r.add_samples("ib.move_fibers.ns_per_point", "ns",
                per(column(trace, [](const StepTimes& t) { return t.move; }),
                    points, 1e9),
                Better::kLower);
  r.add_samples("cube.collide_stream.ns_per_node", "ns",
                per(cube_sweep, nodes, 1e9), Better::kLower);
  r.add_samples("cube.update_velocity.ns_per_node", "ns",
                per(cube_update, nodes, 1e9), Better::kLower);
  r.add_samples("cube.spread.ns_per_point", "ns",
                per(cube_spread, points, 1e9), Better::kLower);
  r.add_samples("cube.from_planar_s", "s", from_planar, Better::kLower);
  r.add_samples("parallel.barrier.us_per_wait", "us",
                per(barrier_t, kWaits, 1e6), Better::kLower);
  r.add_samples("parallel.team.fork_join_us", "us", per(fork_join, 1.0, 1e6),
                Better::kLower);
  r.add_samples("parallel.channel.us_per_msg", "us", per(msg_t, 1.0, 1e6),
                Better::kLower);
  r.add_value("perfmodel.triad_gbps.out_of_llc", "GB/s", triad_out, 1);
  r.add_value("perfmodel.triad_gbps.in_llc", "GB/s", triad_in, 1);
  r.add_value("perfmodel.fma_gflops", "GFLOP/s", fma, 1);

  // Layer shares of the replica step and the cost of tracing it.
  double lbm = 0, ib = 0, total = 0;
  for (const StepTimes& t : trace) {
    lbm += t.reset + t.sweep + t.update + t.swap;
    ib += t.forces + t.spread + t.move;
    total += t.total;
  }
  r.add_value("lbm.step_frac", "ratio", lbm / total, trace.size());
  r.add_value("ib.step_frac", "ratio", ib / total, trace.size());
  r.add_value("trace_overhead_frac", "ratio",
              median(column(trace, [](const StepTimes& t) { return t.total; })) /
                      median(untraced) -
                  1.0,
              trace.size());
  return identical;
}

}  // namespace lbmbench
