// Ablation: the distributed-memory solver (paper future work #1) on its
// two rank-mesh shapes vs the shared-memory OpenMP solver on identical
// inputs — what moving to explicit halo exchange costs per step, and how
// much halo each mesh shape sends.
//
// On a real cluster the comparison flips: the distributed version scales
// past one node while shared memory cannot. Here the point is that the
// halo protocol's overhead is modest. The halo volume is read from the
// packets the solver actually sent (self-sends included: on the R x 1
// slab mesh a rank is its own y neighbour).
#include <iomanip>
#include <iostream>
#include <thread>

#include "core/distributed2d_solver.hpp"
#include "io/csv_writer.hpp"
#include "lbmib.hpp"

int main(int argc, char** argv) {
  using namespace lbmib;
  const Index steps = argc > 1 ? std::atol(argv[1]) : 6;

  SimulationParams base;
  base.nx = 48;
  base.ny = 24;
  base.nz = 24;
  base.boundary = BoundaryType::kChannel;
  base.body_force = {1e-5, 0.0, 0.0};
  base.num_fibers = 16;
  base.nodes_per_fiber = 16;
  base.sheet_width = 8.0;
  base.sheet_height = 8.0;
  base.sheet_origin = {20.0, 8.0, 8.0};

  std::cout << "=== Ablation: distributed-memory (halo exchange, slab and "
               "balanced meshes) vs shared-memory OpenMP ===\n";
  std::cout << "grid " << base.nx << "x" << base.ny << "x" << base.nz
            << ", " << steps << " steps; hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";

  CsvWriter csv("ablation_distributed.csv",
                {"ranks", "openmp_seconds", "slab_seconds",
                 "balanced_seconds", "slab_halo_KB_per_rank_step",
                 "balanced_halo_KB_per_rank_step"});

  // Wall time of `steps` steps, plus halo KB per rank-step when the
  // solver is a distributed one.
  auto measure = [&](SolverKind kind, const SimulationParams& p,
                     double& halo_kb) {
    auto solver = make_solver(kind, p);
    WallTimer timer;
    solver->run(steps);
    const double seconds = timer.seconds();
    if (const auto* dist =
            dynamic_cast<const Distributed2DSolver*>(solver.get())) {
      halo_kb = static_cast<double>(dist->halo_traffic().bytes) / 1024.0 /
                static_cast<double>(p.num_threads * steps);
    }
    return seconds;
  };

  std::cout << std::setw(7) << "ranks" << std::setw(12) << "OpenMP (s)"
            << std::setw(10) << "slab (s)" << std::setw(14)
            << "balanced (s)" << std::setw(20) << "slab halo KB/r/s"
            << std::setw(24) << "balanced halo KB/r/s" << '\n';
  std::cout << std::string(87, '-') << '\n';
  for (int ranks : {1, 2, 4, 8}) {
    SimulationParams p = base;
    p.num_threads = ranks;
    double unused = 0.0, slab_kb = 0.0, balanced_kb = 0.0;
    const double omp_s = measure(SolverKind::kOpenMP, p, unused);
    const double slab_s = measure(SolverKind::kDistributed, p, slab_kb);
    const double balanced_s =
        measure(SolverKind::kDistributed2D, p, balanced_kb);
    csv.row({static_cast<double>(ranks), omp_s, slab_s, balanced_s, slab_kb,
             balanced_kb});
    std::cout << std::setw(7) << ranks << std::fixed << std::setprecision(3)
              << std::setw(12) << omp_s << std::setw(10) << slab_s
              << std::setw(14) << balanced_s << std::setprecision(1)
              << std::setw(20) << slab_kb << std::setw(24) << balanced_kb
              << '\n';
  }
  std::cout << "\n(plus one 3*fiber-nodes all-reduce per step for the "
               "structure)\nWrote ablation_distributed.csv\n";
  return 0;
}
