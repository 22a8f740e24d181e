// The two workloads of the benchmark.
//
// bulk-160        160x160x40 channel, one 20x20 sheet: the sweep kernels
//                 do nearly all the work, and each full-size solver state
//                 (370 MB) is larger than a 300 MiB LLC.
// fiber-dense-64  64^3 channel, four 64x64 sheets (16 384 points): the
//                 IB kernels dominate and the grid stays in the LLC.
//
// Every workload's problem grows with the thread count by stacking the
// per-thread block along x, so the 1-thread problem is the per-thread
// share of the 4-thread one — the weak-scaling points of every workload.
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"

namespace lbmbench {

using lbmib::Index;
using lbmib::SimulationParams;

Workload make_workload(const std::string& name, bool smoke) {
  // name, block, sheet_per_block, points, extent, offset, timed steps
  if (name == "bulk-160") {
    return smoke ? Workload{name, {8, 32, 16}, false, {6, 6}, 4.0, {0, 0, 0},
                            1}
                 : Workload{name, {40, 160, 40}, false, {20, 20}, 10.0,
                            {0, 0, 0}, 3};
  }
  if (name == "fiber-dense-64") {
    return smoke ? Workload{name, {8, 32, 32}, true, {16, 16}, 12.0,
                            {4, 10, 10}, 2}
                 : Workload{name, {16, 64, 64}, true, {64, 64}, 40.0,
                            {8, 12, 12}, 6};
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (bulk-160, fiber-dense-64)");
}

SimulationParams Workload::params(int threads, std::uint64_t seed) const {
  SimulationParams p;
  p.nx = block[0] * threads;
  p.ny = block[1];
  p.nz = block[2];
  p.boundary = lbmib::BoundaryType::kChannel;
  p.body_force = {1e-5, 0.0, 0.0};
  p.cube_size = 8;
  p.num_threads = threads;

  // Sheet origins: per block, or one sheet centred in the whole domain.
  std::vector<lbmib::Vec3> origins;
  if (sheet_per_block) {
    for (int i = 0; i < threads; ++i) {
      origins.push_back({static_cast<double>(i * block[0]) + sheet_offset[0],
                         sheet_offset[1], sheet_offset[2]});
    }
  } else {
    origins.push_back({0.5 * static_cast<double>(p.nx),
                       0.5 * (static_cast<double>(p.ny) - sheet_extent),
                       0.5 * (static_cast<double>(p.nz) - sheet_extent)});
  }
  // The seed moves every sheet by a sub-lattice offset: the delta-stencil
  // alignment changes, the amount of work does not.
  lbmib::SplitMix64 rng(seed);
  for (lbmib::Vec3& o : origins) {
    o.x += rng.next_double(-0.5, 0.5);
    o.y += rng.next_double(-0.5, 0.5);
    o.z += rng.next_double(-0.5, 0.5);
  }

  p.num_fibers = sheet_points[0];
  p.nodes_per_fiber = sheet_points[1];
  p.sheet_width = sheet_extent;
  p.sheet_height = sheet_extent;
  p.sheet_origin = origins.front();
  for (std::size_t s = 1; s < origins.size(); ++s) {
    lbmib::SheetSpec spec;
    spec.num_fibers = sheet_points[0];
    spec.nodes_per_fiber = sheet_points[1];
    spec.width = sheet_extent;
    spec.height = sheet_extent;
    spec.origin = origins[s];
    spec.stretching_coeff = p.stretching_coeff;
    spec.bending_coeff = p.bending_coeff;
    p.extra_sheets.push_back(spec);
  }
  p.validate();
  return p;
}

}  // namespace lbmbench
