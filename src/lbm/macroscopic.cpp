#include "lbm/macroscopic.hpp"

#include <algorithm>

#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/simd.hpp"
#include "parallel/instrumentation.hpp"

namespace lbmib {

namespace {

using namespace d3q19;

/// Lane-block moment update over [b, b+len) with per-lane solid masking.
/// Plane-outer accumulation: each direction plane is one contiguous
/// streamed read, and per node the directions still sum in 0..kQ-1
/// order, so every fluid lane computes exactly the scalar body's
/// sequence. Solid lanes write u = 0 and leave rho untouched (the
/// scalar contract); their garbage moments — including a possible
/// 1/0 = inf — are computed and discarded, which is cheaper than
/// forfeiting the whole block to the scalar path (with walled
/// boundaries every z-row block contains two wall nodes).
inline void moments_block(FluidGrid& grid, const Real* const* planes,
                          const std::uint8_t* solid, Size b, Size len) {
  Real rho[simd::kLaneBlock];
  Real mx[simd::kLaneBlock];
  Real my[simd::kLaneBlock];
  Real mz[simd::kLaneBlock];
  for (Size l = 0; l < len; ++l) rho[l] = mx[l] = my[l] = mz[l] = 0.0;
  for (int i = 0; i < kQ; ++i) {
    const Real* LBMIB_RESTRICT g = planes[i] + b;
    const Real cxr = cx[static_cast<Size>(i)];
    const Real cyr = cy[static_cast<Size>(i)];
    const Real czr = cz[static_cast<Size>(i)];
#pragma omp simd
    for (Size l = 0; l < len; ++l) {
      const Real gi = g[l];
      rho[l] += gi;
      mx[l] += gi * cxr;
      my[l] += gi * cyr;
      mz[l] += gi * czr;
    }
  }
  const Real* LBMIB_RESTRICT fx = grid.fx_data() + b;
  const Real* LBMIB_RESTRICT fy = grid.fy_data() + b;
  const Real* LBMIB_RESTRICT fz = grid.fz_data() + b;
  Real* LBMIB_RESTRICT out_rho = grid.rho_data() + b;
  Real* LBMIB_RESTRICT out_ux = grid.ux_data() + b;
  Real* LBMIB_RESTRICT out_uy = grid.uy_data() + b;
  Real* LBMIB_RESTRICT out_uz = grid.uz_data() + b;
  const std::uint8_t* LBMIB_RESTRICT s = solid + b;
#pragma omp simd
  for (Size l = 0; l < len; ++l) {
    const Real inv_rho = Real{1} / rho[l];
    const bool fluid = s[l] == 0;
    if (fluid) out_rho[l] = rho[l];
    out_ux[l] = fluid ? (mx[l] + Real{0.5} * fx[l]) * inv_rho : Real{0};
    out_uy[l] = fluid ? (my[l] + Real{0.5} * fy[l]) * inv_rho : Real{0};
    out_uz[l] = fluid ? (mz[l] + Real{0.5} * fz[l]) * inv_rho : Real{0};
  }
}

/// Moments of [begin, end) from the 19 direction planes `planes`.
void moments_range(FluidGrid& grid, const Real* const* planes, Size begin,
                   Size end) {
  const std::uint8_t* solid = grid.solid_data();
  for (Size b = begin; b < end; b += simd::kLaneBlock) {
    const Size len = std::min<Size>(simd::kLaneBlock, end - b);
    moments_block(grid, planes, solid, b, len);
  }
}

}  // namespace

void update_velocity_range(FluidGrid& grid, Size begin, Size end) {
  LBMIB_INSTRUMENT(
      inst::node_range(grid, begin, end, RaceField::kMacro,
                       RaceAccess::kWrite,
                       "update_velocity_range: macroscopic write");
      inst::node_range(grid, begin, end, RaceField::kDfNew,
                       RaceAccess::kRead,
                       "update_velocity_range: streamed df read");
      inst::node_range(grid, begin, end, RaceField::kForce,
                       RaceAccess::kRead,
                       "update_velocity_range: force read");)
  const Real* planes[kQ];
  for (int i = 0; i < kQ; ++i) planes[i] = grid.df_new_plane(i);
  moments_range(grid, planes, begin, end);
}

void materialize_velocity_range(FluidGrid& grid, Size begin, Size end) {
  LBMIB_INSTRUMENT(
      inst::node_range(grid, begin, end, RaceField::kMacro,
                       RaceAccess::kWrite,
                       "materialize_velocity_range: macroscopic write");
      inst::node_range(grid, begin, end, RaceField::kDf, RaceAccess::kRead,
                       "materialize_velocity_range: present df read");
      inst::node_range(grid, begin, end, RaceField::kForce,
                       RaceAccess::kRead,
                       "materialize_velocity_range: force read");)
  const Real* planes[kQ];
  for (int i = 0; i < kQ; ++i) planes[i] = grid.df_plane(i);
  moments_range(grid, planes, begin, end);
}

}  // namespace lbmib
