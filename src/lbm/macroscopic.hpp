// Kernel 7: update_fluid_velocity.
//
// Computes macroscopic density and velocity from the *streamed*
// distributions (df_new) plus the half-force correction required by the
// Guo forcing scheme:
//   rho = sum_i g_i,     u = (sum_i c_i g_i + F/2) / rho.
// Solid wall nodes get rho = rho and u = 0 (no-slip).
#pragma once

#include "common/types.hpp"

namespace lbmib {

class FluidGrid;

/// Update rho and u for every node in [begin, end) from df_new.
void update_velocity_range(FluidGrid& grid, Size begin, Size end);

/// The same arithmetic over the present populations (df): the on-demand
/// recompute of rho and u that the fused pipeline leaves stale. After the
/// fused pipeline's buffer swap df holds exactly what kernel 7 read as
/// df_new, and F is unchanged until the next step's force reset, so the
/// result is bit-identical to running kernel 7 on those nodes.
void materialize_velocity_range(FluidGrid& grid, Size begin, Size end);

}  // namespace lbmib
