#include "lbm/fluid_grid.hpp"

#include <omp.h>

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "lbm/boundary.hpp"
#include "lbm/d3q19.hpp"

namespace lbmib {

namespace {

/// Plane stride padded to a multiple of 8 doubles (64 bytes) so every
/// direction plane starts cache-line aligned, plus one extra cache line
/// of skew. Without the skew, power-of-two grids (e.g. 32^3 = 256 KiB
/// planes) put all 19 df read streams and 19 df_new write streams of the
/// fused sweep at identical cache-set and page offsets, and the resulting
/// set-conflict misses dominate the sweep. One line per plane staggers
/// the 19 streams across consecutive sets.
Size padded_stride(Size n) { return (n + 7) / 8 * 8 + 8; }

/// Static block partition of [0, count) — the same arithmetic as the
/// OpenMP solver's block_range, so first-touch initialization touches
/// exactly the pages each sweep worker will own.
Size slab_begin(Index count, int tid, int nthreads) {
  return static_cast<Size>(count) * static_cast<Size>(tid) /
         static_cast<Size>(nthreads);
}

}  // namespace

FluidGrid::FluidGrid(Index nx, Index ny, Index nz, Real rho0, const Vec3& u0)
    : nx_(nx),
      ny_(ny),
      nz_(nz),
      n_(static_cast<Size>(nx) * static_cast<Size>(ny) *
         static_cast<Size>(nz)),
      stride_(padded_stride(n_)) {
  require(nx > 0 && ny > 0 && nz > 0, "grid dimensions must be positive");
  allocate_and_init(rho0, u0, 1);
}

FluidGrid::FluidGrid(const SimulationParams& params)
    : nx_(params.nx),
      ny_(params.ny),
      nz_(params.nz),
      n_(params.fluid_nodes()),
      stride_(padded_stride(n_)) {
  require(nx_ > 0 && ny_ > 0 && nz_ > 0,
          "grid dimensions must be positive");
  allocate_and_init(params.rho0, params.initial_velocity,
                    params.first_touch ? params.num_threads : 1);
  apply_params_mask(*this, params);
  if (params.boundary == BoundaryType::kCavity) {
    set_lid_velocity(params.lid_velocity);
  }
}

void FluidGrid::allocate_and_init(Real rho0, const Vec3& u0, int threads) {
  const Size rows = static_cast<Size>(nx_) * static_cast<Size>(ny_);
  if (threads <= 1) {
    df_.reset(static_cast<Size>(kQ) * stride_);
    df_new_.reset(static_cast<Size>(kQ) * stride_);
    rho_.reset(n_);
    ux_.reset(n_);
    uy_.reset(n_);
    uz_.reset(n_);
    fx_.reset(n_);
    fy_.reset(n_);
    fz_.reset(n_);
    solid_.reset(n_);
    initialize(rho0, u0);
  } else {
    // NUMA first-touch: allocate without touching (aligned_alloc faults no
    // pages), then let an OpenMP team write each x-slab so the pages bind
    // to the node of the thread that will sweep them.
    df_.reset_uninitialized(static_cast<Size>(kQ) * stride_);
    df_new_.reset_uninitialized(static_cast<Size>(kQ) * stride_);
    rho_.reset_uninitialized(n_);
    ux_.reset_uninitialized(n_);
    uy_.reset_uninitialized(n_);
    uz_.reset_uninitialized(n_);
    fx_.reset_uninitialized(n_);
    fy_.reset_uninitialized(n_);
    fz_.reset_uninitialized(n_);
    solid_.reset_uninitialized(n_);
    Real eq[kQ];
    for (int dir = 0; dir < kQ; ++dir) {
      eq[dir] = d3q19::equilibrium(dir, rho0, u0);
    }
    const Size plane = static_cast<Size>(ny_) * static_cast<Size>(nz_);
#pragma omp parallel num_threads(threads)
    {
      const int tid = omp_get_thread_num();
      const int nth = omp_get_num_threads();
      const Size begin = slab_begin(nx_, tid, nth) * plane;
      const Size end = slab_begin(nx_, tid + 1, nth) * plane;
      const Size count = end - begin;
      if (count > 0) {
        for (int dir = 0; dir < kQ; ++dir) {
          Real* g = df_.data() + static_cast<Size>(dir) * stride_ + begin;
          Real* gn =
              df_new_.data() + static_cast<Size>(dir) * stride_ + begin;
          const Real v = eq[dir];
          for (Size i = 0; i < count; ++i) g[i] = v;
          std::memset(gn, 0, count * sizeof(Real));
        }
        for (Size i = begin; i < end; ++i) {
          rho_[i] = rho0;
          ux_[i] = u0.x;
          uy_[i] = u0.y;
          uz_[i] = u0.z;
        }
        std::memset(fx_.data() + begin, 0, count * sizeof(Real));
        std::memset(fy_.data() + begin, 0, count * sizeof(Real));
        std::memset(fz_.data() + begin, 0, count * sizeof(Real));
        std::memset(solid_.data() + begin, 0, count);
      }
      if (tid == nth - 1 && stride_ > n_) {
        // Zero each plane's padding tail (never read; keeps the buffers
        // fully initialized for whole-buffer memcpys).
        for (int dir = 0; dir < kQ; ++dir) {
          const Size tail = static_cast<Size>(dir) * stride_ + n_;
          std::memset(df_.data() + tail, 0, (stride_ - n_) * sizeof(Real));
          std::memset(df_new_.data() + tail, 0,
                      (stride_ - n_) * sizeof(Real));
        }
      }
    }
  }
  row_has_solid_.reset(rows);
  row_interior_solid_.reset(rows);
  row_solid_.reset(rows);
  row_clear_.reset(rows);
  row_cap_clear_.reset(rows);
  row_wrap_clear_.reset(rows);
  row_wrap_cap_clear_.reset(rows);
  for (Index x = 1; x + 1 < nx_; ++x) {
    for (Index y = 1; y + 1 < ny_; ++y) {
      const Size row = static_cast<Size>(x) * static_cast<Size>(ny_) +
                       static_cast<Size>(y);
      row_clear_[row] = 1;
      row_cap_clear_[row] = 1;
    }
  }
  // Solid-free grid: every row is wrap-clear (the wrapped neighborhood
  // has no interior requirement).
  row_wrap_clear_.fill(1);
  row_wrap_cap_clear_.fill(1);
}

void FluidGrid::initialize(Real rho0, const Vec3& u0) {
  for (Size node = 0; node < n_; ++node) {
    rho_[node] = rho0;
    ux_[node] = u0.x;
    uy_[node] = u0.y;
    uz_[node] = u0.z;
    fx_[node] = fy_[node] = fz_[node] = 0.0;
    for (int dir = 0; dir < kQ; ++dir) {
      df(dir, node) = d3q19::equilibrium(dir, rho0, u0);
      df_new(dir, node) = 0.0;
    }
  }
}

void FluidGrid::set_solid(Size node, bool s) {
  const std::uint8_t v = s ? 1 : 0;
  if (solid_[node] == v) return;
  solid_[node] = v;
  const Size row = node / static_cast<Size>(nz_);
  const std::uint8_t* p = solid_.data() + row * static_cast<Size>(nz_);
  std::uint8_t any = 0;
  std::uint8_t all = 1;
  std::uint8_t any_interior = 0;
  for (Index zz = 0; zz < nz_; ++zz) {
    any |= p[zz];
    all &= p[zz];
    if (zz > 0 && zz + 1 < nz_) any_interior |= p[zz];
  }
  row_has_solid_[row] = any;
  row_solid_[row] = all;
  row_interior_solid_[row] = any_interior;
  const Index x = static_cast<Index>(row) / ny_;
  const Index y = static_cast<Index>(row) % ny_;
  for (Index dx = -1; dx <= 1; ++dx) {
    for (Index dy = -1; dy <= 1; ++dy) {
      recompute_row_clear(x + dx, y + dy);
      recompute_row_wrap_clear(wrap(x + dx, nx_), wrap(y + dy, ny_));
    }
  }
}

void FluidGrid::recompute_row_clear(Index x, Index y) {
  if (x < 1 || x + 1 >= nx_ || y < 1 || y + 1 >= ny_) return;
  std::uint8_t any = 0;
  std::uint8_t any_interior = 0;
  for (Index dx = -1; dx <= 1; ++dx) {
    for (Index dy = -1; dy <= 1; ++dy) {
      const Size row = static_cast<Size>(x + dx) * static_cast<Size>(ny_) +
                       static_cast<Size>(y + dy);
      any |= row_has_solid_[row];
      any_interior |= row_interior_solid_[row];
    }
  }
  const Size row = static_cast<Size>(x) * static_cast<Size>(ny_) +
                   static_cast<Size>(y);
  row_clear_[row] = any ? 0 : 1;
  row_cap_clear_[row] = any_interior ? 0 : 1;
}

void FluidGrid::recompute_row_wrap_clear(Index x, Index y) {
  std::uint8_t any = 0;
  std::uint8_t any_interior = 0;
  for (Index dx = -1; dx <= 1; ++dx) {
    for (Index dy = -1; dy <= 1; ++dy) {
      const Size row =
          static_cast<Size>(wrap(x + dx, nx_)) * static_cast<Size>(ny_) +
          static_cast<Size>(wrap(y + dy, ny_));
      any |= row_has_solid_[row];
      any_interior |= row_interior_solid_[row];
    }
  }
  const Size row = static_cast<Size>(x) * static_cast<Size>(ny_) +
                   static_cast<Size>(y);
  row_wrap_clear_[row] = any ? 0 : 1;
  row_wrap_cap_clear_[row] = any_interior ? 0 : 1;
}

void FluidGrid::reset_forces(const Vec3& constant_force) {
  fx_.fill(constant_force.x);
  fy_.fill(constant_force.y);
  fz_.fill(constant_force.z);
}

void FluidGrid::reset_forces(const Vec3& constant_force, Size begin,
                             Size end) {
  std::fill(fx_.data() + begin, fx_.data() + end, constant_force.x);
  std::fill(fy_.data() + begin, fy_.data() + end, constant_force.y);
  std::fill(fz_.data() + begin, fz_.data() + end, constant_force.z);
}

void FluidGrid::copy_from(const FluidGrid& other) {
  require(other.nx_ == nx_ && other.ny_ == ny_ && other.nz_ == nz_,
          "copy_from requires identical grid dimensions");
  // Whole-buffer memcpy per field: this sits on the snapshot/checkpoint
  // hot path, where element-wise loops left ~10x throughput on the table.
  auto copy = [](auto& dst, const auto& src) {
    using T = std::remove_reference_t<decltype(dst[0])>;
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(T));
  };
  copy(df_, other.df_);
  copy(df_new_, other.df_new_);
  copy(rho_, other.rho_);
  copy(ux_, other.ux_);
  copy(uy_, other.uy_);
  copy(uz_, other.uz_);
  copy(fx_, other.fx_);
  copy(fy_, other.fy_);
  copy(fz_, other.fz_);
  copy(solid_, other.solid_);
  copy(row_has_solid_, other.row_has_solid_);
  copy(row_interior_solid_, other.row_interior_solid_);
  copy(row_solid_, other.row_solid_);
  copy(row_clear_, other.row_clear_);
  copy(row_cap_clear_, other.row_cap_clear_);
  copy(row_wrap_clear_, other.row_wrap_clear_);
  copy(row_wrap_cap_clear_, other.row_wrap_cap_clear_);
}

Real FluidGrid::total_mass() const {
  // Plane-outer over the SoA direction planes: each plane is one
  // contiguous streamed read instead of kQ strided touches per node.
  // (Health guards compare against tolerances, so the changed floating-
  // point summation order is benign.)
  Real mass = 0.0;
  for (int dir = 0; dir < kQ; ++dir) {
    const Real* g = df_plane(dir);
    Real plane_sum = 0.0;
    for (Size node = 0; node < n_; ++node) {
      if (solid_[node]) continue;
      plane_sum += g[node];
    }
    mass += plane_sum;
  }
  return mass;
}

Vec3 FluidGrid::total_momentum() const {
  Vec3 p{};
  for (int dir = 0; dir < kQ; ++dir) {
    const int cx = d3q19::cx[static_cast<Size>(dir)];
    const int cy = d3q19::cy[static_cast<Size>(dir)];
    const int cz = d3q19::cz[static_cast<Size>(dir)];
    if (cx == 0 && cy == 0 && cz == 0) continue;
    const Real* g = df_plane(dir);
    Real plane_sum = 0.0;
    for (Size node = 0; node < n_; ++node) {
      if (solid_[node]) continue;
      plane_sum += g[node];
    }
    p.x += plane_sum * cx;
    p.y += plane_sum * cy;
    p.z += plane_sum * cz;
  }
  return p;
}

}  // namespace lbmib
