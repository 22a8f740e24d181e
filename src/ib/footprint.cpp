#include "ib/footprint.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"
#include "ib/fiber_sheet.hpp"
#include "ib/spreading.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/macroscopic.hpp"

namespace lbmib {

IbFootprint::IbFootprint(Index nx, Index ny, Index block, Index x_lo,
                         Index x_hi, Index y_lo, Index y_hi)
    : nx_(nx),
      ny_(ny),
      block_(block),
      x_lo_(x_lo),
      x_hi_(x_hi),
      y_lo_(y_lo),
      y_hi_(y_hi) {
  require(block >= 1 && 0 <= x_lo && x_lo < x_hi && x_hi <= nx &&
              0 <= y_lo && y_lo < y_hi && y_hi <= ny,
          "IB footprint window must lie inside the grid");
  cols_y_ = (y_hi - y_lo + block - 1) / block;
  const Index cols_x = (x_hi - x_lo + block - 1) / block;
  stamps_.assign(static_cast<Size>(cols_x) * static_cast<Size>(cols_y_), 0);
}

void IbFootprint::mark(const Vec3& pos, Stamp stamp) {
  // The stencil's base indices only: the weights do not matter, the
  // footprint keeps every row of the 4 x 4 (x, y) block. The y columns
  // are resolved once, outside the x loop; a distributed rank's window
  // rejects most points at the x test.
  const Index base_x = influence_base(pos.x);
  const Index base_y = influence_base(pos.y);
  Size cols[4];
  int ncols = 0;
  for (int b = 0; b < 4; ++b) {
    const Index gy = FluidGrid::wrap(base_y + b, ny_);
    if (gy < y_lo_ || gy >= y_hi_) continue;
    cols[ncols++] = static_cast<Size>((gy - y_lo_) / block_);
  }
  if (ncols == 0) return;
  for (int a = 0; a < 4; ++a) {
    const Index gx = FluidGrid::wrap(base_x + a, nx_);
    if (gx < x_lo_ || gx >= x_hi_) continue;
    const Size row = static_cast<Size>((gx - x_lo_) / block_) *
                     static_cast<Size>(cols_y_);
    for (int b = 0; b < ncols; ++b) {
      std::atomic_ref<Stamp>(stamps_[row + cols[b]])
          .store(stamp, std::memory_order_relaxed);
    }
  }
}

void IbFootprint::mark(const FiberSheet& sheet, Index fiber_begin,
                       Index fiber_end, Stamp stamp) {
  for (Index f = fiber_begin; f < fiber_end; ++f) {
    for (Index j = 0; j < sheet.nodes_per_fiber(); ++j) {
      mark(sheet.position(sheet.id(f, j)), stamp);
    }
  }
}

Size IbFootprint::count(Stamp stamp) const {
  return static_cast<Size>(
      std::count(stamps_.begin(), stamps_.end(), stamp));
}

namespace {

/// Calls f(first_node, last_node) for the node runs of the columns in
/// [col_begin, col_end) whose coverage by `stamp` equals `want`; returns
/// the nodes visited.
template <class F>
Size for_each_node_run(const FluidGrid& grid, const IbFootprint& fp,
                       IbFootprint::Stamp stamp, bool want, Size col_begin,
                       Size col_end, Size node_begin, F&& f) {
  const Size nz = static_cast<Size>(grid.nz());
  Size nodes = 0;
  fp.for_each_run(col_begin, col_end, stamp, want, [&](Size c0, Size c1) {
    const Size begin = node_begin + (c0 - col_begin) * nz;
    const Size end = node_begin + (c1 - col_begin) * nz;
    f(begin, end);
    nodes += end - begin;
  });
  return nodes;
}

}  // namespace

Size reset_forces_on_footprint(FluidGrid& grid, const IbFootprint& fp,
                               IbFootprint::Stamp stamp, Size col_begin,
                               Size col_end, Size node_begin,
                               const Vec3& force) {
  return for_each_node_run(grid, fp, stamp, true, col_begin, col_end,
                           node_begin, [&](Size begin, Size end) {
                             grid.reset_forces(force, begin, end);
                           });
}

Size update_velocity_on_footprint(FluidGrid& grid, const IbFootprint& fp,
                                  IbFootprint::Stamp stamp, Size col_begin,
                                  Size col_end, Size node_begin) {
  return for_each_node_run(grid, fp, stamp, true, col_begin, col_end,
                           node_begin, [&](Size begin, Size end) {
                             update_velocity_range(grid, begin, end);
                           });
}

Size materialize_velocity_off_footprint(FluidGrid& grid,
                                        const IbFootprint& fp,
                                        IbFootprint::Stamp stamp,
                                        Size col_begin, Size col_end,
                                        Size node_begin) {
  return for_each_node_run(grid, fp, stamp, false, col_begin, col_end,
                           node_begin, [&](Size begin, Size end) {
                             materialize_velocity_range(grid, begin, end);
                           });
}

}  // namespace lbmib
