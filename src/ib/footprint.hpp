// The IB footprint of a time step: the (x, y) rows whose z-column holds
// a node of some fiber point's 4x4x4 delta stencil.
//
// Force spreading (kernel 4) writes, and velocity interpolation (kernel
// 8) reads, only nodes of those rows, and both use the same positions
// (the structure does not move between them). Under the fused pipeline
// the solvers therefore run kernel 7 and the force reset on the
// footprint alone; every other node's stored rho/u is stale until a
// reader materializes it (DESIGN.md §11).
//
// The footprint covers a window [x_lo, x_hi) x [y_lo, y_hi) of the
// global grid — the whole grid, or a distributed rank's tile — in
// columns of `block` x `block` rows: block 1 for the planar solvers, the
// cube edge for the cube solvers (a column is then one stack of cubes).
// Column ids are x-major: ((gx - x_lo) / block) * columns_y() +
// (gy - y_lo) / block, so with block 1 over the whole grid a column id
// is the planar row id x * ny + y.
//
// Each column records the stamp of the last step whose footprint covered
// it. A new step needs no clearing pass, and several threads may mark at
// once: marks are relaxed atomic stores of one value, published by the
// barrier that follows the spread phase.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "common/vec3.hpp"

namespace lbmib {

class FiberSheet;
class FluidGrid;

class IbFootprint {
 public:
  using Stamp = std::uint32_t;

  IbFootprint() = default;
  /// Footprint over [x_lo, x_hi) x [y_lo, y_hi) of an nx x ny grid (the
  /// stencil wraps periodically over nx and ny before it is clipped to
  /// the window), in columns of block x block rows.
  IbFootprint(Index nx, Index ny, Index block, Index x_lo, Index x_hi,
              Index y_lo, Index y_hi);

  /// Footprint over the whole nx x ny grid.
  IbFootprint(Index nx, Index ny, Index block = 1)
      : IbFootprint(nx, ny, block, 0, nx, 0, ny) {}

  /// Record that the step stamped `stamp` covers the columns of the
  /// stencils around every point of fibers [fiber_begin, fiber_end).
  /// Thread-safe against concurrent marks.
  void mark(const FiberSheet& sheet, Index fiber_begin, Index fiber_end,
            Stamp stamp);

  /// True when the step stamped `stamp` covered `column`.
  bool covered(Size column, Stamp stamp) const {
    return stamps_[column] == stamp;
  }

  /// Number of columns the step stamped `stamp` covered.
  Size count(Stamp stamp) const;

  /// Calls f(first, last) for every maximal run [first, last) of columns
  /// in [begin, end) whose covered(column, stamp) equals `want`.
  template <class F>
  void for_each_run(Size begin, Size end, Stamp stamp, bool want,
                    F&& f) const {
    Size c = begin;
    while (c < end) {
      if (covered(c, stamp) != want) {
        ++c;
        continue;
      }
      const Size first = c;
      while (c < end && covered(c, stamp) == want) ++c;
      f(first, c);
    }
  }

 private:
  /// mark() for the stencil around one point.
  void mark(const Vec3& pos, Stamp stamp);

  Index nx_ = 0, ny_ = 0, block_ = 1;
  Index x_lo_ = 0, x_hi_ = 0, y_lo_ = 0, y_hi_ = 0;
  Index cols_y_ = 0;
  std::vector<Stamp> stamps_;  ///< 0 = never covered
};

// --- footprint passes over a planar grid ------------------------------------
//
// Columns [col_begin, col_end) of a block-1 footprint map to consecutive
// z-rows of `grid`: column c is the nz nodes starting at node
// node_begin + (c - col_begin) * nz. (The planar solvers pass their
// x-slab's rows; a distributed rank passes one local x-row of its tile at
// a time.) Each pass returns the number of nodes it touched.

/// Force reset on the rows the step stamped `stamp` covered.
Size reset_forces_on_footprint(FluidGrid& grid, const IbFootprint& fp,
                               IbFootprint::Stamp stamp, Size col_begin,
                               Size col_end, Size node_begin,
                               const Vec3& force);

/// Kernel 7 (update_velocity_range) on the rows `stamp` covered.
Size update_velocity_on_footprint(FluidGrid& grid, const IbFootprint& fp,
                                  IbFootprint::Stamp stamp, Size col_begin,
                                  Size col_end, Size node_begin);

/// materialize_velocity_range on the rows `stamp` did not cover.
Size materialize_velocity_off_footprint(FluidGrid& grid,
                                        const IbFootprint& fp,
                                        IbFootprint::Stamp stamp,
                                        Size col_begin, Size col_end,
                                        Size node_begin);

}  // namespace lbmib
