#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "cube/cube_grid.hpp"
#include "cube/cube_kernels.hpp"
#include "ib/fiber_forces.hpp"
#include "ib/fiber_sheet.hpp"
#include "ib/interpolation.hpp"
#include "ib/spreading.hpp"
#include "lbm/fluid_grid.hpp"
#include "parallel/thread_team.hpp"

namespace lbmib {
namespace {

FiberSheet perturbed_sheet(std::uint64_t seed) {
  FiberSheet sheet(6, 6, 5.0, 5.0, {5.0, 5.0, 5.0}, 0.05, 0.01);
  SplitMix64 rng(seed);
  for (Size i = 0; i < sheet.num_nodes(); ++i) {
    sheet.position(i) += Vec3{rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3)};
  }
  compute_all_fiber_forces(sheet);
  return sheet;
}

TEST(CubeSpread, UnlockedMatchesPlanarSpreading) {
  FluidGrid planar(16, 16, 16);
  planar.reset_forces({});
  CubeGrid cubes(16, 16, 16, 4);
  cubes.reset_forces({});
  const FiberSheet sheet = perturbed_sheet(1);

  spread_force(sheet, planar, 0, sheet.num_fibers());
  cube_spread_force_unlocked(sheet, cubes, 0, sheet.num_fibers());

  FluidGrid back(16, 16, 16);
  cubes.to_planar(back);
  for (Size n = 0; n < planar.num_nodes(); ++n) {
    EXPECT_DOUBLE_EQ(back.fx(n), planar.fx(n)) << n;
    EXPECT_DOUBLE_EQ(back.fy(n), planar.fy(n)) << n;
    EXPECT_DOUBLE_EQ(back.fz(n), planar.fz(n)) << n;
  }
}

TEST(CubeSpread, LockedSingleThreadMatchesUnlocked) {
  CubeGrid a(16, 16, 16, 4), b(16, 16, 16, 4);
  a.reset_forces({});
  b.reset_forces({});
  const FiberSheet sheet = perturbed_sheet(2);
  const CubeDistribution dist(4, 4, 4, balanced_mesh(1));
  std::vector<SpinLock> locks(1);
  cube_spread_force(sheet, a, dist, locks, 0, sheet.num_fibers());
  cube_spread_force_unlocked(sheet, b, 0, sheet.num_fibers());
  for (Size cube = 0; cube < a.num_cubes(); ++cube) {
    for (Size local = 0; local < a.nodes_per_cube(); ++local) {
      // Same adds in the same order, each one explicit FMA: same bits.
      EXPECT_EQ(a.force(cube, local), b.force(cube, local));
    }
  }
}

TEST(CubeSpread, ConcurrentSpreadingIsLossFree) {
  // Many threads spreading into overlapping influential domains through
  // owner locks: totals must match the single-threaded result.
  constexpr int kThreads = 4;
  CubeGrid grid(16, 16, 16, 4);
  grid.reset_forces({});
  const FiberSheet sheet = perturbed_sheet(3);
  const CubeDistribution dist(4, 4, 4, balanced_mesh(kThreads));
  std::vector<SpinLock> locks(kThreads);

  ThreadTeam team(kThreads);
  team.run([&](int tid) {
    for (Index f = 0; f < sheet.num_fibers(); ++f) {
      if (fiber2thread(f, sheet.num_fibers(), kThreads) == tid) {
        cube_spread_force(sheet, grid, dist, locks, f, f + 1);
      }
    }
  });

  CubeGrid reference(16, 16, 16, 4);
  reference.reset_forces({});
  cube_spread_force_unlocked(sheet, reference, 0, sheet.num_fibers());
  for (Size cube = 0; cube < grid.num_cubes(); ++cube) {
    for (Size local = 0; local < grid.nodes_per_cube(); ++local) {
      const Vec3 got = grid.force(cube, local);
      const Vec3 want = reference.force(cube, local);
      EXPECT_NEAR(got.x, want.x, 1e-14);
      EXPECT_NEAR(got.y, want.y, 1e-14);
      EXPECT_NEAR(got.z, want.z, 1e-14);
    }
  }
}

TEST(CubeSpread, MoveFibersMatchesPlanar) {
  FluidGrid planar(16, 16, 16);
  SplitMix64 rng(4);
  for (Size n = 0; n < planar.num_nodes(); ++n) {
    planar.set_velocity(n, {rng.next_double(-0.05, 0.05),
                            rng.next_double(-0.05, 0.05),
                            rng.next_double(-0.05, 0.05)});
  }
  CubeGrid cubes(16, 16, 16, 4);
  cubes.from_planar(planar);

  FiberSheet s1 = perturbed_sheet(5);
  FiberSheet s2(6, 6, 5.0, 5.0, {5.0, 5.0, 5.0}, 0.05, 0.01);
  for (Size i = 0; i < s1.num_nodes(); ++i) s2.position(i) = s1.position(i);

  move_fibers(s1, planar, 0, s1.num_fibers());
  cube_move_fibers(s2, cubes, 0, s2.num_fibers());
  for (Size i = 0; i < s1.num_nodes(); ++i) {
    EXPECT_NEAR(s1.position(i).x, s2.position(i).x, 1e-15) << i;
    EXPECT_NEAR(s1.position(i).y, s2.position(i).y, 1e-15) << i;
    EXPECT_NEAR(s1.position(i).z, s2.position(i).z, 1e-15) << i;
  }
}

}  // namespace
}  // namespace lbmib
