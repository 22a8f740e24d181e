#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "core/distributed2d_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"

namespace lbmib {
namespace {

SimulationParams small_params() {
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};
  return p;
}

SimulationParams channel_params() {
  SimulationParams p = small_params();
  p.boundary = BoundaryType::kChannel;
  p.sheet_origin = {6.0, 6.0, 6.0};
  return p;
}

SimulationParams cavity_params() {
  SimulationParams p;
  p.nx = 16;
  p.ny = 16;
  p.nz = 16;
  p.boundary = BoundaryType::kCavity;
  p.lid_velocity = {0.05, 0.0, 0.0};
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  return p;
}

SimulationParams inlet_outlet_params() {
  SimulationParams p;
  p.nx = 24;
  p.ny = 12;
  p.nz = 12;
  p.boundary = BoundaryType::kInletOutlet;
  p.inlet_velocity = {0.03, 0.0, 0.0};
  p.num_fibers = 5;
  p.nodes_per_fiber = 5;
  p.sheet_width = 4.0;
  p.sheet_height = 4.0;
  p.sheet_origin = {10.0, 4.0, 4.0};
  return p;
}

SimulationParams multi_sheet_params() {
  SimulationParams p = small_params();
  SheetSpec second;
  second.num_fibers = 4;
  second.nodes_per_fiber = 5;
  second.width = 2.0;
  second.height = 3.0;
  second.origin = {10.0, 5.0, 5.0};
  second.stretching_coeff = 0.02;
  second.bending_coeff = 0.002;
  p.extra_sheets.push_back(second);
  return p;
}

/// Equivalence against the sequential reference across rank counts: the
/// halo exchange must reproduce shared-memory streaming exactly (only
/// fiber interpolation reassociates floating-point sums). `Kind` picks
/// the mesh shape: kDistributed is always R x 1; kDistributed2D is
/// balanced (4 -> 2x2, 6 -> 3x2, 8 -> 4x2, 9 -> 3x3, R x 1 for prime R).
template <SolverKind Kind>
class MeshEquivalence : public ::testing::TestWithParam<int> {
 protected:
  /// Runs `p` for `steps` steps on the sequential reference and on the
  /// distributed solver with GetParam() ranks; returns their difference.
  StateDiff run_both(SimulationParams p, Index steps) const {
    SequentialSolver seq(p);
    seq.run(steps);
    p.num_threads = GetParam();
    auto dist = make_solver(Kind, p);
    dist->run(steps);
    EXPECT_EQ(dist->name(), solver_kind_name(Kind));
    return compare_solvers(seq, *dist);
  }
};

using DistributedEquivalence = MeshEquivalence<SolverKind::kDistributed>;
using Distributed2DEquivalence = MeshEquivalence<SolverKind::kDistributed2D>;

TEST_P(DistributedEquivalence, MatchesSequential) {
  const StateDiff diff = run_both(small_params(), 8);
  EXPECT_LT(diff.max_any(), 1e-11) << diff.to_string();
}

TEST_P(DistributedEquivalence, ChannelFlowMatchesSequential) {
  EXPECT_LT(run_both(channel_params(), 8).max_any(), 1e-11);
}

TEST_P(DistributedEquivalence, CavityMatchesSequential) {
  EXPECT_LT(run_both(cavity_params(), 10).max_any(), 1e-12);
}

TEST_P(DistributedEquivalence, InletOutletMatchesSequential) {
  EXPECT_LT(run_both(inlet_outlet_params(), 10).max_any(), 1e-11);
}

TEST_P(DistributedEquivalence, MultiSheetMatchesSequential) {
  EXPECT_LT(run_both(multi_sheet_params(), 6).max_any(), 1e-11);
}

TEST_P(Distributed2DEquivalence, PeriodicMatchesSequential) {
  const StateDiff diff = run_both(small_params(), 8);
  EXPECT_LT(diff.max_any(), 1e-11) << diff.to_string();
}

TEST_P(Distributed2DEquivalence, ChannelMatchesSequential) {
  EXPECT_LT(run_both(channel_params(), 8).max_any(), 1e-11);
}

TEST_P(Distributed2DEquivalence, CavityMatchesSequential) {
  EXPECT_LT(run_both(cavity_params(), 10).max_any(), 1e-12);
}

TEST_P(Distributed2DEquivalence, InletOutletMatchesSequential) {
  EXPECT_LT(run_both(inlet_outlet_params(), 10).max_any(), 1e-11);
}

TEST_P(Distributed2DEquivalence, MultiSheetMatchesSequential) {
  EXPECT_LT(run_both(multi_sheet_params(), 6).max_any(), 1e-11);
}

std::string rank_count_name(const ::testing::TestParamInfo<int>& info) {
  return "r" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistributedEquivalence,
                         ::testing::Values(1, 2, 3, 4, 6, 7, 8, 9),
                         rank_count_name);

INSTANTIATE_TEST_SUITE_P(Ranks, Distributed2DEquivalence,
                         ::testing::Values(1, 2, 3, 4, 6, 7, 8, 9),
                         rank_count_name);

TEST(Distributed2DSolver, MeshFactorization) {
  SimulationParams p = small_params();
  p.num_threads = 6;
  Distributed2DSolver dist(p);
  EXPECT_EQ(dist.ranks_x() * dist.ranks_y(), 6);
  EXPECT_GE(dist.ranks_x(), dist.ranks_y());
  EXPECT_EQ(dist.ranks_x(), 3);
  EXPECT_EQ(dist.ranks_y(), 2);
}

TEST(Distributed2DSolver, TilesPartitionTheDomain) {
  SimulationParams p = small_params();
  p.num_threads = 6;
  Distributed2DSolver dist(p);
  Size covered = 0;
  for (int r = 0; r < 6; ++r) {
    const auto t = dist.tile_of(r);
    EXPECT_LT(t.x_lo, t.x_hi);
    EXPECT_LT(t.y_lo, t.y_hi);
    covered += static_cast<Size>((t.x_hi - t.x_lo) * (t.y_hi - t.y_lo));
  }
  EXPECT_EQ(covered, static_cast<Size>(p.nx * p.ny));
}

TEST(Distributed2DSolver, MultiSheetMrtMatchesSequential) {
  SimulationParams p = multi_sheet_params();
  p.collision = CollisionModel::kMRT;
  SequentialSolver seq(p);
  seq.run(6);
  p.num_threads = 4;
  Distributed2DSolver dist(p);
  dist.run(6);
  EXPECT_LT(compare_solvers(seq, dist).max_any(), 1e-11);
}

TEST(Distributed2DSolver, RejectsTooManyRanks) {
  SimulationParams p = small_params();  // 16^3
  p.num_threads = 17;  // prime -> 17 x 1 mesh, nx = 16 < 17
  EXPECT_THROW(Distributed2DSolver{p}, Error);
}

TEST(Distributed2DSolver, SlabRejectsMoreRanksThanColumns) {
  SimulationParams p = small_params();  // nx = 16
  p.num_threads = 17;
  EXPECT_THROW(make_solver(SolverKind::kDistributed, p), Error);
}

TEST(Distributed2DSolver, SlabInletOutletNeedsTwoColumnsPerBoundaryRank) {
  SimulationParams p = small_params();
  p.boundary = BoundaryType::kInletOutlet;
  p.inlet_velocity = {0.02, 0.0, 0.0};
  p.num_threads = 16;  // slab: one column per rank; balanced: 4 x 4
  EXPECT_THROW(make_solver(SolverKind::kDistributed, p), Error);
  EXPECT_NO_THROW(make_solver(SolverKind::kDistributed2D, p));
}

TEST(Distributed2DSolver, SlabTilesSpanFullY) {
  SimulationParams p = small_params();
  p.num_threads = 5;
  const auto solver = make_solver(SolverKind::kDistributed, p);
  const auto& dist = dynamic_cast<const Distributed2DSolver&>(*solver);
  EXPECT_EQ(dist.ranks_x(), 5);
  EXPECT_EQ(dist.ranks_y(), 1);
  for (int r = 0; r < 5; ++r) {
    const auto t = dist.tile_of(r);
    EXPECT_LT(t.x_lo, t.x_hi);
    EXPECT_EQ(t.x_lo, r == 0 ? 0 : dist.tile_of(r - 1).x_hi);
    EXPECT_EQ(t.y_lo, 0);
    EXPECT_EQ(t.y_hi, p.ny);
  }
  EXPECT_EQ(dist.tile_of(4).x_hi, p.nx);
}

TEST(Distributed2DSolver, HaloPacketsPerStepEqualDistinctNeighbours) {
  // One packet per (sender, neighbour rank) pair per step. On a 4 x 1
  // mesh a rank's neighbours are left, right and itself (the y
  // neighbours); on a 2 x 2 mesh they are the three other ranks.
  for (const auto& [kind, rx, ry] :
       {std::tuple{SolverKind::kDistributed, 4, 1},
        std::tuple{SolverKind::kDistributed2D, 2, 2}}) {
    SimulationParams p = small_params();
    p.num_threads = 4;
    const auto solver = make_solver(kind, p);
    const auto& dist = dynamic_cast<const Distributed2DSolver&>(*solver);
    ASSERT_EQ(dist.ranks_x(), rx);
    ASSERT_EQ(dist.ranks_y(), ry);
    solver->run(6);
    const auto traffic = dist.halo_traffic();
    EXPECT_EQ(traffic.packets, 4u * 6u * 3u) << rx << "x" << ry;
    // Reals per rank-step on the 16^3 grid: each x face carries
    // 5 x lny x 16, each y face 5 x lnx x 16, each xy edge 16.
    const Size per_rank_step = rx == 4 ? (2 * 5 * 16 + 2 * 5 * 4 + 4) * 16
                                       : (4 * 5 * 8 + 4) * 16;
    EXPECT_EQ(traffic.bytes, 4u * 6u * per_rank_step * sizeof(Real));
  }
}

TEST(Distributed2DSolver, AvailableThroughFactory) {
  auto solver = make_solver(SolverKind::kDistributed2D, small_params());
  EXPECT_EQ(solver->name(), "distributed2d");
  solver->run(2);
  EXPECT_EQ(solver->steps_completed(), 2);
}

TEST(Distributed2DSolver, SlabAvailableThroughFactory) {
  auto solver = make_solver(SolverKind::kDistributed, small_params());
  EXPECT_EQ(solver->name(), "distributed");
  solver->run(2);
  EXPECT_EQ(solver->steps_completed(), 2);
}

/// Largest sequential-vs-distributed difference an observer sees, called
/// every 3 of 6 steps on 4 ranks.
Real observed_max_diff(SolverKind kind) {
  SimulationParams p = small_params();
  p.num_threads = 4;
  auto dist = make_solver(kind, p);
  SequentialSolver reference(small_params());
  Real max_diff = 0.0;
  dist->run(
      6,
      [&](Solver& s, Index) {
        reference.run(3);
        max_diff = std::max(max_diff, compare_solvers(reference, s).max_any());
      },
      3);
  return max_diff;
}

TEST(Distributed2DSolver, ObserverSeesConsistentState) {
  EXPECT_LT(observed_max_diff(SolverKind::kDistributed2D), 1e-11);
}

TEST(Distributed2DSolver, SlabObserverSeesConsistentState) {
  EXPECT_LT(observed_max_diff(SolverKind::kDistributed), 1e-11);
}

TEST(Distributed2DSolver, StructureReplicasStayInSync) {
  for (const SolverKind kind :
       {SolverKind::kDistributed, SolverKind::kDistributed2D}) {
    SimulationParams p = small_params();
    p.num_threads = 4;
    p.initial_velocity = {0.02, 0.0, 0.0};
    auto dist = make_solver(kind, p);
    dist->run(10);
    // The base structure (rank 0's replica) moved with the flow.
    EXPECT_GT(dist->sheet().centroid().x, p.sheet_origin.x + 0.1)
        << solver_kind_name(kind);
  }
}

TEST(Distributed2DSolver, ZeroFiberSimulation) {
  for (const SolverKind kind :
       {SolverKind::kDistributed, SolverKind::kDistributed2D}) {
    SimulationParams p = small_params();
    p.num_fibers = 0;
    p.nodes_per_fiber = 0;
    p.num_threads = 4;
    auto dist = make_solver(kind, p);
    SequentialSolver seq(p);
    dist->run(5);
    seq.run(5);
    EXPECT_LT(compare_solvers(seq, *dist).max_any(), 1e-12)
        << solver_kind_name(kind);
  }
}

}  // namespace
}  // namespace lbmib
