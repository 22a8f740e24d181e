// One phase vocabulary for all six solvers (DESIGN.md §13): every kernel
// phase is timed and traced by PhaseScope under kernel_span_name, every
// sync point goes through sync_point, so per-kernel times, trace spans
// and roofline rows mean the same thing in every solver and each step's
// wall time is charged to a kernel, a barrier or a halo exchange.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"

namespace lbmib {
namespace {

constexpr SolverKind kParallelKinds[] = {
    SolverKind::kOpenMP,      SolverKind::kCube,
    SolverKind::kDataflow,    SolverKind::kDistributed,
    SolverKind::kDistributed2D,
};

/// A 32^3 channel with a 10x10 sheet on 4 threads: every kernel has work
/// on every thread, and each step is long next to the sync overhead.
SimulationParams sheet_params(bool fused) {
  SimulationParams p = presets::tiny();
  p.nx = p.ny = p.nz = 32;
  p.num_fibers = 10;
  p.nodes_per_fiber = 10;
  p.sheet_width = 8.0;
  p.sheet_height = 8.0;
  p.sheet_origin = {12.0, 12.0, 16.0};
  p.body_force = {1e-5, 0.0, 0.0};
  p.cube_size = 8;
  p.num_threads = 4;
  p.fused_step = fused;
  return p;
}

TEST(PhaseVocabulary, FusedPipelineRenamesOnlyKernelsFiveSixAndNine) {
  for (int k = 0; k < kNumKernels; ++k) {
    const auto kernel = static_cast<Kernel>(k);
    EXPECT_STREQ(kernel_span_name(kernel, false), kernel_short_name(kernel));
  }
  EXPECT_STREQ(kernel_span_name(Kernel::kCollision, true), "collide_stream");
  EXPECT_STREQ(kernel_span_name(Kernel::kCopyDistribution, true),
               "swap_df");
  EXPECT_STREQ(kernel_span_name(Kernel::kSpreadForce, true), "spread");
}

#if LBMIB_TRACE_ENABLED
std::set<std::string> fixed_span_names(bool fused) {
  std::set<std::string> names;
  for (int k = 0; k < kNumKernels; ++k) {
    names.insert(kernel_span_name(static_cast<Kernel>(k), fused));
  }
  return names;
}

TEST(PhaseVocabulary, EveryKernelSpanNameComesFromTheFixedTable) {
  for (bool fused : {true, false}) {
    const std::set<std::string> allowed = fixed_span_names(fused);
    for (SolverKind kind :
         {SolverKind::kSequential, SolverKind::kOpenMP, SolverKind::kCube,
          SolverKind::kDataflow, SolverKind::kDistributed,
          SolverKind::kDistributed2D}) {
      SCOPED_TRACE(std::string(solver_kind_name(kind)) +
                   (fused ? " fused" : " reference"));
      SimulationParams p = sheet_params(fused);
      p.nx = p.ny = p.nz = 16;
      p.sheet_origin = {4.0, 4.0, 8.0};
      p.num_threads = kind == SolverKind::kSequential ? 1 : 2;
      Simulation sim(kind, p);
      sim.enable_tracing();
      sim.run(2);
      obs::Tracer::stop();
      std::set<std::string> seen;
      for (const obs::SpanEvent& e : obs::Tracer::drain()) {
        if (e.cat != obs::SpanCat::kKernel) continue;
        seen.insert(e.name);
        EXPECT_EQ(allowed.count(e.name), 1u) << e.name;
      }
      for (Kernel k : {Kernel::kBendingForce, Kernel::kStretchingForce,
                       Kernel::kElasticForce, Kernel::kSpreadForce,
                       Kernel::kCollision, Kernel::kUpdateVelocity,
                       Kernel::kMoveFibers, Kernel::kCopyDistribution}) {
        EXPECT_EQ(seen.count(kernel_span_name(k, fused)), 1u)
            << kernel_span_name(k, fused);
      }
      if (!fused) {
        EXPECT_EQ(seen.count("stream"), 1u);
      }
    }
  }
}

TEST(PhaseVocabulary, CriticalPathChargesAtMostFivePercentToSerial) {
  for (SolverKind kind : kParallelKinds) {
    SCOPED_TRACE(std::string(solver_kind_name(kind)));
    Simulation sim(kind, sheet_params(true));
    sim.enable_tracing();
    sim.run(10);
    const obs::CriticalPathReport report = obs::attribute_current_session();
    obs::Tracer::stop();
    ASSERT_EQ(report.steps, 10u);
    EXPECT_EQ(report.dropped_events, 0u);
    EXPECT_LE(report.critical.serial_frac(), 0.05) << report.to_string();
    EXPECT_GT(report.critical.compute_frac(), 0.0) << report.to_string();
    if (kind == SolverKind::kOpenMP) {
      // `#pragma omp barrier` waits are traced like the library's own.
      EXPECT_GT(report.critical.barrier_seconds, 0.0) << report.to_string();
    }
  }
}

TEST(PhaseVocabulary, StepSpansCarryTheSolversStepAcrossRuns) {
  // Two runs in one session: the critical path must see four distinct
  // steps, not the same two step numbers twice.
  SimulationParams p = presets::tiny();
  p.num_threads = 2;
  for (SolverKind kind : kParallelKinds) {
    SCOPED_TRACE(std::string(solver_kind_name(kind)));
    Simulation sim(kind, p);
    sim.enable_tracing();
    sim.run(2);
    sim.run(2);
    const obs::CriticalPathReport report = obs::attribute_current_session();
    obs::Tracer::stop();
    EXPECT_EQ(report.steps, 4u);
  }
}
#endif

TEST(PhaseVocabulary, RooflineRowNamesMatchAcrossParallelSolvers) {
  for (bool fused : {true, false}) {
    SCOPED_TRACE(fused ? "fused" : "reference");
    std::set<std::string> first;
    for (SolverKind kind : kParallelKinds) {
      SCOPED_TRACE(std::string(solver_kind_name(kind)));
      Simulation sim(kind, sheet_params(fused));
      sim.run(2);
      std::set<std::string> names;
      for (const perfmodel::RooflineRow& row : sim.roofline_report().rows) {
        names.insert(row.kernel);
      }
      EXPECT_EQ(names.count(kernel_span_name(Kernel::kCollision, fused)),
                1u);
      EXPECT_EQ(names.count("update_velocity"), 1u);
      if (kind == kParallelKinds[0]) {
        first = names;
      } else {
        EXPECT_EQ(names, first);
      }
    }
  }
}

TEST(PhaseVocabulary, DataflowBillsEveryKernelWithASheet) {
  Simulation sim(SolverKind::kDataflow, sheet_params(true));
  sim.run(3);
  const KernelProfiler& prof = sim.solver().profiler();
  for (Kernel k : {Kernel::kBendingForce, Kernel::kStretchingForce,
                   Kernel::kElasticForce, Kernel::kSpreadForce,
                   Kernel::kCollision, Kernel::kUpdateVelocity,
                   Kernel::kMoveFibers, Kernel::kCopyDistribution}) {
    EXPECT_GT(prof.seconds(k), 0.0) << kernel_name(k);
  }
}

TEST(PhaseVocabulary, ProfilerIsTheSlowestThreadPerKernel) {
  for (SolverKind kind : kParallelKinds) {
    SCOPED_TRACE(std::string(solver_kind_name(kind)));
    Simulation sim(kind, sheet_params(true));
    sim.run(2);
    const std::vector<KernelProfiler> threads =
        sim.solver().per_thread_profiles();
    ASSERT_EQ(threads.size(), 4u);
    const KernelProfiler& prof = sim.solver().profiler();
    for (int k = 0; k < kNumKernels; ++k) {
      const auto kernel = static_cast<Kernel>(k);
      double slowest = 0.0;
      for (const KernelProfiler& t : threads) {
        slowest = std::max(slowest, t.seconds(kernel));
      }
      EXPECT_EQ(prof.seconds(kernel), slowest) << kernel_name(kernel);
    }
  }
}

}  // namespace
}  // namespace lbmib
