#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/profiler.hpp"
#include "core/phase.hpp"

namespace lbmib {
namespace {

TEST(KernelProfiler, StartsEmpty) {
  KernelProfiler p;
  EXPECT_EQ(p.total_seconds(), 0.0);
  for (int k = 0; k < kNumKernels; ++k) {
    EXPECT_EQ(p.seconds(static_cast<Kernel>(k)), 0.0);
  }
}

TEST(KernelProfiler, AddAccumulates) {
  KernelProfiler p;
  p.add(Kernel::kCollision, 1.0);
  p.add(Kernel::kCollision, 0.5);
  p.add(Kernel::kStreaming, 0.25);
  EXPECT_DOUBLE_EQ(p.seconds(Kernel::kCollision), 1.5);
  EXPECT_DOUBLE_EQ(p.seconds(Kernel::kStreaming), 0.25);
  EXPECT_DOUBLE_EQ(p.total_seconds(), 1.75);
}

TEST(KernelProfiler, ScopeMeasuresElapsedTime) {
  KernelProfiler p;
  {
    const PhaseScope phase(p, Kernel::kMoveFibers, /*fused=*/true);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(p.seconds(Kernel::kMoveFibers), 0.009);
  EXPECT_LT(p.seconds(Kernel::kMoveFibers), 1.0);
}

TEST(KernelProfiler, MergeAddsPerKernel) {
  KernelProfiler a, b;
  a.add(Kernel::kCollision, 1.0);
  b.add(Kernel::kCollision, 2.0);
  b.add(Kernel::kSpreadForce, 3.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.seconds(Kernel::kCollision), 3.0);
  EXPECT_DOUBLE_EQ(a.seconds(Kernel::kSpreadForce), 3.0);
}

TEST(KernelProfiler, RankedRowsSortedDescending) {
  KernelProfiler p;
  p.add(Kernel::kCollision, 5.0);
  p.add(Kernel::kUpdateVelocity, 3.0);
  p.add(Kernel::kCopyDistribution, 1.0);
  const auto rows = p.ranked_rows();
  ASSERT_EQ(rows.size(), static_cast<Size>(kNumKernels));
  EXPECT_EQ(rows[0].kernel, Kernel::kCollision);
  EXPECT_EQ(rows[1].kernel, Kernel::kUpdateVelocity);
  EXPECT_EQ(rows[2].kernel, Kernel::kCopyDistribution);
  for (Size i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].seconds, rows[i].seconds);
  }
}

TEST(KernelProfiler, PercentagesSumToHundred) {
  KernelProfiler p;
  p.add(Kernel::kCollision, 2.0);
  p.add(Kernel::kStreaming, 1.0);
  p.add(Kernel::kCopyDistribution, 1.0);
  double total = 0.0;
  for (const auto& row : p.ranked_rows()) total += row.percent_of_total;
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(KernelProfiler, PaperIndicesMatchAlgorithmOrder) {
  EXPECT_EQ(kernel_paper_index(Kernel::kBendingForce), 1);
  EXPECT_EQ(kernel_paper_index(Kernel::kSpreadForce), 4);
  EXPECT_EQ(kernel_paper_index(Kernel::kCollision), 5);
  EXPECT_EQ(kernel_paper_index(Kernel::kCopyDistribution), 9);
}

TEST(KernelProfiler, KernelNamesMatchPaper) {
  EXPECT_EQ(kernel_name(Kernel::kCollision), "compute_fluid_collision");
  EXPECT_EQ(kernel_name(Kernel::kStreaming),
            "stream_fluid_velocity_distribution");
  EXPECT_EQ(kernel_name(Kernel::kSpreadForce),
            "spread_force_from_fibers_to_fluid");
}

TEST(KernelProfiler, ReportContainsAllKernels) {
  KernelProfiler p;
  p.add(Kernel::kCollision, 1.0);
  const std::string report = p.report();
  for (int k = 0; k < kNumKernels; ++k) {
    EXPECT_NE(report.find(std::string(kernel_name(static_cast<Kernel>(k)))),
              std::string::npos);
  }
}

TEST(KernelProfiler, ClearResets) {
  KernelProfiler p;
  p.add(Kernel::kCollision, 1.0);
  p.clear();
  EXPECT_EQ(p.total_seconds(), 0.0);
}

TEST(KernelProfiler, EmptyReportHasZeroPercent) {
  KernelProfiler p;
  for (const auto& row : p.ranked_rows()) {
    EXPECT_EQ(row.percent_of_total, 0.0);
  }
}

}  // namespace
}  // namespace lbmib
