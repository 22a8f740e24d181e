// Roofline report tests: the analytic traffic table, the
// bound-classification math against synthetic peaks (no probe — the
// peaks are handed in, so the answers are exact), and the JSON shape
// that BENCH_step.json embeds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "perfmodel/roofline.hpp"

namespace lbmib::perfmodel {
namespace {

TEST(Roofline, TrafficTableCoversTheHotKernels) {
  // The four fluid sweepers and the IB kernels must be modeled; the
  // O(1) pointer swap must not be.
  for (const char* name :
       {"collide_stream", "collide", "stream", "copy_df",
        "update_velocity", "spread", "move_fibers", "bending",
        "stretching", "elastic"}) {
    const KernelTraffic* t = kernel_traffic(name);
    ASSERT_NE(t, nullptr) << name;
    EXPECT_GT(t->bytes_per_unit, 0.0) << name;
    EXPECT_STREQ(t->span_name, name);
    const std::string unit = t->unit;
    EXPECT_TRUE(unit == "node" || unit == "point") << name;
  }
  EXPECT_EQ(kernel_traffic("swap_df"), nullptr);
  EXPECT_EQ(kernel_traffic("no_such_kernel"), nullptr);
  EXPECT_FALSE(kernel_traffic_table().empty());

  // D3Q19 fused sweep: 19 df reads + 19 df writes + force reads are
  // the compulsory floor; pure streaming moves bytes but no flops.
  EXPECT_GE(kernel_traffic("collide_stream")->bytes_per_unit,
            38 * 8.0);
  EXPECT_EQ(kernel_traffic("stream")->flops_per_unit, 0.0);
  EXPECT_GT(kernel_traffic("collide_stream")->flops_per_unit, 0.0);
}

TEST(Roofline, ClassifiesBandwidthVsComputeBound) {
  MachinePeaks peaks;
  peaks.gbps = 10.0;
  peaks.gflops = 100.0;  // balance = 10 flop/byte
  EXPECT_DOUBLE_EQ(peaks.balance(), 10.0);

  // collide_stream's AI (260 flops / 328 bytes ~ 0.79) sits far below
  // a 10 flop/byte balance: bandwidth-bound.
  KernelMeasurement m;
  m.name = "collide_stream";
  m.units = 1e6;  // node-steps
  const KernelTraffic* t = kernel_traffic(m.name);
  // Exactly half the bandwidth roof: bytes = 5 GB/s * seconds.
  m.seconds = t->bytes_per_unit * m.units / 5e9;

  const RooflineReport report =
      build_roofline({m}, peaks);
  ASSERT_EQ(report.rows.size(), 1u);
  const RooflineRow& r = report.rows[0];
  EXPECT_TRUE(r.bandwidth_bound);
  EXPECT_NEAR(r.ai, t->flops_per_unit / t->bytes_per_unit, 1e-12);
  EXPECT_NEAR(r.achieved_gbps, 5.0, 1e-9);
  EXPECT_NEAR(r.roof_fraction, 0.5, 1e-9);
  EXPECT_NEAR(r.model_gbytes, t->bytes_per_unit * m.units / 1e9,
              1e-12);

  // Same kernel against a bandwidth-rich machine (balance 0.1
  // flop/byte): now the flops ceiling binds.
  peaks.gbps = 1000.0;
  const RooflineReport rich = build_roofline({m}, peaks);
  EXPECT_FALSE(rich.rows[0].bandwidth_bound);
}

TEST(Roofline, DropsUnmodeledAndEmptyRowsAndSortsBySeconds) {
  MachinePeaks peaks;
  peaks.gbps = 10.0;
  peaks.gflops = 100.0;

  std::vector<KernelMeasurement> ms(4);
  ms[0].name = "spread";
  ms[0].seconds = 0.1;
  ms[0].units = 1e4;
  ms[1].name = "collide_stream";
  ms[1].seconds = 2.0;
  ms[1].units = 1e6;
  ms[2].name = "swap_df";  // no traffic model -> dropped
  ms[2].seconds = 1.0;
  ms[2].units = 1e6;
  ms[3].name = "update_velocity";  // no time measured -> dropped
  ms[3].seconds = 0.0;
  ms[3].units = 1e6;

  const RooflineReport report = build_roofline(ms, peaks);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].kernel, "collide_stream");
  EXPECT_EQ(report.rows[1].kernel, "spread");
}

TEST(Roofline, CounterColumnsFlowThroughToReportAndJson) {
  MachinePeaks peaks;
  peaks.gbps = 10.0;
  peaks.gflops = 100.0;
  peaks.threads = 4;

  KernelMeasurement m;
  m.name = "collide_stream";
  m.seconds = 1.0;
  m.units = 1e6;
  m.spans = 10;
  m.has_counters = true;
  m.has_cycles = m.has_instructions = m.has_llc = m.has_stalled_backend =
      true;
  m.cycles = 4e9;
  m.instructions = 8e9;  // IPC 2
  m.llc_references = 1e8;
  m.llc_misses = 5e7;  // miss rate 0.5
  m.stalled_backend = 1e9;

  const RooflineReport report = build_roofline({m}, peaks);
  ASSERT_EQ(report.rows.size(), 1u);
  const RooflineRow& r = report.rows[0];
  EXPECT_TRUE(r.has_counters);
  EXPECT_NEAR(r.ipc.value(), 2.0, 1e-12);
  EXPECT_NEAR(r.llc_miss_rate.value(), 0.5, 1e-12);
  EXPECT_NEAR(r.llc_miss_per_unit.value(), 5e7 / 1e6, 1e-9);
  // 5e7 line fills x 64 B in 1 s = 3.2 GB/s.
  EXPECT_NEAR(r.measured_gbps.value(), 3.2, 1e-9);
  EXPECT_NEAR(r.stalled_frac.value(), 0.25, 1e-12);
  EXPECT_TRUE(report.counters_available);

  const std::string text = report.to_string();
  EXPECT_NE(text.find("collide_stream"), std::string::npos);
  EXPECT_NE(text.find("bandwidth"), std::string::npos);

  const std::string json = report.json();
  EXPECT_NE(json.find("\"peaks\""), std::string::npos);
  EXPECT_NE(json.find("\"ipc\""), std::string::npos);
  EXPECT_NE(json.find("\"bound\": \"bandwidth\""), std::string::npos);
}

TEST(Roofline, SoftwareOnlyCountersAreNotReportedAsHardwareZeros) {
  // A host that grants only the software task-clock: the row has counter
  // data, but no hardware event was read, so the report must not claim
  // counters and every derived column is unavailable (JSON null), never
  // a measured-looking 0.
  MachinePeaks peaks;
  peaks.gbps = 10.0;
  peaks.gflops = 100.0;
  KernelMeasurement m;
  m.name = "collide_stream";
  m.seconds = 1.0;
  m.units = 1e6;
  m.has_counters = true;

  const RooflineReport report = build_roofline({m}, peaks);
  ASSERT_EQ(report.rows.size(), 1u);
  const RooflineRow& r = report.rows[0];
  EXPECT_FALSE(report.counters_available);
  EXPECT_FALSE(r.ipc.has_value());
  EXPECT_FALSE(r.llc_miss_rate.has_value());
  EXPECT_FALSE(r.measured_gbps.has_value());
  EXPECT_FALSE(r.stalled_frac.has_value());
  const std::string json = report.json();
  EXPECT_NE(json.find("\"counters_available\": false"), std::string::npos);
  EXPECT_NE(json.find("\"ipc\": null"), std::string::npos);
  EXPECT_NE(json.find("\"llc_miss_rate\": null"), std::string::npos);
  EXPECT_NE(json.find("\"measured_gbps\": null"), std::string::npos);
  EXPECT_NE(json.find("\"stalled_backend_frac\": null"), std::string::npos);
  EXPECT_EQ(json.find("0.0000,"), std::string::npos) << json;

  // Cycles alone: IPC still needs instructions, so it stays unavailable,
  // but a hardware event was read.
  m.has_cycles = true;
  m.cycles = 1e9;
  const RooflineReport cycles_only = build_roofline({m}, peaks);
  EXPECT_TRUE(cycles_only.counters_available);
  EXPECT_FALSE(cycles_only.rows[0].ipc.has_value());
}

/// A 16^3 periodic box at rest holding one flat 6 x 6 sheet in the plane
/// x = 6.5, y in [6.5, 10.5]: no force, no flow, so the sheet never moves
/// and every step has the same IB footprint. Its stencils cover x rows
/// 5..8 (4) and y rows 5..12 (8): 32 (x, y) rows of 16 nodes.
SimulationParams resting_sheet(bool fused) {
  SimulationParams p = presets::tiny();
  p.sheet_origin = {6.5, 6.5, 6.0};
  p.body_force = {};
  p.fused_step = fused;
  return p;
}

TEST(Roofline, UpdateVelocityUnitsAreTheNodesKernelSevenComputed) {
  // Known answer: under the fused pipeline kernel 7 computes rho/u on the
  // footprint only, 32 rows x 16 nodes per step; the reference pipeline
  // computes all 16^3. The roofline must use those counts as the units,
  // or it would report the footprint pass moving the whole grid's bytes.
  constexpr Index kSteps = 5;
  for (SolverKind kind : {SolverKind::kSequential, SolverKind::kOpenMP,
                          SolverKind::kDistributed2D}) {
    SCOPED_TRACE(std::string(solver_kind_name(kind)));
    for (bool fused : {true, false}) {
      Simulation sim(kind, resting_sheet(fused));
      sim.run(kSteps);
      const double expected = (fused ? 32.0 * 16.0 : 16.0 * 16.0 * 16.0) *
                              static_cast<double>(kSteps);
      EXPECT_EQ(sim.solver().velocity_update_nodes(), expected);
      const RooflineReport report = sim.roofline_report();
      bool found = false;
      for (const RooflineRow& r : report.rows) {
        if (r.kernel != "update_velocity") continue;
        found = true;
        EXPECT_EQ(r.units, expected) << "fused=" << fused;
        EXPECT_NEAR(r.model_gbytes,
                    kernel_traffic("update_velocity")->bytes_per_unit *
                        expected / 1e9,
                    1e-15);
      }
      EXPECT_TRUE(found) << "fused=" << fused;
    }
  }
}

TEST(Roofline, MaterializeRowCountsTheNodesRecomputedOnDemand) {
  // The on-demand recompute is its own row: a snapshot after a fused run
  // recomputes every node off the footprint (16^3 - 32 x 16), once.
  Simulation sim(SolverKind::kSequential, resting_sheet(true));
  sim.run(3);
  FluidGrid out(16, 16, 16);
  sim.solver().snapshot_fluid(out);
  sim.solver().snapshot_fluid(out);  // nothing stale the second time
  constexpr double kOffFootprint = 16.0 * 16.0 * 16.0 - 32.0 * 16.0;
  EXPECT_EQ(sim.solver().materialized_nodes(), kOffFootprint);
  EXPECT_GT(sim.solver().profiler().seconds(Kernel::kMaterializeMacroscopic),
            0.0);
  bool found = false;
  for (const RooflineRow& r : sim.roofline_report().rows) {
    if (r.kernel != "materialize_macroscopic") continue;
    found = true;
    EXPECT_EQ(r.units, kOffFootprint);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace lbmib::perfmodel
