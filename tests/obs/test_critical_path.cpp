// Critical-path attribution with hand-built span sets whose answers
// are known exactly: overlap priority (wait > halo > compute), child
// clipping at window edges, uncovered time charged to serial, and the
// per-step longest-window assembly of the critical path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/trace.hpp"

namespace lbmib::obs {
namespace {

SpanEvent make(SpanCat cat, const char* name, std::uint32_t tid,
               std::int64_t start_ns, std::int64_t dur_ns,
               std::int64_t arg = -1) {
  SpanEvent e{};
  e.start_ns = start_ns;
  e.dur_ns = dur_ns;
  e.arg = arg;
  e.name = name;
  e.tid = tid;
  e.cat = cat;
  return e;
}

constexpr double kNs = 1e-9;

TEST(CriticalPath, EmptyTraceYieldsEmptyReport) {
  const CriticalPathReport report = attribute_spans({});
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(report.steps, 0u);
  EXPECT_NE(report.to_string().find("no step spans"), std::string::npos);
}

TEST(CriticalPath, SingleThreadBucketsWithPriorityAndSerial) {
  // Window [0,1000): kernel [0,600) overlapped by barrier [500,700)
  // (wait wins on [500,600)), halo [700,900), nothing on [900,1000).
  std::vector<SpanEvent> events;
  events.push_back(make(SpanCat::kStep, "step", 0, 0, 1000, 0));
  events.push_back(make(SpanCat::kKernel, "collide", 0, 0, 600));
  events.push_back(make(SpanCat::kBarrier, "barrier.wait", 0, 500, 200));
  events.push_back(make(SpanCat::kHalo, "exchange_halos", 0, 700, 200));

  const CriticalPathReport report = attribute_spans(events);
  ASSERT_EQ(report.threads.size(), 1u);
  const PathBreakdown& b = report.threads[0].breakdown;
  EXPECT_EQ(b.steps, 1u);
  EXPECT_NEAR(b.step_seconds, 1000 * kNs, 1e-15);
  EXPECT_NEAR(b.compute_seconds, 500 * kNs, 1e-15);
  EXPECT_NEAR(b.barrier_seconds, 200 * kNs, 1e-15);
  EXPECT_NEAR(b.halo_seconds, 200 * kNs, 1e-15);
  EXPECT_NEAR(b.serial_seconds, 100 * kNs, 1e-15);
  // The buckets partition the window exactly.
  EXPECT_NEAR(b.compute_seconds + b.barrier_seconds + b.halo_seconds +
                  b.serial_seconds,
              b.step_seconds, 1e-15);
}

TEST(CriticalPath, ChildrenClipToWindowAndCheckpointCountsAsHalo) {
  // Kernel starts before and checkpoint ends after the window — both
  // clip; spans outside entirely are dropped.
  std::vector<SpanEvent> events;
  events.push_back(make(SpanCat::kStep, "step", 0, 1000, 1000, 0));
  events.push_back(make(SpanCat::kKernel, "stream", 0, 800, 600));
  events.push_back(make(SpanCat::kCheckpoint, "checkpoint.save", 0,
                        1800, 500));
  events.push_back(make(SpanCat::kKernel, "outside", 0, 3000, 100));

  // By value: a reference into the temporary report would dangle.
  const PathBreakdown b = attribute_spans(events).threads.at(0).breakdown;
  EXPECT_NEAR(b.compute_seconds, 400 * kNs, 1e-15);  // [1000,1400)
  EXPECT_NEAR(b.halo_seconds, 200 * kNs, 1e-15);     // [1800,2000)
  EXPECT_NEAR(b.serial_seconds, 400 * kNs, 1e-15);   // [1400,1800)
}

TEST(CriticalPath, CriticalPathTakesLongestWindowPerStep) {
  std::vector<SpanEvent> events;
  // Step 0 on both threads; t1's window is longer and barrier-heavy,
  // so the critical path must carry t1's breakdown for step 0.
  events.push_back(make(SpanCat::kStep, "step", 0, 0, 1000, 0));
  events.push_back(make(SpanCat::kKernel, "collide", 0, 0, 1000));
  events.push_back(make(SpanCat::kStep, "step", 1, 0, 1200, 0));
  events.push_back(make(SpanCat::kKernel, "collide", 1, 0, 400));
  events.push_back(make(SpanCat::kBarrier, "barrier.wait", 1, 400, 900));
  // Step 1 only on t0, all compute.
  events.push_back(make(SpanCat::kStep, "step", 0, 2000, 400, 1));
  events.push_back(make(SpanCat::kKernel, "collide", 0, 2000, 400));

  const CriticalPathReport report = attribute_spans(events);
  ASSERT_EQ(report.threads.size(), 2u);
  EXPECT_EQ(report.steps, 2u);

  const PathBreakdown& crit = report.critical;
  EXPECT_EQ(crit.steps, 2u);
  // Step 0 from t1 (1200 ns: 400 compute + 800 clipped wait) plus
  // step 1 from t0 (400 ns compute).
  EXPECT_NEAR(crit.step_seconds, 1600 * kNs, 1e-15);
  EXPECT_NEAR(crit.compute_seconds, 800 * kNs, 1e-15);
  EXPECT_NEAR(crit.barrier_seconds, 800 * kNs, 1e-15);
  EXPECT_NEAR(crit.serial_seconds, 0.0, 1e-15);

  // Per-thread totals are still per-thread.
  const PathBreakdown& t0 = report.threads[0].breakdown;
  EXPECT_EQ(t0.steps, 2u);
  EXPECT_NEAR(t0.compute_seconds, 1400 * kNs, 1e-15);
  const PathBreakdown& t1 = report.threads[1].breakdown;
  EXPECT_EQ(t1.steps, 1u);
  EXPECT_NEAR(t1.barrier_seconds, 800 * kNs, 1e-15);

  // Fractions and the rendered table agree with the raw seconds.
  EXPECT_NEAR(crit.compute_frac(), 0.5, 1e-12);
  EXPECT_NEAR(crit.barrier_frac(), 0.5, 1e-12);
  const std::string table = report.to_string();
  EXPECT_NE(table.find("critical"), std::string::npos);
  EXPECT_NE(table.find("t0"), std::string::npos);
  EXPECT_NE(table.find("t1"), std::string::npos);
}

#if LBMIB_TRACE_ENABLED
TEST(CriticalPath, AttributesTheLiveTracerSession) {
  Tracer::start();
  record_span(SpanCat::kStep, "step", 0, 1000, 0);
  record_span(SpanCat::kKernel, "collide", 100, 500);
  const CriticalPathReport report = attribute_current_session();
  Tracer::stop();

  ASSERT_EQ(report.threads.size(), 1u);
  const PathBreakdown& b = report.threads[0].breakdown;
  EXPECT_NEAR(b.compute_seconds, 500 * kNs, 1e-15);
  EXPECT_NEAR(b.serial_seconds, 500 * kNs, 1e-15);
}

TEST(CriticalPath, PartialTableReportsDroppedEventsAndCoveredSteps) {
  // Known answer: an 8-slot ring fed six steps of (kernel, step) spans
  // keeps the newest 8 events, so the 4 oldest (steps 0 and 1) are lost
  // and the table covers steps 2-5 — and must say so.
  Tracer::start(8);
  for (std::int64_t step = 0; step < 6; ++step) {
    const std::int64_t t0 = step * 1000;
    record_span(SpanCat::kKernel, "collide", t0, 800);
    record_span(SpanCat::kStep, "step", t0, 1000, step);
  }
  const CriticalPathReport report = attribute_current_session();
  Tracer::stop();

  EXPECT_EQ(report.dropped_events, 4u);
  EXPECT_EQ(report.steps, 4u);
  EXPECT_NEAR(report.critical.compute_seconds, 4 * 800 * kNs, 1e-15);
  const std::string table = report.to_string();
  EXPECT_NE(table.find("partial: 4 events lost"), std::string::npos)
      << table;
  EXPECT_NE(table.find("covers 4 steps"), std::string::npos) << table;

  // A session that kept every event prints no such line.
  Tracer::start();
  record_span(SpanCat::kStep, "step", 0, 1000, 0);
  const CriticalPathReport whole = attribute_current_session();
  Tracer::stop();
  EXPECT_EQ(whole.dropped_events, 0u);
  EXPECT_EQ(whole.to_string().find("partial"), std::string::npos);
}
#endif

}  // namespace
}  // namespace lbmib::obs
