#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace lbmib::obs {

namespace {

/// Coverage priority inside a step window; higher wins on overlap.
enum class Bucket : int { kNone = 0, kCompute = 1, kHalo = 2, kWait = 3 };

Bucket bucket_of(SpanCat cat) {
  switch (cat) {
    case SpanCat::kKernel:
      return Bucket::kCompute;
    case SpanCat::kHalo:
    case SpanCat::kCheckpoint:
      return Bucket::kHalo;
    case SpanCat::kBarrier:
      return Bucket::kWait;
    case SpanCat::kStep:
    case SpanCat::kOther:
      return Bucket::kNone;
  }
  return Bucket::kNone;
}

struct Window {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t step_arg;
};

/// Attribute one step window of one thread by a priority sweep over
/// its (clipped) child spans: at every instant the highest-priority
/// covering bucket wins; uncovered time is serial.
void attribute_window(const Window& w,
                      const std::vector<const SpanEvent*>& children,
                      PathBreakdown& out) {
  // Boundary events: +bucket at span start, -bucket at span end.
  struct Edge {
    std::int64_t t;
    int bucket;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(children.size() * 2);
  for (const SpanEvent* s : children) {
    const Bucket b = bucket_of(s->cat);
    if (b == Bucket::kNone) continue;
    const std::int64_t lo = std::max(s->start_ns, w.start_ns);
    const std::int64_t hi = std::min(s->start_ns + s->dur_ns, w.end_ns);
    if (hi <= lo) continue;
    edges.push_back({lo, static_cast<int>(b), +1});
    edges.push_back({hi, static_cast<int>(b), -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });

  int depth[4] = {0, 0, 0, 0};
  std::int64_t cursor = w.start_ns;
  double bucket_ns[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  while (i < edges.size()) {
    const std::int64_t t = edges[i].t;
    if (t > cursor) {
      int active = 0;  // highest active bucket, kNone when uncovered
      for (int b = 3; b >= 1; --b) {
        if (depth[b] > 0) {
          active = b;
          break;
        }
      }
      bucket_ns[active] += static_cast<double>(t - cursor);
      cursor = t;
    }
    while (i < edges.size() && edges[i].t == t) {
      depth[edges[i].bucket] += edges[i].delta;
      ++i;
    }
  }
  if (w.end_ns > cursor) {
    bucket_ns[0] += static_cast<double>(w.end_ns - cursor);
  }

  const double ns = 1e-9;
  out.step_seconds += static_cast<double>(w.end_ns - w.start_ns) * ns;
  out.serial_seconds += bucket_ns[0] * ns;
  out.compute_seconds +=
      bucket_ns[static_cast<int>(Bucket::kCompute)] * ns;
  out.halo_seconds += bucket_ns[static_cast<int>(Bucket::kHalo)] * ns;
  out.barrier_seconds += bucket_ns[static_cast<int>(Bucket::kWait)] * ns;
  out.steps += 1;
}

}  // namespace

CriticalPathReport attribute_spans(const std::vector<SpanEvent>& events) {
  CriticalPathReport report;

  // Split by thread: step windows vs children.
  std::map<std::uint32_t, std::vector<Window>> windows;
  std::map<std::uint32_t, std::vector<const SpanEvent*>> children;
  for (const SpanEvent& e : events) {
    if (e.cat == SpanCat::kStep) {
      windows[e.tid].push_back(
          {e.start_ns, e.start_ns + e.dur_ns, e.arg});
    } else {
      children[e.tid].push_back(&e);
    }
  }

  // Per-thread totals; remember each window's own breakdown for the
  // critical-path assembly below.
  struct StepRecord {
    std::int64_t dur_ns;
    PathBreakdown breakdown;
  };
  // step arg -> longest window across threads
  std::map<std::int64_t, StepRecord> longest_of_step;

  for (auto& [tid, wins] : windows) {
    ThreadPath tp;
    tp.tid = tid;
    const auto& kids = children[tid];
    for (const Window& w : wins) {
      PathBreakdown one;
      attribute_window(w, kids, one);
      // fold into the thread total
      tp.breakdown.step_seconds += one.step_seconds;
      tp.breakdown.compute_seconds += one.compute_seconds;
      tp.breakdown.barrier_seconds += one.barrier_seconds;
      tp.breakdown.halo_seconds += one.halo_seconds;
      tp.breakdown.serial_seconds += one.serial_seconds;
      tp.breakdown.steps += 1;
      const std::int64_t dur = w.end_ns - w.start_ns;
      auto it = longest_of_step.find(w.step_arg);
      if (it == longest_of_step.end() || dur > it->second.dur_ns) {
        longest_of_step[w.step_arg] = {dur, one};
      }
    }
    report.threads.push_back(std::move(tp));
  }

  for (const auto& [arg, rec] : longest_of_step) {
    (void)arg;
    report.critical.step_seconds += rec.breakdown.step_seconds;
    report.critical.compute_seconds += rec.breakdown.compute_seconds;
    report.critical.barrier_seconds += rec.breakdown.barrier_seconds;
    report.critical.halo_seconds += rec.breakdown.halo_seconds;
    report.critical.serial_seconds += rec.breakdown.serial_seconds;
    report.critical.steps += 1;
  }
  report.steps = report.critical.steps;
  return report;
}

CriticalPathReport attribute_current_session() {
  CriticalPathReport report = attribute_spans(Tracer::drain());
  report.dropped_events = Tracer::dropped();
  return report;
}

std::string CriticalPathReport::to_string() const {
  std::ostringstream os;
  os << "=== critical path attribution ===\n";
  if (threads.empty()) {
    os << "(no step spans in trace)\n";
    return os.str();
  }
  char line[192];
  std::snprintf(line, sizeof line, "%-8s %6s %9s %8s %8s %8s %8s",
                "thread", "steps", "step_s", "compute", "barrier", "halo",
                "serial");
  os << line << "\n";
  auto row = [&](const char* name, const PathBreakdown& b) {
    std::snprintf(line, sizeof line,
                  "%-8s %6llu %9.4f %7.1f%% %7.1f%% %7.1f%% %7.1f%%",
                  name, static_cast<unsigned long long>(b.steps),
                  b.step_seconds, b.compute_frac() * 100.0,
                  b.barrier_frac() * 100.0,
                  (b.step_seconds > 0.0
                       ? b.halo_seconds / b.step_seconds * 100.0
                       : 0.0),
                  b.serial_frac() * 100.0);
    os << line << "\n";
  };
  for (const ThreadPath& tp : threads) {
    char name[32];
    std::snprintf(name, sizeof name, "t%u", tp.tid);
    row(name, tp.breakdown);
  }
  row("critical", critical);
  if (dropped_events > 0) {
    os << "partial: " << dropped_events
       << " events lost to trace ring wrap-around; the table covers "
       << steps << " steps\n";
  }
  return os.str();
}

}  // namespace lbmib::obs
