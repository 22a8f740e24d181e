#include "perfmodel/roofline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/timer.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace lbmib::perfmodel {

namespace {

constexpr double kReal = 8.0;  // sizeof(Real)

// Analytic compulsory traffic per work unit, from the planar SoA layout
// (fluid_grid.hpp) and the 4x4x4 IB stencil (ib/delta.hpp). These are
// *lower bounds*: write-allocate RFO traffic and imperfect reuse only
// add to them, which is the conservative direction for a
// bandwidth-bound verdict (achieved/roof can only be understated).
//
// LBM kernels, per lattice node:
//   collide_stream (fused): read 19 df + 3 force, write 19 df_new
//     -> (19+3+19) * 8 = 328 B; BGK+macroscopic ~= 260 flops.
//   collide: same arrays in-place                 -> 328 B, 260 flops
//   stream:  read 19 df, write 19 df_new          -> 304 B, 0 flops
//   update_velocity: read 19 df + 3 force, write rho+u (4)
//     -> (19+3+4) * 8 = 208 B; ~= 110 flops.
//   copy_df: read 19 + write 19                   -> 304 B, 0 flops
//
// IB kernels, per fiber point (64-node delta support):
//   spread: read point force (3) + RMW 64x3 grid force
//     -> (3 + 64*3*2) * 8 = 3096 B; delta eval + 64*6 FMA ~= 600 flops
//   move_fibers (interpolate): read 64x3 velocity + RMW position
//     -> (64*3 + 3*2) * 8 = 1584 B; ~= 480 flops
//   bending/stretching/elastic: neighbor stencils over the sheet
//     -> ~5 Vec3 reads + 1 RMW = 56 B; 60-130 flops (compute-bound).
const std::vector<KernelTraffic>& traffic_table() {
  static const std::vector<KernelTraffic> table = {
      {"collide_stream", "node", (19 + 3 + 19) * kReal, 260.0},
      {"collide", "node", (19 + 3 + 19) * kReal, 260.0},
      {"stream", "node", (19 + 19) * kReal, 0.0},
      {"update_velocity", "node", (19 + 3 + 4) * kReal, 110.0},
      // Kernel 7's arithmetic over the present df, run on demand for the
      // rho/u the fused pipeline leaves stale.
      {"materialize_macroscopic", "node", (19 + 3 + 4) * kReal, 110.0},
      {"copy_df", "node", (19 + 19) * kReal, 0.0},
      {"spread", "point", (3 + 64 * 3 * 2) * kReal, 600.0},
      {"move_fibers", "point", (64 * 3 + 3 * 2) * kReal, 480.0},
      {"bending", "point", 7 * 3 * kReal, 130.0},
      {"stretching", "point", 5 * 3 * kReal, 90.0},
      {"elastic", "point", 3 * 3 * kReal, 60.0},
  };
  return table;
}

std::string format_g(double v, int prec = 2) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

/// A JSON number, or null for a value the run could not measure.
std::string json_number(const std::optional<double>& v, int prec) {
  return v ? format_g(*v, prec) : "null";
}

}  // namespace

const std::vector<KernelTraffic>& kernel_traffic_table() {
  return traffic_table();
}

const KernelTraffic* kernel_traffic(const std::string& span_name) {
  for (const KernelTraffic& t : traffic_table()) {
    if (span_name == t.span_name) return &t;
  }
  return nullptr;
}

double measure_peak_bandwidth_gbps(int threads) {
  // Triad a[i] = b[i] + s*c[i] over arrays far beyond LLC; traffic
  // counted as the compulsory 3 doubles/element (RFO excluded, matching
  // the kernel traffic convention above).
  const Size n = Size{1} << 22;  // 3 x 32 MiB
  AlignedBuffer<double> a(n), b(n), c(n);
#if defined(_OPENMP)
#pragma omp parallel for num_threads(threads) schedule(static)
#endif
  for (Size i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 2.0;
  }
  const double s = 0.42;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer timer;
#if defined(_OPENMP)
#pragma omp parallel for num_threads(threads) schedule(static)
#endif
    for (Size i = 0; i < n; ++i) {
      a[i] = b[i] + s * c[i];
    }
    const double sec = timer.seconds();
    if (sec > 0.0) {
      best = std::max(
          best, static_cast<double>(n) * 3.0 * kReal / sec / 1e9);
    }
    std::swap(a, b);  // defeat any cross-rep elision
  }
  return best;
}

double measure_peak_gflops(int threads) {
  // Eight independent FMA chains per thread: enough ILP to saturate the
  // FMA ports without modeling the exact ISA (the compiler vectorizes
  // the lanes under -O2/-march flags the build already uses).
  const int iters = 1 << 20;
  constexpr int kLanes = 64;
  double total = 0.0;
  double best_sec = 1e30;
  std::vector<double> sink(static_cast<std::size_t>(std::max(threads, 1)),
                           0.0);
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer timer;
#if defined(_OPENMP)
#pragma omp parallel num_threads(threads)
#endif
    {
#if defined(_OPENMP)
      const int tid = omp_get_thread_num();
#else
      const int tid = 0;
#endif
      double x[kLanes];
      for (int l = 0; l < kLanes; ++l) {
        x[l] = 1.0 + 1e-9 * static_cast<double>(l + tid);
      }
      const double m = 1.0 + 1e-9, add = 1e-9;
      for (int it = 0; it < iters; ++it) {
        for (int l = 0; l < kLanes; ++l) x[l] = x[l] * m + add;
      }
      double acc = 0.0;
      for (int l = 0; l < kLanes; ++l) acc += x[l];
      sink[static_cast<std::size_t>(tid)] = acc;
    }
    best_sec = std::min(best_sec, timer.seconds());
  }
  for (double v : sink) total += v;
  if (best_sec <= 0.0 || total == 0.0) return 0.0;  // total: keep sink live
  const double flops = 2.0 * static_cast<double>(iters) * kLanes *
                       static_cast<double>(std::max(threads, 1));
  return flops / best_sec / 1e9;
}

MachinePeaks measure_machine_peaks(int threads) {
  MachinePeaks p;
  p.threads = std::max(threads, 1);
  p.gbps = measure_peak_bandwidth_gbps(p.threads);
  p.gflops = measure_peak_gflops(p.threads);
  return p;
}

RooflineReport build_roofline(const std::vector<KernelMeasurement>& ms,
                              const MachinePeaks& peaks) {
  RooflineReport report;
  report.peaks = peaks;
  const double balance = peaks.balance();
  for (const KernelMeasurement& m : ms) {
    const KernelTraffic* traffic = kernel_traffic(m.name);
    if (traffic == nullptr || m.seconds <= 0.0 || m.units <= 0.0) {
      continue;
    }
    RooflineRow row;
    row.kernel = m.name;
    row.unit = traffic->unit;
    row.seconds = m.seconds;
    row.units = m.units;
    row.ai = traffic->bytes_per_unit > 0.0
                 ? traffic->flops_per_unit / traffic->bytes_per_unit
                 : 1e9;
    const double bytes = traffic->bytes_per_unit * m.units;
    const double flops = traffic->flops_per_unit * m.units;
    row.model_gbytes = bytes / 1e9;
    row.achieved_gbps = bytes / m.seconds / 1e9;
    row.achieved_gflops = flops / m.seconds / 1e9;
    row.roof_gbps = peaks.gbps;
    row.bandwidth_bound = row.ai < balance;
    if (row.bandwidth_bound) {
      row.roof_fraction =
          peaks.gbps > 0.0 ? row.achieved_gbps / peaks.gbps : 0.0;
    } else {
      row.roof_fraction =
          peaks.gflops > 0.0 ? row.achieved_gflops / peaks.gflops : 0.0;
    }
    row.has_counters = m.has_counters;
    if (m.has_counters) {
      if (m.has_cycles || m.has_instructions || m.has_llc ||
          m.has_stalled_backend) {
        report.counters_available = true;
      }
      if (m.has_cycles && m.has_instructions && m.cycles > 0.0) {
        row.ipc = m.instructions / m.cycles;
      }
      if (m.has_llc) {
        if (m.llc_references > 0.0) {
          row.llc_miss_rate = m.llc_misses / m.llc_references;
        }
        row.llc_miss_per_unit = m.llc_misses / m.units;
        row.measured_gbps = m.llc_misses * 64.0 / m.seconds / 1e9;
      }
      if (m.has_cycles && m.has_stalled_backend && m.cycles > 0.0) {
        row.stalled_frac = m.stalled_backend / m.cycles;
      }
    }
    report.rows.push_back(std::move(row));
  }
  std::stable_sort(report.rows.begin(), report.rows.end(),
                   [](const RooflineRow& a, const RooflineRow& b) {
                     return a.seconds > b.seconds;
                   });
  return report;
}

std::string RooflineReport::to_string() const {
  std::ostringstream os;
  os << "=== roofline report ===\n";
  os << "machine peaks: " << format_g(peaks.gbps, 1) << " GB/s (triad), "
     << format_g(peaks.gflops, 1) << " GFLOP/s (fma), " << peaks.threads
     << " thread(s); balance " << format_g(peaks.balance(), 2)
     << " flop/B\n";
  if (!availability.empty()) os << "counters: " << availability << "\n";
  char line[256];
  std::snprintf(line, sizeof line,
                "%-20s %9s %8s %9s %9s %6s %-9s %5s",
                "kernel", "seconds", "AI(f/B)", "model", "achieved",
                "%roof", "bound", "IPC");
  os << line << "\n";
  std::snprintf(line, sizeof line,
                "%-20s %9s %8s %9s %9s %6s %-9s %5s", "", "", "", "GB",
                "GB/s", "", "", "");
  os << line << "\n";
  for (const RooflineRow& r : rows) {
    std::snprintf(
        line, sizeof line, "%-20s %9.4f %8.3f %9.3f %9.2f %5.0f%% %-9s %5s",
        r.kernel.c_str(), r.seconds, r.ai, r.model_gbytes, r.achieved_gbps,
        r.roof_fraction * 100.0,
        r.bandwidth_bound ? "bandwidth" : "compute",
        r.ipc ? format_g(*r.ipc, 2).c_str() : "-");
    os << line << "\n";
  }
  std::string detail;
  for (const RooflineRow& r : rows) {
    if (!r.has_counters) continue;
    std::string cols;
    if (r.ipc) cols += "ipc=" + format_g(*r.ipc, 2) + " ";
    if (r.llc_miss_rate) {
      cols += "llc-miss-rate=" + format_g(*r.llc_miss_rate * 100.0, 1) +
              "% ";
    }
    if (r.llc_miss_per_unit) {
      cols += "llc-miss/" + std::string(r.unit) + "=" +
              format_g(*r.llc_miss_per_unit, 2) + " ";
    }
    if (r.measured_gbps) {
      cols += "measured=" + format_g(*r.measured_gbps, 2) + " GB/s ";
    }
    if (r.stalled_frac) {
      cols += "backend-stall=" + format_g(*r.stalled_frac * 100.0, 1) + "%";
    }
    if (!cols.empty()) detail += "  " + r.kernel + ": " + cols + "\n";
  }
  if (!detail.empty()) {
    os << "counter detail (per kernel):\n" << detail;
  }
  return os.str();
}

std::string RooflineReport::json() const {
  std::ostringstream os;
  os << "{\n  \"peaks\": {\"gbps\": " << format_g(peaks.gbps, 3)
     << ", \"gflops\": " << format_g(peaks.gflops, 3)
     << ", \"threads\": " << peaks.threads
     << ", \"balance_flop_per_byte\": " << format_g(peaks.balance(), 4)
     << "},\n  \"counters_available\": "
     << (counters_available ? "true" : "false") << ",\n  \"kernels\": [";
  bool first = true;
  for (const RooflineRow& r : rows) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"kernel\": \"" << r.kernel << "\", \"unit\": \"" << r.unit
       << "\", \"seconds\": " << format_g(r.seconds, 6)
       << ", \"ai_flop_per_byte\": " << format_g(r.ai, 4)
       << ", \"model_gbytes\": " << format_g(r.model_gbytes, 4)
       << ", \"achieved_gbps\": " << format_g(r.achieved_gbps, 3)
       << ", \"achieved_gflops\": " << format_g(r.achieved_gflops, 3)
       << ", \"bound\": \""
       << (r.bandwidth_bound ? "bandwidth" : "compute")
       << "\", \"roof_fraction\": " << format_g(r.roof_fraction, 4);
    if (r.has_counters) {
      os << ", \"ipc\": " << json_number(r.ipc, 4)
         << ", \"llc_miss_rate\": " << json_number(r.llc_miss_rate, 6)
         << ", \"llc_miss_per_unit\": "
         << json_number(r.llc_miss_per_unit, 4)
         << ", \"measured_gbps\": " << json_number(r.measured_gbps, 3)
         << ", \"stalled_backend_frac\": "
         << json_number(r.stalled_frac, 4);
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace lbmib::perfmodel
