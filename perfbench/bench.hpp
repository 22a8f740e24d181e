// Shared pieces of the lbmbench binary: workload description, sample
// statistics and the metric report.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/params.hpp"
#include "common/types.hpp"

namespace lbmbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a sample (0 for an empty one).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// One reported figure: its value (the median unless stated), the
/// median, the sample count, and the highest percentile of the ladder
/// p50/p90/p99/p99.9 that has at least ten samples beyond it, taken on the
/// worse side of the median.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  double median = 0.0;
  std::size_t samples = 0;
  std::string tail;       ///< "p90", ... or "-" when too few samples
  double tail_value = 0.0;
};

enum class Better { kHigher, kLower };

/// The quartile of `samples` on the better side: the figure a quarter of
/// the samples beat. On a shared host, bursts of a neighbour's load slow a
/// share of the samples that changes from run to run; that share moves the
/// median much more than the fast quartile.
inline double fast_quartile(const std::vector<double>& samples,
                            Better better) {
  return quantile(samples, better == Better::kHigher ? 0.75 : 0.25);
}

class Report {
 public:
  /// Median of `samples`; the tail percentile is taken on the worse side.
  /// A finite `value` is reported in place of the median (which is still
  /// recorded), for figures such as the fast quartile.
  void add_samples(const std::string& name, const std::string& unit,
                   const std::vector<double>& samples, Better better,
                   double value = std::nan("")) {
    const double med = median(samples);
    Metric m{name, unit, std::isfinite(value) ? value : med, med,
             samples.size(), "-", 0.0};
    static const double kLadder[] = {99.9, 99.0, 90.0, 50.0};
    const double n = static_cast<double>(samples.size());
    for (double p : kLadder) {
      if (n * (1.0 - p / 100.0) >= 10.0) {
        const double q = better == Better::kLower ? p / 100.0 : 1.0 - p / 100.0;
        m.tail_value = quantile(samples, q);
        char buf[16];
        std::snprintf(buf, sizeof buf, "p%g", p);
        m.tail = buf;
        break;
      }
    }
    metrics_.push_back(m);
  }

  /// A derived figure (ratio of medians, a single reading, ...).
  void add_value(const std::string& name, const std::string& unit,
                 double value, std::size_t samples) {
    metrics_.push_back(Metric{name, unit, value, value, samples, "-", 0.0});
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// A workload: the fluid block one thread owns (blocks are stacked along
/// x as the thread count grows) and the fiber sheets.
struct Workload {
  std::string name;
  lbmib::Index block[3];  ///< per-thread fluid block (x, y, z)
  bool sheet_per_block;   ///< one sheet per block (else one sheet in all)
  lbmib::Index sheet_points[2];  ///< fibers x nodes per fiber
  double sheet_extent;           ///< sheet width = height (lattice units)
  double sheet_offset[3];        ///< sheet origin inside its block
  lbmib::Index timed_steps;      ///< steps timed one by one per visit

  /// Parameters of the problem sized for `threads` blocks; `seed` moves
  /// every sheet origin by a sub-lattice offset.
  lbmib::SimulationParams params(int threads, std::uint64_t seed) const;
};

/// The named workload at full size, or at tiny sizes for the smoke test.
Workload make_workload(const std::string& name, bool smoke);

/// Per-layer probes of the traced run (layers.cpp). Adds every per-layer
/// metric except the core.* ones to `report`; returns false if the
/// traced replica is not bit-identical to SequentialSolver.
struct LayerOptions {
  double seconds = 1.0;     ///< time budget of the replica trace
  std::size_t llc_bytes = 0;
  bool smoke = false;
};
bool run_layer_probes(const lbmib::SimulationParams& params,
                      const LayerOptions& opts, Report& report);

}  // namespace lbmbench
