// Per-kernel wall-time profiler.
//
// Substitutes for gprof in the paper's Table I: the sequential solver wraps
// each of the nine LBM-IB kernels in a profiler scope, and report() prints
// the kernels ranked by share of total time, like the paper's table.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace lbmib {

/// Identifiers for the nine LBM-IB kernels of Algorithm 1, in paper order,
/// plus one bucket outside the paper's step: the on-demand recompute of
/// the rho/u the fused pipeline leaves stale (DESIGN.md §11), so a
/// snapshot, health scan or checkpoint is neither charged to kernel 7
/// nor left unattributed.
enum class Kernel : int {
  kBendingForce = 0,       // 1) compute_bending_force_in_fibers
  kStretchingForce = 1,    // 2) compute_stretching_force_in_fibers
  kElasticForce = 2,       // 3) compute_elastic_force_in_fibers
  kSpreadForce = 3,        // 4) spread_force_from_fibers_to_fluid
  kCollision = 4,          // 5) compute_fluid_collision
  kStreaming = 5,          // 6) stream_fluid_velocity_distribution
  kUpdateVelocity = 6,     // 7) update_fluid_velocity
  kMoveFibers = 7,         // 8) move_fibers
  kCopyDistribution = 8,   // 9) copy_fluid_velocity_distribution
  kMaterializeMacroscopic = 9,  // -) materialize_macroscopic (not in a step)
};

inline constexpr int kNumKernels = 10;

/// Human-readable kernel name (matches the paper's naming).
std::string_view kernel_name(Kernel k);

/// Short kernel tag used as metric labels ("collide", "spread", ...).
/// Static storage, null-terminated.
const char* kernel_short_name(Kernel k);

/// The one trace span name of a kernel phase, in every solver, and the
/// name roofline rows and counter sums join on (DESIGN.md §13). It is
/// kernel_short_name except where the fused pipeline changes the work:
/// kernels 5+6 run as one "collide_stream" sweep billed to kCollision,
/// and kernel 9 is the O(1) "swap_df" instead of "copy_df".
const char* kernel_span_name(Kernel k, bool fused);

/// Paper index of the kernel (1-based, as used in Algorithm 1 and Table I);
/// 0 for kMaterializeMacroscopic, which is not one of the paper's nine.
int kernel_paper_index(Kernel k);

/// Accumulates wall time per kernel. Not thread-safe by itself: every
/// solver thread charges its own KernelProfiler (through PhaseScope,
/// core/phase.hpp), and Solver folds them.
class KernelProfiler {
 public:
  void add(Kernel k, double seconds) {
    seconds_[static_cast<int>(k)] += seconds;
  }

  double seconds(Kernel k) const { return seconds_[static_cast<int>(k)]; }

  /// Total time across all kernels.
  double total_seconds() const;

  /// Merge another profiler's accumulated time into this one.
  KernelProfiler& operator+=(const KernelProfiler& other);

  void clear() { seconds_.fill(0.0); }

  /// One row of the Table-I style report.
  struct Row {
    Kernel kernel;
    int paper_index;          // 1..9 as in Algorithm 1, 0 = not a paper kernel
    std::string name;
    double seconds;
    double percent_of_total;  // 0..100
  };

  /// Rows sorted by descending time share, like the paper's Table I.
  std::vector<Row> ranked_rows() const;

  /// Render the ranked rows as a fixed-width text table.
  std::string report() const;

 private:
  std::array<double, kNumKernels> seconds_{};
};

/// Table-I style report extended with per-thread spread columns: per
/// kernel the min/max per-thread seconds and the imbalance factor
/// (max over mean across threads — the paper's Table II diagnostic).
/// `aggregate` supplies the Seconds/% columns exactly like
/// KernelProfiler::report(); `per_thread` is what the solver's
/// per_thread_profiles() returns (a single entry collapses the spread
/// columns to min == max, imbalance 1).
std::string kernel_report(const KernelProfiler& aggregate,
                          const std::vector<KernelProfiler>& per_thread);

}  // namespace lbmib
