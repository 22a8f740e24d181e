#include "common/profiler.hpp"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <sstream>

namespace lbmib {

std::string_view kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kBendingForce:
      return "compute_bending_force_in_fibers";
    case Kernel::kStretchingForce:
      return "compute_stretching_force_in_fibers";
    case Kernel::kElasticForce:
      return "compute_elastic_force_in_fibers";
    case Kernel::kSpreadForce:
      return "spread_force_from_fibers_to_fluid";
    case Kernel::kCollision:
      return "compute_fluid_collision";
    case Kernel::kStreaming:
      return "stream_fluid_velocity_distribution";
    case Kernel::kUpdateVelocity:
      return "update_fluid_velocity";
    case Kernel::kMoveFibers:
      return "move_fibers";
    case Kernel::kCopyDistribution:
      return "copy_fluid_velocity_distribution";
    case Kernel::kMaterializeMacroscopic:
      return "materialize_macroscopic";
  }
  return "unknown_kernel";
}

const char* kernel_short_name(Kernel k) {
  switch (k) {
    case Kernel::kBendingForce:
      return "bending";
    case Kernel::kStretchingForce:
      return "stretching";
    case Kernel::kElasticForce:
      return "elastic";
    case Kernel::kSpreadForce:
      return "spread";
    case Kernel::kCollision:
      return "collide";
    case Kernel::kStreaming:
      return "stream";
    case Kernel::kUpdateVelocity:
      return "update_velocity";
    case Kernel::kMoveFibers:
      return "move_fibers";
    case Kernel::kCopyDistribution:
      return "copy_df";
    case Kernel::kMaterializeMacroscopic:
      return "materialize_macroscopic";
  }
  return "unknown";
}

const char* kernel_span_name(Kernel k, bool fused) {
  switch (k) {
    case Kernel::kCollision:
      return fused ? "collide_stream" : "collide";
    case Kernel::kCopyDistribution:
      return fused ? "swap_df" : "copy_df";
    default:
      return kernel_short_name(k);
  }
}

int kernel_paper_index(Kernel k) {
  return k == Kernel::kMaterializeMacroscopic ? 0 : static_cast<int>(k) + 1;
}

namespace {

/// "5)" for a paper kernel, "-" for the on-demand bucket.
std::string index_label(int paper_index) {
  return paper_index > 0 ? std::to_string(paper_index) + ")" : "-";
}

}  // namespace

double KernelProfiler::total_seconds() const {
  return std::accumulate(seconds_.begin(), seconds_.end(), 0.0);
}

KernelProfiler& KernelProfiler::operator+=(const KernelProfiler& other) {
  for (int i = 0; i < kNumKernels; ++i) seconds_[i] += other.seconds_[i];
  return *this;
}

std::vector<KernelProfiler::Row> KernelProfiler::ranked_rows() const {
  const double total = total_seconds();
  std::vector<Row> rows;
  rows.reserve(kNumKernels);
  for (int i = 0; i < kNumKernels; ++i) {
    const auto k = static_cast<Kernel>(i);
    rows.push_back(Row{k, kernel_paper_index(k), std::string(kernel_name(k)),
                       seconds_[i],
                       total > 0.0 ? 100.0 * seconds_[i] / total : 0.0});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) {
                     return a.seconds > b.seconds;
                   });
  return rows;
}

std::string KernelProfiler::report() const {
  std::ostringstream os;
  os << std::left << std::setw(8) << "Kernel" << std::setw(38) << "Name"
     << std::right << std::setw(12) << "Seconds" << std::setw(10) << "% Time"
     << '\n';
  os << std::string(68, '-') << '\n';
  for (const Row& r : ranked_rows()) {
    os << std::left << std::setw(8) << index_label(r.paper_index)
       << std::setw(38) << r.name << std::right << std::setw(12)
       << std::fixed << std::setprecision(3) << r.seconds << std::setw(9)
       << std::setprecision(2) << r.percent_of_total << "%\n";
  }
  os << std::string(68, '-') << '\n';
  os << "Total: " << std::fixed << std::setprecision(3) << total_seconds()
     << " s\n";
  return os.str();
}

std::string kernel_report(const KernelProfiler& aggregate,
                          const std::vector<KernelProfiler>& per_thread) {
  if (per_thread.empty()) return aggregate.report();
  const double nthreads = static_cast<double>(per_thread.size());

  std::ostringstream os;
  os << std::left << std::setw(8) << "Kernel" << std::setw(38) << "Name"
     << std::right << std::setw(11) << "Seconds" << std::setw(9) << "% Time"
     << std::setw(10) << "t-min" << std::setw(10) << "t-max"
     << std::setw(8) << "imbal" << '\n';
  os << std::string(94, '-') << '\n';
  for (const KernelProfiler::Row& r : aggregate.ranked_rows()) {
    double min_s = per_thread.front().seconds(r.kernel);
    double max_s = min_s;
    double sum_s = 0.0;
    for (const KernelProfiler& p : per_thread) {
      const double s = p.seconds(r.kernel);
      min_s = std::min(min_s, s);
      max_s = std::max(max_s, s);
      sum_s += s;
    }
    const double mean_s = sum_s / nthreads;
    os << std::left << std::setw(8) << index_label(r.paper_index)
       << std::setw(38) << r.name << std::right << std::setw(11)
       << std::fixed << std::setprecision(3) << r.seconds << std::setw(8)
       << std::setprecision(2) << r.percent_of_total << "%" << std::setw(10)
       << std::setprecision(3) << min_s << std::setw(10) << max_s
       << std::setw(8) << std::setprecision(2)
       << (mean_s > 0.0 ? max_s / mean_s : 1.0) << '\n';
  }
  os << std::string(94, '-') << '\n';
  os << "Total: " << std::fixed << std::setprecision(3)
     << aggregate.total_seconds() << " s across "
     << per_thread.size() << " thread profile"
     << (per_thread.size() == 1 ? "" : "s")
     << " (imbal = max/mean per-thread seconds)\n";
  return os.str();
}

}  // namespace lbmib
