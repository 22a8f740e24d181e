// lbmbench — the repository benchmark binary (driven by perfbench/run.py).
//
//   lbmbench --workload <bulk-160|fiber-dense-64> --seed <n>
//            --seconds <s> --trace <0|1> [--smoke] [--oracle-tau <tau>]
//            [--revision <id>]
//
// One process runs three epochs. Each builds every solver configuration
// the workload compares afresh (the set-up time; the first epoch then
// warms up for a fixed time) and runs them round-robin until its share of
// the time budget is spent: per round, each configuration runs one
// untimed step and then k steps timed one by one. A slow phase of the host
// therefore hits every configuration alike, and fresh set-ups sample
// several allocations and thread placements. The MLUPS and weak-scaling
// figures are the fast quartile of the per-step samples.
// Every configuration of a grid size is checked against a SequentialSolver
// of the same input that has run the same number of steps. The last line
// of standard output is one JSON object with all measured figures; the
// human-readable tables go to standard error.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "core/health.hpp"
#include "core/solver.hpp"
#include "core/verification.hpp"
#include "lbm/fluid_grid.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace lbmbench {
namespace {

using lbmib::FluidGrid;
using lbmib::Index;
using lbmib::SimulationParams;
using lbmib::Solver;
using lbmib::SolverKind;

constexpr double kOracleTolerance = 1e-11;  // tests/core/test_cube_solver.cpp
constexpr int kEpochs = 3;
// A fixed count, so every run's set-up median is taken over the same mix
// of first (cold-process) and repeated set-ups.
constexpr int kSetupsPerEpoch = 2;

const SolverKind kAllKinds[] = {
    SolverKind::kSequential, SolverKind::kOpenMP,
    SolverKind::kCube,       SolverKind::kDataflow,
    SolverKind::kDistributed, SolverKind::kDistributed2D};

const SolverKind kWeakKinds[] = {SolverKind::kOpenMP, SolverKind::kCube,
                                 SolverKind::kDistributed2D};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  double oracle_tau = 0.0;  // > 0: build the oracles with this tau
  std::string revision = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lbmbench: " << why << "\n"
            << "usage: lbmbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--oracle-tau <tau>] "
               "[--revision <id>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--oracle-tau") {
      o.oracle_tau = std::stod(value());
    } else if (a == "--revision") {
      o.revision = value();
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  return o;
}

// ---------------------------------------------------------------- host --

std::size_t read_cache_bytes(int index) {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                  std::to_string(index) + "/size");
  std::string s;
  if (!(f >> s) || s.empty()) return 0;
  std::size_t v = std::strtoull(s.c_str(), nullptr, 10);
  const char suffix = s.back();
  if (suffix == 'K') v <<= 10;
  if (suffix == 'M') v <<= 20;
  return v;
}

std::size_t llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::size_t>(v);
  for (int idx = 3; idx >= 2; --idx) {
    if (std::size_t b = read_cache_bytes(idx)) return b;
  }
  return std::size_t{32} << 20;
}

double status_mib(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Affinity of the initial thread. OpenMP binds its workers to
/// OMP_PLACES and the initial thread to the first place. The std::thread
/// solvers spawn their teams from the initial thread and would inherit
/// that one-core mask, so the initial thread holds the union of the
/// team's places except while it runs an OpenMP solver's chunk: OpenMP
/// teams stay pinned, std::thread teams stay unpinned.
struct MainAffinity {
  cpu_set_t openmp_place;  ///< the initial thread's OpenMP binding
  cpu_set_t all;           ///< union of every OpenMP place

  void init() {
    CPU_ZERO(&all);
#if defined(_OPENMP)
#pragma omp parallel num_threads(std::max(1, omp_get_num_procs()))
    {
      cpu_set_t mine;
      CPU_ZERO(&mine);
      if (sched_getaffinity(0, sizeof mine, &mine) == 0) {
#pragma omp critical
        CPU_OR(&all, &all, &mine);
      }
    }
#endif
    CPU_ZERO(&openmp_place);
    sched_getaffinity(0, sizeof openmp_place, &openmp_place);
    CPU_OR(&all, &all, &openmp_place);
    unpin();
  }
  void pin() {
    pthread_setaffinity_np(pthread_self(), sizeof openmp_place,
                           &openmp_place);
  }
  void unpin() { pthread_setaffinity_np(pthread_self(), sizeof all, &all); }
};

MainAffinity g_affinity;

int allowed_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&mask);
}

/// Steal and total jiffies of all CPUs (/proc/stat): the share of time
/// the hypervisor ran someone else while this guest wanted the CPU.
std::pair<double, double> steal_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  f >> cpu;
  double total = 0.0;
  for (double& x : v) {
    f >> x;
    total += x;
  }
  return {v[7], total};
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

/// Bytes one planar solver state occupies: both distribution buffers,
/// rho, u, F (8-byte reals) and the solid mask.
double state_bytes(const SimulationParams& p) {
  return static_cast<double>(p.fluid_nodes()) * ((19 * 2 + 7) * 8.0 + 1.0);
}

std::string cache_level(double bytes, std::size_t llc) {
  const std::size_t l2 = read_cache_bytes(2);
  if (l2 > 0 && bytes <= static_cast<double>(l2)) return "L2";
  if (bytes <= static_cast<double>(llc)) return "LLC";
  return "DRAM";
}

// -------------------------------------------------------- configurations --

/// One solver configuration of the round-robin.
struct Config {
  std::string label;  ///< "openmp", "weak1.cube", "oracle1", ...
  SolverKind kind;
  int size_threads;  ///< the weak-scaling size it runs (1 or 4 blocks)
  SimulationParams params;
  std::unique_ptr<Solver> solver;
  std::vector<double> setup_s;
  std::vector<double> step_s;  ///< timed single steps
  double run_wall_s = 0.0;     ///< every run() call, warm-up included
  std::size_t steps_since_check = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  lbmib::StateDiff last_diff;
};

std::vector<Config> plan_configs(const Workload& w, std::uint64_t seed) {
  std::vector<Config> out;
  auto add = [&](const std::string& label, SolverKind kind, int threads,
                 int size_threads) {
    Config c;
    c.label = label;
    c.kind = kind;
    c.size_threads = size_threads;
    c.params = w.params(size_threads, seed);
    c.params.num_threads = threads;
    out.push_back(std::move(c));
  };
  // Each 1-thread weak-scaling point runs right after its full-size
  // configuration, so the two see the same host phase. The sequential
  // runs are the oracles of their sizes.
  for (SolverKind k : kAllKinds) {
    const std::string name(lbmib::solver_kind_name(k));
    const bool seq = k == SolverKind::kSequential;
    add(name, k, seq ? 1 : 4, 4);
    if (seq) {
      add("oracle1", k, 1, 1);
    } else if (std::find(std::begin(kWeakKinds), std::end(kWeakKinds), k) !=
               std::end(kWeakKinds)) {
      add("weak1." + name, k, 1, 1);
    }
  }
  return out;
}

bool is_oracle(const Config& c) {
  return c.kind == SolverKind::kSequential;
}

/// Build every configuration afresh (destroying the previous build
/// first); returns the total set-up time.
double set_up(std::vector<Config>& configs, double oracle_tau) {
  for (Config& c : configs) c.solver.reset();
  double total = 0.0;
  for (Config& c : configs) {
    SimulationParams p = c.params;
    if (is_oracle(c) && oracle_tau > 0.0) p.tau = oracle_tau;
    const auto t0 = Clock::now();
    c.solver = lbmib::make_solver(c.kind, p);
    const double s = seconds_since(t0);
    c.setup_s.push_back(s);
    total += s;
  }
  return total;
}

/// Compare `c` against the sequential oracle of its size; both have run
/// the same number of steps. Planar states are compared in place, other
/// layouts through a scratch grid of their size that is kept across
/// checks (compare_solvers would allocate two snapshots per call).
bool check_against_oracle(Config& c, const Config& oracle,
                          std::unique_ptr<FluidGrid>& scratch) {
  const Solver& s = *c.solver;
  const Solver& o = *oracle.solver;
  if (s.steps_completed() != o.steps_completed()) {
    throw std::logic_error("oracle out of step with " + c.label);
  }
  const FluidGrid* mine = s.planar_fluid();
  if (mine == nullptr) {
    const SimulationParams& p = s.params();
    if (!scratch) scratch = std::make_unique<FluidGrid>(p.nx, p.ny, p.nz);
    s.snapshot_fluid(*scratch);
    mine = scratch.get();
  }
  const lbmib::HealthMonitor health;
  const lbmib::HealthReport h =
      health.scan(*mine, s.structure(), s.steps_completed());
  bool ok = !h.diverged();
  if (&c != &oracle) {
    lbmib::StateDiff d = lbmib::compare_fluid(*mine, *o.planar_fluid());
    const lbmib::StateDiff ds =
        lbmib::compare_structures(s.structure(), o.structure());
    d.max_position = ds.max_position;
    d.max_force = ds.max_force;
    c.last_diff = d;
    ok = ok && d.within(kOracleTolerance);
  }
  if (!ok) {
    std::cerr << "CHECK FAILED " << c.label << " @step "
              << s.steps_completed() << ": " << h.to_string() << "; "
              << c.last_diff.to_string() << "\n";
  }
  return ok;
}

class RoundRobin {
 public:
  RoundRobin(std::vector<Config>& configs, Index timed_steps)
      : configs_(configs), k_(timed_steps) {
    for (Config& c : configs_) {
      if (!is_oracle(c)) continue;
      for (Config& o : configs_) {
        if (o.size_threads == c.size_threads) oracle_of_[&o] = &c;
      }
    }
  }

  /// One visit to every configuration: one untimed step, then `k` steps
  /// timed one by one (recorded in `timed` rounds). The untimed step
  /// matters: the live configurations together exceed the LLC, so
  /// without it every visit would start from a grid the previous
  /// configuration evicted.
  double round(bool timed) {
    const auto r0 = Clock::now();
    for (Config& c : configs_) {
      const bool openmp = c.kind == SolverKind::kOpenMP;
      if (openmp) g_affinity.pin();
      const auto p0 = Clock::now();
      c.solver->run(1);
      c.run_wall_s += seconds_since(p0);
      for (Index i = 0; i < k_; ++i) {
        const auto t0 = Clock::now();
        c.solver->run(1);
        const double s = seconds_since(t0);
        c.run_wall_s += s;
        if (timed) c.step_s.push_back(s);
      }
      if (openmp) g_affinity.unpin();
      if (timed) c.steps_since_check += static_cast<std::size_t>(k_);
    }
    return seconds_since(r0);
  }

  /// Check every configuration against its oracle; the timed steps since
  /// the previous check count as attempted, and as failed if it fails.
  double check_all() {
    const auto t0 = Clock::now();
    for (Config& c : configs_) {
      const bool ok = check_against_oracle(c, *oracle_of_.at(&c),
                                           scratch_[c.size_threads]);
      c.attempted += c.steps_since_check;
      if (!ok) c.failed += std::max<std::size_t>(c.steps_since_check, 1);
      c.steps_since_check = 0;
    }
    return seconds_since(t0);
  }

 private:
  std::vector<Config>& configs_;
  Index k_;
  std::map<const Config*, Config*> oracle_of_;
  std::map<int, std::unique_ptr<FluidGrid>> scratch_;  ///< one per size
};

/// Per-round t(1 thread) / t(n threads): the steps of a round ran close
/// together, so they share a host phase.
std::vector<double> paired_ratios(const std::vector<double>& one,
                                  const std::vector<double>& many) {
  std::vector<double> r;
  for (std::size_t i = 0; i < std::min(one.size(), many.size()); ++i) {
    r.push_back(one[i] / many[i]);
  }
  return r;
}

/// Weak-scaling efficiency: fast-quartile step time at one thread over
/// that at n threads.
double weak_efficiency(const std::vector<double>& one,
                       const std::vector<double>& many) {
  return fast_quartile(one, Better::kLower) /
         fast_quartile(many, Better::kLower);
}

const Config& find(const std::vector<Config>& cs, const std::string& label) {
  for (const Config& c : cs) {
    if (c.label == label) return c;
  }
  throw std::logic_error("no configuration " + label);
}

/// core.<solver>.* from the solver's own per-thread kernel profiles:
/// critical-thread kernel seconds against the wall time of its run()
/// calls, and the max/mean thread imbalance.
void add_core_metrics(const Config& c, Report& r) {
  const std::vector<lbmib::KernelProfiler> prof =
      c.solver->per_thread_profiles();
  double max_t = 0.0, sum_t = 0.0;
  for (const auto& p : prof) {
    max_t = std::max(max_t, p.total_seconds());
    sum_t += p.total_seconds();
  }
  const double mean_t = prof.empty() ? 0.0 : sum_t / prof.size();
  const std::string base = "core." + c.label;
  r.add_value(base + ".unattributed_frac", "ratio",
              c.run_wall_s > 0.0 ? 1.0 - max_t / c.run_wall_s : 0.0,
              c.step_s.size());
  r.add_value(base + ".imbalance", "ratio",
              mean_t > 0.0 ? max_t / mean_t : 0.0, prof.size());
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Options& opt) {
  const Workload w = make_workload(opt.workload, opt.smoke);
  const std::size_t llc = llc_bytes();
  const auto start = Clock::now();

  std::vector<Config> configs = plan_configs(w, opt.seed);
  double live_bytes = 0.0;
  for (const Config& c : configs) live_bytes += state_bytes(c.params);
  const SimulationParams full = configs.front().params;

  std::cerr << "== lbmbench " << w.name << " seed " << opt.seed
            << (opt.smoke ? " (smoke sizes)" : "") << "\n"
            << "build: type=" << LBMBENCH_BUILD_TYPE
            << " vector_flags='" << LBMBENCH_VECTOR_FLAGS << "' flags='"
            << LBMBENCH_CXX_FLAGS << "' revision=" << opt.revision << "\n"
            << "host: nproc=" << allowed_cpus() << " llc_bytes=" << llc
            << " l2_bytes=" << read_cache_bytes(2)
            << " OMP_PROC_BIND=" << env_or("OMP_PROC_BIND", "(unset)")
            << " OMP_PLACES=" << env_or("OMP_PLACES", "(unset)")
            << " (std::thread solver teams unpinned)\n"
            << "problem: " << full.summary() << "\n"
            << "working set: " << state_bytes(full)
            << " B per full-size solver ("
            << cache_level(state_bytes(full), llc) << "), " << live_bytes
            << " B live over " << configs.size() << " configurations\n";

  // ---- epochs: set-up, warm-up, timed round-robin, check -------------
  // Every epoch builds all configurations afresh, so one process samples
  // several allocations and thread placements rather than one. The first
  // epoch warms up by time (thread pools, lazy set-up); later ones rely on
  // the untimed step that opens every visit.
  RoundRobin rr(configs, w.timed_steps);
  const int epochs = opt.smoke ? 1 : kEpochs;
  const double measure_s = opt.trace ? 0.5 * opt.seconds : opt.seconds;
  const double epoch_budget_s = measure_s / epochs;
  const double warm_s = opt.smoke ? 0.05 : std::max(0.05 * measure_s, 1.0);
  std::vector<double> setup_totals;
  std::size_t warm_rounds = 0, rounds = 0;
  double spent = 0.0, checking = 0.0;
  const auto steal0 = steal_jiffies();
  for (int e = 0; e < epochs; ++e) {
    for (int r = 0; r < kSetupsPerEpoch; ++r) {
      setup_totals.push_back(set_up(configs, opt.oracle_tau));
    }
    if (e == 0) {
      for (const auto w0 = Clock::now(); seconds_since(w0) < warm_s;) {
        rr.round(false);
        ++warm_rounds;
      }
    }
    // Rounds stop when the next one would end nearer past the epoch's
    // budget than the last one ended short of it.
    double epoch_s = 0.0, last = 0.0;
    for (std::size_t r = 0; epoch_s + 0.5 * last < epoch_budget_s || r < 3;
         ++r) {
      last = rr.round(true);
      epoch_s += last;
      ++rounds;
    }
    spent += epoch_s;
    // Every configuration and its oracle ran the same steps since set-up,
    // so one check at the end of the epoch covers all of them.
    checking += rr.check_all();
  }
  const auto steal1 = steal_jiffies();
  const double steal_frac = (steal1.first - steal0.first) /
                            std::max(1.0, steal1.second - steal0.second);

  // ---- end-to-end figures ---------------------------------------------
  Report report;
  for (SolverKind k : kAllKinds) {
    const Config& c = find(configs, std::string(lbmib::solver_kind_name(k)));
    std::vector<double> mlups;
    for (double s : c.step_s) {
      mlups.push_back(static_cast<double>(c.params.fluid_nodes()) / s / 1e6);
    }
    report.add_samples("mlups." + c.label, "MLUPS", mlups, Better::kHigher,
                       fast_quartile(mlups, Better::kHigher));
  }
  for (SolverKind k : kWeakKinds) {
    const std::string name(lbmib::solver_kind_name(k));
    const Config& one = find(configs, "weak1." + name);
    const Config& four = find(configs, name);
    report.add_samples("weak_eff." + name, "ratio",
                       paired_ratios(one.step_s, four.step_s),
                       Better::kHigher,
                       weak_efficiency(one.step_s, four.step_s));
  }
  report.add_samples("setup_s", "s", setup_totals, Better::kLower);

  std::size_t attempted = 0, failed = 0;
  for (const Config& c : configs) {
    attempted += c.attempted;
    failed += c.failed;
  }

  // Informational: per-configuration table.
  std::cerr << "\n" << epochs << " epochs, " << rounds
            << " timed rounds of 1 untimed + " << w.timed_steps
            << " timed step(s) after " << warm_rounds << " warm-up rounds; "
            << spent << " s timed, " << checking
            << " s checking; hypervisor steal " << 100.0 * steal_frac
            << " % of CPU time\n";
  std::fprintf(stderr, "%-22s %8s %10s %9s %12s %12s %10s\n", "config",
               "threads", "nodes", "steps", "median_ms", "setup_ms",
               "max_diff");
  for (const Config& c : configs) {
    std::fprintf(stderr, "%-22s %8d %10zu %9zu %12.4f %12.3f %10.3g\n",
                 c.label.c_str(), c.params.num_threads, c.params.fluid_nodes(),
                 c.step_s.size(), 1e3 * median(c.step_s),
                 1e3 * median(c.setup_s), c.last_diff.max_any());
  }

  bool correct = failed == 0;
  if (opt.trace) {
    for (SolverKind k : kAllKinds) {
      add_core_metrics(find(configs, std::string(lbmib::solver_kind_name(k))),
                       report);
    }
    configs.clear();  // free the solvers before the layer probes
    LayerOptions lo;
    lo.seconds = std::max(0.25 * opt.seconds, opt.smoke ? 0.1 : 1.0);
    lo.llc_bytes = llc;
    lo.smoke = opt.smoke;
    SimulationParams p = full;
    p.num_threads = 4;
    correct = run_layer_probes(p, lo, report) && correct;
  } else {
    report.add_value("peak_rss_mib", "MiB", status_mib("VmHWM:"), 1);
  }

  // ---- report ---------------------------------------------------------
  std::fprintf(stderr, "\n%-40s %8s %14s %14s %7s %6s %14s\n", "metric",
               "unit", "value", "median", "n", "tail", "tail_value");
  for (const Metric& m : report.metrics()) {
    std::fprintf(stderr, "%-40s %8s %14.6g %14.6g %7zu %6s %14.6g\n",
                 m.name.c_str(), m.unit.c_str(), m.value, m.median, m.samples,
                 m.tail.c_str(), m.tail_value);
  }
  std::fprintf(stderr, "attempted %zu failed %zu; total %.1f s\n", attempted,
               failed, seconds_since(start));

  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"workload\": \"" << json_escape(w.name) << "\", \"build\": "
     << "{\"type\": \"" << json_escape(LBMBENCH_BUILD_TYPE)
     << "\", \"vector_flags\": \"" << json_escape(LBMBENCH_VECTOR_FLAGS)
     << "\", \"revision\": \"" << json_escape(opt.revision) << "\"}"
     << ", \"host\": {\"nproc\": " << allowed_cpus()
     << ", \"llc_bytes\": " << llc << ", \"working_set_bytes\": "
     << num(state_bytes(full)) << ", \"cache_level\": \""
     << cache_level(state_bytes(full), llc) << "\", \"steal_frac\": "
     << num(steal_frac) << "}, \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    js << (first ? "" : ", ") << "\"" << json_escape(m.name)
       << "\": {\"value\": " << num(m.value) << ", \"median\": "
       << num(m.median) << ", \"unit\": \""
       << json_escape(m.unit) << "\", \"samples\": " << m.samples
       << ", \"tail\": \"" << m.tail << "\", \"tail_value\": "
       << num(m.tail_value) << "}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace lbmbench

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::cerr << "lbmbench: refusing to measure an unoptimised build\n";
  return 3;
#else
  const std::string type = LBMBENCH_BUILD_TYPE;
  if (type != "Release") {
    std::cerr << "lbmbench: refusing to measure build type '" << type
              << "' (Release required)\n";
    return 3;
  }
  const lbmbench::Options opt = lbmbench::parse(argc, argv);
  lbmbench::g_affinity.init();
  try {
    return lbmbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "lbmbench: " << e.what() << "\n";
    return 1;
  }
#endif
}
