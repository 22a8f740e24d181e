#include "core/simulation.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"
#include "lbm/fused.hpp"
#include "lbm/simd.hpp"
#include "obs/critical_path.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"

namespace lbmib {

namespace {

/// Fold a finished run into the metrics registry: throughput plus the
/// per-kernel across-thread spread (the registry mirror of
/// kernel_report()'s new columns).
void update_run_metrics(const Solver& solver, Index steps, double seconds) {
  if (steps <= 0 || seconds <= 0.0) return;
  const SimulationParams& p = solver.params();
  obs::metric_steps_total().inc(static_cast<double>(steps));
  const double steps_per_sec = static_cast<double>(steps) / seconds;
  obs::metric_steps_per_sec().set(steps_per_sec);
  const double nodes = static_cast<double>(p.nx) *
                       static_cast<double>(p.ny) *
                       static_cast<double>(p.nz);
  obs::metric_mlups().set(steps_per_sec * nodes / 1e6);
  obs::metric_vector_width().set(
      p.simd_step ? static_cast<double>(simd::vector_width_doubles())
                  : 1.0);
  obs::metric_tile_y().set(static_cast<double>(
      p.tile_y > 0 ? std::min(p.tile_y, p.ny)
                   : fused_auto_tile_y(p.ny, p.nz)));
  obs::metric_first_touch().set(
      p.first_touch && p.num_threads > 1 ? 1.0 : 0.0);

  const std::vector<KernelProfiler> per_thread =
      solver.per_thread_profiles();
  if (per_thread.empty()) return;
  auto& registry = obs::MetricsRegistry::global();
  for (int k = 0; k < kNumKernels; ++k) {
    const Kernel kernel = static_cast<Kernel>(k);
    double min_s = per_thread.front().seconds(kernel);
    double max_s = min_s;
    double sum_s = 0.0;
    for (const KernelProfiler& prof : per_thread) {
      const double s = prof.seconds(kernel);
      min_s = std::min(min_s, s);
      max_s = std::max(max_s, s);
      sum_s += s;
    }
    const double mean_s = sum_s / static_cast<double>(per_thread.size());
    const std::string label =
        std::string("{kernel=\"") + kernel_short_name(kernel) + "\",stat=";
    auto gauge = [&](const char* stat, double value) {
      registry
          .gauge("lbmib_kernel_seconds" + label + "\"" + stat + "\"}",
                 "Per-kernel wall seconds across threads (min/mean/max) "
                 "and max-over-mean imbalance")
          .set(value);
    };
    gauge("min", min_s);
    gauge("mean", mean_s);
    gauge("max", max_s);
    gauge("imbalance", mean_s > 0.0 ? max_s / mean_s : 1.0);
  }
}

}  // namespace

Simulation::Simulation(SolverKind kind, const SimulationParams& params)
    : solver_(make_solver(kind, params)) {}

void Simulation::on_step(Index interval, Solver::StepObserver observer) {
  require(interval >= 1, "observer interval must be >= 1");
  observer_interval_ = interval;
  observer_ = std::move(observer);
}

void Simulation::enable_health_checks(Index interval, HealthConfig config) {
  require(interval >= 0, "health interval must be >= 0");
  health_interval_ = interval;
  monitor_ = HealthMonitor(config);
}

HealthReport Simulation::check_health() { return monitor_.scan(*solver_); }

void Simulation::enable_watchdog(std::int64_t deadline_ms,
                                 const std::string& report_path) {
  require(deadline_ms >= 0, "watchdog deadline must be >= 0");
  watchdog_.reset();  // stop + join any previous monitor first
  if (deadline_ms == 0) return;
  WatchdogConfig config;
  config.deadline_ms = deadline_ms;
  config.report_path = report_path;
  watchdog_ = std::make_unique<Watchdog>(token_, config);
  watchdog_->start();
}

void Simulation::run(Index num_steps) {
  WallTimer timer;
  CancelScope cancel_scope(&token_);
  const bool live = telemetry_ != nullptr && telemetry_->running();
  if (health_interval_ <= 0 && !live) {
    solver_->run(num_steps, observer_, observer_interval_);
    update_run_metrics(*solver_, num_steps, timer.seconds());
    return;
  }
  // Compose the user observer with the periodic health scan and — when
  // the telemetry server is live — per-step progress gauges so mid-run
  // scrapes see movement. The scan must not throw: parallel solvers
  // invoke observers from a worker thread while the rest of the team
  // waits at a barrier, so divergence is recorded and logged, and
  // callers inspect last_health() (the ResilientRunner does exactly
  // that between bounded run chunks). The gauge updates are relaxed
  // stores — the only state the server thread reads.
  const Index user_interval = observer_interval_;
  const double nodes = static_cast<double>(
      solver_->params().nx * solver_->params().ny * solver_->params().nz);
  auto combined = [this, user_interval, live, nodes, &timer](
                      Solver& s, Index step) {
    if (observer_ && (step + 1) % user_interval == 0) observer_(s, step);
    if (live) {
      obs::metric_current_step().set(static_cast<double>(step + 1));
      const double elapsed = timer.seconds();
      if (elapsed > 0.0) {
        const double sps = static_cast<double>(step + 1) / elapsed;
        obs::metric_steps_per_sec().set(sps);
        obs::metric_mlups().set(sps * nodes / 1e6);
      }
    }
    if (health_interval_ > 0 && (step + 1) % health_interval_ == 0) {
      const HealthReport report = monitor_.scan(s);
      obs::metric_health_status().set(
          static_cast<double>(static_cast<int>(report.status)));
      if (report.diverged()) {
        obs::metric_health_guard_trips().inc();
        log_warn("health: ", report.to_string());
      }
    }
  };
  solver_->run(num_steps, combined, 1);
  update_run_metrics(*solver_, num_steps, timer.seconds());
}

void Simulation::enable_tracing(Size events_per_thread) {
  obs::Tracer::start(events_per_thread);
  // The calling thread doubles as worker 0 in every ThreadTeam run.
  obs::Tracer::set_thread_name("main");
}

void Simulation::write_trace(const std::string& path) const {
  obs::write_chrome_trace(path);
}

void Simulation::write_metrics_prometheus(const std::string& path) const {
  obs::write_metrics_prometheus(path);
}

void Simulation::write_metrics_csv(const std::string& path) const {
  obs::write_metrics_csv(path);
}

bool Simulation::enable_perf_counters() {
  // Counter-enabled runs export self-describing metrics (availability
  // gauges from start(), build info here) even without the HTTP server.
  obs::ensure_process_metrics();
  return obs::PerfCounters::start();
}

namespace {

/// Whether a kernel sweeps lattice nodes (else fiber points).
bool is_node_kernel(Kernel k) {
  switch (k) {
    case Kernel::kCollision:
    case Kernel::kStreaming:
    case Kernel::kUpdateVelocity:
    case Kernel::kCopyDistribution:
      return true;
    default:
      return false;
  }
}

}  // namespace

perfmodel::RooflineReport Simulation::roofline_report() const {
  const SimulationParams& p = solver_->params();
  const double steps = static_cast<double>(solver_->steps_completed());
  const double nodes = static_cast<double>(p.nx) *
                       static_cast<double>(p.ny) *
                       static_cast<double>(p.nz);
  double points = 0.0;
  for (const FiberSheet& sheet : solver_->structure()) {
    points += static_cast<double>(sheet.num_nodes());
  }

  // Work units per kernel. Kernel 7 is charged the nodes it computed
  // rho/u for (the IB footprint under the fused pipeline, where a
  // nodes-times-steps count would inflate its GB/s past the roof), the
  // on-demand recompute the nodes it recomputed; every other kernel
  // sweeps the whole grid or structure once per step.
  auto units_of = [&](Kernel k) {
    switch (k) {
      case Kernel::kUpdateVelocity:
        return solver_->velocity_update_nodes();
      case Kernel::kMaterializeMacroscopic:
        return solver_->materialized_nodes();
      default:
        return (is_node_kernel(k) ? nodes : points) * steps;
    }
  };

  // Seconds of the critical (slowest) thread per kernel: roofline
  // achieved-GB/s is per-socket traffic over the wall time the kernel
  // actually gated, and the per-thread max is that wall time under the
  // barrier-synchronized pipelines. Every solver records each kernel
  // under kernel_span_name, so rows and counter sums join by name.
  const KernelProfiler& critical = solver_->profiler();
  std::vector<perfmodel::KernelMeasurement> ms;
  for (int k = 0; k < kNumKernels; ++k) {
    const Kernel kernel = static_cast<Kernel>(k);
    perfmodel::KernelMeasurement m;
    m.name = kernel_span_name(kernel, p.fused_step);
    m.seconds = critical.seconds(kernel);
    m.units = units_of(kernel);
    ms.push_back(std::move(m));
  }

  for (const obs::KernelCounters& kc : obs::PerfCounters::snapshot()) {
    const auto row = std::find_if(
        ms.begin(), ms.end(),
        [&](const perfmodel::KernelMeasurement& m) { return m.name == kc.name; });
    if (row == ms.end()) continue;
    const obs::PerfAvailability& granted = obs::PerfCounters::availability();
    auto granted_event = [&](obs::PerfEvent e) {
      return granted.event[static_cast<Size>(e)];
    };
    row->spans = kc.spans;
    row->has_counters = true;
    row->has_cycles = granted_event(obs::PerfEvent::kCycles);
    row->has_instructions = granted_event(obs::PerfEvent::kInstructions);
    row->has_llc = granted_event(obs::PerfEvent::kLlcReferences) &&
                   granted_event(obs::PerfEvent::kLlcMisses);
    row->has_stalled_backend =
        granted_event(obs::PerfEvent::kStalledBackend);
    row->cycles = kc.cycles();
    row->instructions = kc.instructions();
    row->llc_references =
        kc.value[static_cast<int>(obs::PerfEvent::kLlcReferences)];
    row->llc_misses =
        kc.value[static_cast<int>(obs::PerfEvent::kLlcMisses)];
    row->stalled_backend =
        kc.value[static_cast<int>(obs::PerfEvent::kStalledBackend)];
    row->dtlb_misses =
        kc.value[static_cast<int>(obs::PerfEvent::kDtlbMisses)];
  }

  static const perfmodel::MachinePeaks peaks = [&] {
    return perfmodel::measure_machine_peaks(p.num_threads);
  }();
  perfmodel::RooflineReport report = perfmodel::build_roofline(ms, peaks);
  report.availability = obs::PerfCounters::availability().to_string();
  return report;
}

bool Simulation::start_telemetry(int port) {
  if (telemetry_ == nullptr) {
    telemetry_ = std::make_unique<obs::TelemetryServer>();
  }
  if (telemetry_->running()) return true;
  obs::ensure_process_metrics();
  obs::register_default_endpoints(*telemetry_);
  // The /status and /healthz builders run on the server thread mid-run;
  // status_json()/healthz_json() read only atomics, as required by the
  // TelemetryServer handler contract.
  telemetry_->handle("/status", [this] {
    return obs::HttpResponse{200, "application/json", status_json()};
  });
  telemetry_->handle("/healthz", [this] {
    return obs::HttpResponse{200, "application/json", healthz_json()};
  });
  return telemetry_->start(port);
}

void Simulation::stop_telemetry() {
  if (telemetry_ != nullptr) telemetry_->stop();
}

std::string Simulation::status_json() const {
  auto& registry = obs::MetricsRegistry::global();
  std::ostringstream os;
  os << "{\n  \"solver\": " << obs::json_escaped(solver_->name())
     << ",\n  \"step\": "
     << static_cast<std::int64_t>(obs::metric_current_step().value())
     << ",\n  \"steps_total\": "
     << static_cast<std::int64_t>(obs::metric_steps_total().value())
     << ",\n  \"steps_per_sec\": " << obs::metric_steps_per_sec().value()
     << ",\n  \"mlups\": " << obs::metric_mlups().value()
     << ",\n  \"kernel_imbalance\": {";
  bool first = true;
  for (int k = 0; k < kNumKernels; ++k) {
    const char* name = kernel_short_name(static_cast<Kernel>(k));
    // Registered by update_run_metrics at the end of each run(); zero
    // mid-first-run. find-or-create keeps this allocation-stable.
    const double imbalance =
        registry
            .gauge(std::string("lbmib_kernel_seconds{kernel=\"") + name +
                   "\",stat=\"imbalance\"}")
            .value();
    os << (first ? "" : ", ") << "\"" << name << "\": " << imbalance;
    first = false;
  }
  os << "}\n}\n";
  return os.str();
}

std::string Simulation::healthz_json() const {
  const std::int64_t now = ProgressBoard::now_ns();
  std::ostringstream os;
  const int health =
      static_cast<int>(obs::metric_health_status().value());
  const int watchdog_trips =
      watchdog_ != nullptr ? watchdog_->trips() : 0;
  os << "{\n  \"status\": "
     << (watchdog_trips > 0 ? "\"hung\""
         : health >= 2      ? "\"diverged\""
         : health == 1      ? "\"warning\""
                            : "\"ok\"")
     << ",\n  \"health_code\": " << health
     << ",\n  \"watchdog_armed\": "
     << (watchdog_ != nullptr ? "true" : "false")
     << ",\n  \"watchdog_trips\": " << watchdog_trips
     << ",\n  \"cancelled\": " << (token_.cancelled() ? "true" : "false")
     << ",\n  \"threads\": [";
  bool first = true;
  for (const auto& t : ProgressBoard::global().snapshot()) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"slot\": " << t.slot << ", \"live\": "
       << (t.live ? "true" : "false") << ", \"beats\": " << t.beats
       << ", \"age_ms\": " << (now - t.last_beat_ns) / 1'000'000
       << ", \"at\": " << obs::json_escaped(std::string(t.what)) << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string Simulation::profile_report() const {
  std::string report = kernel_report(solver_->profiler(),
                                     solver_->per_thread_profiles());
  if (obs::Tracer::active()) {
    // drain() wants quiescence; between run() calls (the documented
    // call site) the worker teams have joined.
    const obs::CriticalPathReport path = obs::attribute_current_session();
    if (!path.empty()) {
      report += "\n";
      report += path.to_string();
    }
  }
  return report;
}

}  // namespace lbmib
