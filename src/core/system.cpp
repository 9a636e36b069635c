#include "core/system.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "ckpt/container.h"
#include "common/binio.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/trace_span.h"
#include "obs/event_log.h"
#include "obs/sla_watchdog.h"

namespace edgeslice::core {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Flight-recorder entry for one fault applied to the substrate.
void log_fault_event(obs::EventKind kind, std::size_t period, std::size_t ra,
                     double value = 0.0) {
  obs::Event event;
  event.kind = kind;
  event.period = period;
  event.ra = ra;
  event.value = value;
  obs::global_event_log().record(event);
}

}  // namespace

EdgeSliceSystem::EdgeSliceSystem(std::vector<env::RaEnvironment*> environments,
                                 std::vector<RaPolicy*> policies,
                                 const CoordinatorConfig& coordinator_config,
                                 SystemConfig config)
    : environments_(std::move(environments)),
      policies_(std::move(policies)),
      coordinator_(coordinator_config),
      config_(config),
      bus_(config.faults) {
  if (environments_.empty() || environments_.size() != policies_.size())
    throw std::invalid_argument("EdgeSliceSystem: environments/policies mismatch");
  if (environments_.size() != coordinator_config.ras)
    throw std::invalid_argument("EdgeSliceSystem: RA count mismatch with coordinator");
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    if (environments_[j] == nullptr || policies_[j] == nullptr)
      throw std::invalid_argument("EdgeSliceSystem: null environment or policy");
    if (environments_[j]->slice_count() != coordinator_config.slices)
      throw std::invalid_argument("EdgeSliceSystem: slice count mismatch");
  }
  if (config_.transport != nullptr &&
      config_.transport->ra_count() != environments_.size())
    throw std::invalid_argument("EdgeSliceSystem: transport RA count mismatch");
  bus_.set_transport(config_.transport);
  monitor_ = std::make_unique<SystemMonitor>(coordinator_config.slices,
                                             environments_.size());
  last_report_.assign(environments_.size(),
                      std::vector<double>(coordinator_config.slices, 0.0));
  last_report_period_.assign(environments_.size(), 0);
  has_report_.assign(environments_.size(), false);
}

PeriodResult EdgeSliceSystem::run_period() {
  PeriodResult result;
  run_period_into(result);
  return result;
}

void EdgeSliceSystem::run_period_into(PeriodResult& result) {
  const std::size_t slices = coordinator_.config().slices;
  const std::size_t ras = environments_.size();
  const std::size_t intervals = environments_.front()->config().intervals_per_period;
  const FaultInjector* faults = config_.faults;

  global_tracer().set_period(period_);
  obs::global_event_log().set_period(period_);
  const auto period_span = global_tracer().span("system.period");
  period_arena_.reset();

  if (result.performance_sums.rows() != slices ||
      result.performance_sums.cols() != ras) {
    result.performance_sums = nn::Matrix(slices, ras);
  } else {
    auto& cells = result.performance_sums.data();
    std::fill(cells.begin(), cells.end(), 0.0);
  }
  result.system_performance = 0.0;
  result.slice_performance.assign(slices, 0.0);
  result.coordinator_converged = false;
  result.crashed_ras = 0;
  result.reports_fresh = 0;
  result.reports_carried = 0;
  result.columns_frozen = 0;
  result.rcl_losses = 0;

  // Which RAs are down this period, and how degraded the live substrates
  // are. Crashed RAs run no intervals: the agent is gone, so no actions
  // are taken, no traffic is served, and no monitoring rows are recorded.
  // With a transport, derates travel in the directives instead of being
  // applied to the (never-stepped) local environments, and process-real
  // fault actions ride along for the supervisor to execute.
  RaTransport* transport = config_.transport;
  std::vector<RaPeriodDirective> directives(transport != nullptr ? ras : 0);
  bool* const crashed = period_arena_.make_array<bool>(ras);
  if (faults) {
    for (std::size_t j = 0; j < ras; ++j) {
      crashed[j] = faults->ra_crashed(period_, j);
      if (transport != nullptr) {
        directives[j].run = !crashed[j];
        directives[j].fault = faults->process_fault(period_, j);
        directives[j].stall_ms =
            static_cast<std::uint32_t>(faults->process_fault_stall_ms(period_, j));
      }
      if (crashed[j]) {
        ++result.crashed_ras;
        log_fault_event(obs::EventKind::FaultRaCrash, period_, j);
        continue;
      }
      std::array<double, env::kResources> derate{1.0, 1.0, 1.0};
      if (faults->cqi_blackout(period_, j)) {
        derate[env::kRadio] = 0.0;
        log_fault_event(obs::EventKind::FaultCqiBlackout, period_, j);
      }
      if (faults->link_failure(period_, j)) {
        derate[env::kTransport] = 0.0;
        log_fault_event(obs::EventKind::FaultLinkFailure, period_, j);
      }
      const double slowdown = faults->compute_slowdown(period_, j);
      derate[env::kCompute] = 1.0 / slowdown;
      if (slowdown > 1.0) {
        log_fault_event(obs::EventKind::FaultComputeSlowdown, period_, j, slowdown);
      }
      if (transport != nullptr) {
        directives[j].has_derate = true;
        directives[j].derate = derate;
      } else {
        environments_[j]->set_resource_derate(derate);
      }
    }
  }

  if (transport != nullptr) {
    // Remote execution: one directive per RA out, one trace per RA back.
    // Last period's traces are released first, so they never coexist with
    // the incoming ones.
    const auto intervals_span = global_tracer().span("system.transport_intervals");
    traces_.clear();
    traces_ = transport->run_intervals(period_, directives);
    if (traces_.size() != ras)
      throw std::runtime_error("EdgeSliceSystem: transport trace count mismatch");
    for (std::size_t j = 0; j < ras; ++j) {
      // An RA the transport could not run (worker died or hung mid-period)
      // degrades exactly like a crash: no monitoring rows, no RC-M report;
      // carry-forward and column-freeze take over below.
      if (!crashed[j] && (!traces_[j].ran || traces_[j].steps.size() != intervals ||
                          traces_[j].actions.size() != intervals)) {
        crashed[j] = true;
        ++result.crashed_ras;
        log_fault_event(obs::EventKind::FaultRaCrash, period_, j);
      }
    }
  } else {
    // In-process execution: contiguous RA ranges, one per pool task, each
    // stepped by its own RaStepper. A task's RAs are touched by no other
    // thread, and the trace buffers are members so their capacity survives
    // across periods.
    ThreadPool* pool = config_.pool;
    const std::size_t tasks = std::min(pool != nullptr ? pool->thread_count() : 1, ras);
    steppers_.resize(tasks);
    traces_.resize(ras);
    RaSlot* const slots = period_arena_.make_array<RaSlot>(ras);
    for (std::size_t j = 0; j < ras; ++j) {
      slots[j] = {environments_[j], policies_[j], &traces_[j]};
    }
    double* const ra_seconds = period_arena_.make_array<double>(ras);
    const bool timed = metrics_enabled();
    const auto run_task = [&](std::size_t k) {
      const std::size_t begin = k * ras / tasks;
      const std::size_t end = (k + 1) * ras / tasks;
      const double batch_seconds = steppers_[k].step_period(
          std::span(slots + begin, end - begin), crashed + begin, ra_seconds + begin);
      for (std::size_t j = begin; j < end && timed; ++j) {
        if (!crashed[j]) global_tracer().record("system.ra_intervals", ra_seconds[j]);
      }
      if (batch_seconds > 0.0) {
        global_tracer().record("system.batched_inference", batch_seconds);
      }
    };
    if (tasks == 1) {
      run_task(0);
    } else {
      const auto dispatch_time = SteadyClock::now();
      pool->parallel_for(tasks, [&](std::size_t k) {
        // Time from batch dispatch to this task starting: how long it sat
        // in the pool's queue behind other work.
        if (timed) {
          global_tracer().record("system.pool_queue_wait", seconds_since(dispatch_time));
        }
        run_task(k);
      });
    }
  }

  // Both planes meet here: reduce in the (t, j) order, so monitoring rows
  // and floating-point accumulation are bit-identical for any thread or
  // worker count.
  for (std::size_t t = 0; t < intervals; ++t) {
    for (std::size_t j = 0; j < ras; ++j) {
      if (crashed[j]) continue;
      const env::StepResult& step = traces_[j].steps[t];
      monitor_->record(j, period_, interval_, step, traces_[j].actions[t]);
      for (std::size_t i = 0; i < slices; ++i) {
        result.performance_sums(i, j) += step.performance[i];
        result.slice_performance[i] += step.performance[i];
        result.system_performance += step.performance[i];
      }
    }
    ++interval_;
  }

  if (config_.use_coordinator) {
    const auto coordinate_span = global_tracer().span("coordinate");
    // Live RAs post their RC-M reports onto the message plane; the bus may
    // drop or delay them per the fault plan. One reused message feeds the
    // bus's pooled envelopes — the report plane allocates nothing once warm.
    for (std::size_t j = 0; j < ras; ++j) {
      if (crashed[j]) continue;
      report_scratch_.ra = j;
      report_scratch_.performance_sums.resize(slices);
      for (std::size_t i = 0; i < slices; ++i) {
        report_scratch_.performance_sums[i] = result.performance_sums(i, j);
      }
      bus_.post_report(period_, report_scratch_);
    }

    // Ingest everything deliverable this period. Envelopes arrive ordered
    // by (deliver_period, seq), so a delayed stale report never overwrites
    // a fresher one delivered alongside it; the explicit sent_period guard
    // covers reordering across collect calls.
    bus_.collect_reports_into(period_, envelope_scratch_);
    for (auto& envelope : envelope_scratch_) {
      const std::size_t ra = envelope.message.ra;
      if (ra >= ras || envelope.message.performance_sums.size() != slices) continue;
      if (has_report_[ra] && envelope.sent_period < last_report_period_[ra]) continue;
      // Copy, not move: the envelope keeps its buffer for the bus's pool.
      last_report_[ra] = envelope.message.performance_sums;
      last_report_period_[ra] = envelope.sent_period;
      has_report_[ra] = true;
      if (envelope.sent_period == period_) ++result.reports_fresh;
    }
    bus_.recycle(envelope_scratch_);

    // Assemble the coordinator's input: fresh columns, carried-forward
    // columns within the staleness window, frozen columns beyond it.
    if (u_scratch_.rows() != slices || u_scratch_.cols() != ras) {
      u_scratch_ = nn::Matrix(slices, ras);
    } else {
      auto& cells = u_scratch_.data();
      std::fill(cells.begin(), cells.end(), 0.0);
    }
    nn::Matrix& u = u_scratch_;
    active_scratch_.assign(ras, false);
    std::vector<bool>& active = active_scratch_;
    for (std::size_t j = 0; j < ras; ++j) {
      if (!has_report_[j]) {
        ++result.columns_frozen;
        continue;
      }
      const std::size_t staleness = period_ - last_report_period_[j];
      if (staleness > config_.max_report_staleness) {
        ++result.columns_frozen;
        continue;
      }
      active[j] = true;
      for (std::size_t i = 0; i < slices; ++i) u(i, j) = last_report_[j][i];
      if (staleness > 0) ++result.reports_carried;
    }
    coordinator_.update(u, active);

    // RC-L push through the bus; an RA that misses it keeps acting on its
    // last-known coordination vector, and a crashed RA receives nothing
    // (it picks up the current vector after its first post-restart period).
    // With a transport the bus ships the vector to the RA's worker itself;
    // in-process the delivery is this set_coordination call.
    for (std::size_t j = 0; j < ras; ++j) {
      if (crashed[j]) continue;
      coordinator_.coordination_for_into(j, rcl_scratch_);
      if (bus_.deliver_coordination(period_, rcl_scratch_)) {
        if (transport == nullptr) environments_[j]->set_coordination(rcl_scratch_.z_minus_y);
      } else {
        ++result.rcl_losses;
      }
    }
    result.coordinator_converged = coordinator_.converged();
  }
  if (transport != nullptr) transport->end_period(period_);
  // Degraded-mode signals of the period just run, readable while the
  // system is live (the chaos benches and operators poll these).
  auto& metrics = global_metrics();
  metrics.gauge("system.crashed_ras").set(static_cast<double>(result.crashed_ras));
  metrics.gauge("system.columns_frozen").set(static_cast<double>(result.columns_frozen));
  metrics.gauge("system.reports_carried").set(static_cast<double>(result.reports_carried));
  metrics.counter("system.rcl_losses").add(result.rcl_losses);
  metrics.counter("system.periods").add();
  // SLO evaluation against the monitor's incremental per-(ra, period)
  // sums: the network-wide per-slice performance of the period just run.
  // Observation-only — the watchdog's verdicts never steer orchestration.
  if (config_.watchdog != nullptr) {
    slice_sums_scratch_.assign(slices, 0.0);
    // Attribution: per slice, the non-crashed RA contributing least this
    // period — the first place to look when the slice breaches its SLO.
    slice_min_scratch_.assign(slices, 0.0);
    slice_worst_ra_scratch_.assign(slices, obs::Event::kNone);
    for (std::size_t j = 0; j < ras; ++j) {
      if (crashed[j]) continue;
      monitor_->report_into(j, period_, report_scratch_);
      for (std::size_t i = 0; i < slices; ++i) {
        const double contribution = report_scratch_.performance_sums[i];
        slice_sums_scratch_[i] += contribution;
        if (slice_worst_ra_scratch_[i] == obs::Event::kNone ||
            contribution < slice_min_scratch_[i]) {
          slice_min_scratch_[i] = contribution;
          slice_worst_ra_scratch_[i] = j;
        }
      }
    }
    config_.watchdog->evaluate(period_, slice_sums_scratch_, slice_worst_ra_scratch_);
  }
  ++period_;
}

std::vector<PeriodResult> EdgeSliceSystem::run(std::size_t periods) {
  std::vector<PeriodResult> results;
  results.reserve(periods);
  for (std::size_t p = 0; p < periods; ++p) results.push_back(run_period());
  return results;
}

std::string EdgeSliceSystem::config_fingerprint() const {
  const CoordinatorConfig& c = coordinator_.config();
  std::ostringstream out;
  out << "artifact = system\n";
  out << "slices = " << c.slices << "\n";
  out << "ras = " << environments_.size() << "\n";
  out << "intervals_per_period = "
      << environments_.front()->config().intervals_per_period << "\n";
  out << "use_coordinator = " << (config_.use_coordinator ? 1 : 0) << "\n";
  out << "max_report_staleness = " << config_.max_report_staleness << "\n";
  out << "rho = " << json_number(c.rho) << "\n";
  out << "u_min =";
  for (double u : c.u_min) out << " " << json_number(u);
  out << "\n";
  out << "admm.abs_tol = " << json_number(c.stopping.absolute_tolerance) << "\n";
  out << "admm.rel_tol = " << json_number(c.stopping.relative_tolerance) << "\n";
  out << "admm.min_iterations = " << c.stopping.min_iterations << "\n";
  out << "admm.max_iterations = " << c.stopping.max_iterations << "\n";
  return out.str();
}

bool EdgeSliceSystem::save_checkpoint(const std::string& path) const {
  ckpt::CheckpointWriter writer(config_fingerprint());

  std::ostringstream loop;
  write_u64(loop, period_);
  write_u64(loop, interval_);
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    write_u8(loop, has_report_[j] ? 1 : 0);
    write_u64(loop, last_report_period_[j]);
    write_f64_vector(loop, last_report_[j]);
  }
  writer.add_section(ckpt::SectionKind::SystemLoop, 0, loop.str());

  std::ostringstream coordinator;
  coordinator_.save_state(coordinator);
  writer.add_section(ckpt::SectionKind::Coordinator, 0, coordinator.str());

  std::ostringstream bus;
  bus_.save_state(bus);
  writer.add_section(ckpt::SectionKind::MessageBus, 0, bus.str());

  // Environment sections come from wherever the environments actually
  // live. A transport returns each RA's state at the period boundary: the
  // supervisor's last post-intervals blob with the last delivered
  // coordination vector applied, byte-identical to an in-process
  // save_state at the same boundary.
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    std::string blob;
    if (config_.transport != nullptr) {
      blob = config_.transport->environment_state(j);
    } else {
      std::ostringstream environment;
      environments_[j]->save_state(environment);
      blob = environment.str();
    }
    writer.add_section(ckpt::SectionKind::Environment,
                       static_cast<std::uint32_t>(j), std::move(blob));
  }
  return writer.write_file(path);
}

void EdgeSliceSystem::load_checkpoint(const std::string& path) {
  constexpr const char* kContext = "EdgeSliceSystem::load_checkpoint";
  const ckpt::CheckpointReader reader = ckpt::CheckpointReader::from_file(path);
  if (reader.fingerprint() != config_fingerprint()) {
    throw std::runtime_error(std::string(kContext) +
                             ": checkpoint was taken under a different system "
                             "configuration (fingerprint mismatch)");
  }
  const std::size_t slices = coordinator_.config().slices;

  // Decode the loop section into temporaries before touching anything, so
  // a corrupt checkpoint leaves the system unchanged. The component
  // load_state calls below share that contract individually; they run
  // after all payloads are known present (require() throws first).
  std::istringstream loop(reader.require(ckpt::SectionKind::SystemLoop));
  const std::uint64_t period = read_u64(loop, kContext);
  const std::uint64_t interval = read_u64(loop, kContext);
  std::vector<std::vector<double>> last_report(environments_.size());
  std::vector<std::size_t> last_report_period(environments_.size(), 0);
  std::vector<bool> has_report(environments_.size(), false);
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    has_report[j] = read_u8(loop, kContext) != 0;
    last_report_period[j] = static_cast<std::size_t>(read_u64(loop, kContext));
    last_report[j] = read_f64_vector(loop, kContext);
    if (last_report[j].size() != slices) {
      throw std::runtime_error(std::string(kContext) +
                               ": carried report size mismatch (RA " +
                               std::to_string(j) + ")");
    }
  }

  std::istringstream coordinator(reader.require(ckpt::SectionKind::Coordinator));
  std::istringstream bus(reader.require(ckpt::SectionKind::MessageBus));
  std::vector<std::string> environment_blobs;
  environment_blobs.reserve(environments_.size());
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    environment_blobs.push_back(reader.require(
        ckpt::SectionKind::Environment, static_cast<std::uint32_t>(j)));
  }

  coordinator_.load_state(coordinator);
  bus_.load_state(bus);
  // Always validate the blobs into the local environments first (a corrupt
  // section throws before any remote state is touched); with a transport,
  // the blobs are then pushed to the workers, which are the authoritative
  // copies.
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    std::istringstream blob(environment_blobs[j]);
    environments_[j]->load_state(blob);
  }
  if (config_.transport != nullptr) {
    for (std::size_t j = 0; j < environments_.size(); ++j) {
      config_.transport->restore_environment(j, environment_blobs[j]);
    }
  }
  period_ = static_cast<std::size_t>(period);
  interval_ = static_cast<std::size_t>(interval);
  last_report_ = std::move(last_report);
  last_report_period_ = std::move(last_report_period);
  has_report_ = std::move(has_report);
}

}  // namespace edgeslice::core
