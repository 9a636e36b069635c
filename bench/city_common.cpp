#include "city_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <stdexcept>

#include "common.h"

#include "common/hash.h"
#include "common/stats.h"
#include "common/trace_span.h"
#include "core/policies.h"
#include "core/system.h"
#include "env/environment.h"
#include "env/perf.h"
#include "obs/sla_watchdog.h"
#include "trace/diurnal.h"

namespace edgeslice::bench::city {

namespace {

/// Digest of one period's observable outcome. Covers the full coordinator
/// input (performance sums) and the degraded-mode counters, so any
/// divergence in the trajectory — numeric or control-flow — flips it.
std::uint64_t period_digest(const core::PeriodResult& result) {
  std::uint64_t hash =
      fnv1a64(std::as_bytes(std::span(result.performance_sums.data())));
  hash = fnv1a64(std::as_bytes(std::span(&result.system_performance, 1)), hash);
  hash = fnv1a64(std::as_bytes(std::span(result.slice_performance)), hash);
  const std::uint64_t counters[] = {
      result.coordinator_converged ? 1u : 0u, result.crashed_ras,
      result.reports_fresh,                   result.reports_carried,
      result.columns_frozen,                  result.rcl_losses};
  return fnv1a64(std::as_bytes(std::span(counters)), hash);
}

/// Per-RA, per-slice diurnal arrival profiles covering the whole day.
/// Each RA is one synthetic city cell (trace::sample_cell_profile);
/// slices are phase-shifted within the cell's curve (spatio-temporal
/// diversity, same idiom as bench::apply_trace_traffic) and normalized so
/// every slice peaks at `peak_rate` tasks/interval.
std::vector<std::vector<double>> cell_day_profiles(const trace::CellProfile& cell,
                                                   std::size_t slices, std::size_t bins,
                                                   double peak_rate) {
  std::vector<std::vector<double>> per_slice(slices, std::vector<double>(bins, 0.0));
  for (std::size_t i = 0; i < slices; ++i) {
    const double shift_hours =
        24.0 * static_cast<double>(i) / (2.0 * static_cast<double>(slices));
    double max_activity = 0.0;
    for (std::size_t t = 0; t < bins; ++t) {
      const double hour = std::fmod(
          24.0 * (static_cast<double>(t) + 0.5) / static_cast<double>(bins) +
              shift_hours,
          24.0);
      per_slice[i][t] = trace::cell_activity(cell, hour);
      max_activity = std::max(max_activity, per_slice[i][t]);
    }
    if (max_activity <= 0.0) max_activity = 1.0;
    for (double& rate : per_slice[i]) rate = rate / max_activity * peak_rate;
  }
  return per_slice;
}

void validate(const CityConfig& config) {
  if (config.ras == 0 || config.slices_per_ra == 0 || config.periods == 0 ||
      config.intervals_per_period == 0) {
    throw std::invalid_argument("run_city: every shape dimension must be positive");
  }
  if (config.peak_rate <= 0.0) {
    throw std::invalid_argument("run_city: peak_rate must be positive");
  }
  // The monitor recycles a (period, ra) sum node only once it has expired;
  // a window at or below the carry-forward staleness cutoff would recycle
  // sums the coordinator may still read.
  if (config.sum_retention != 0 &&
      config.sum_retention <= core::SystemConfig{}.max_report_staleness) {
    throw std::invalid_argument("run_city: sum_retention must exceed the staleness window");
  }
}

}  // namespace

std::string digest_hex(std::uint64_t digest) {
  char buffer[2 + 16 + 1];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

CityRun run_city(const CityConfig& config) {
  validate(config);

  // --- Build the city -------------------------------------------------------
  Rng profile_rng(config.seed);
  const auto profiles = make_profiles(config.slices_per_ra, profile_rng);
  const auto model = make_service_model(profiles);
  const std::shared_ptr<const env::PerformanceFunction> perf =
      env::make_queue_power_perf(2.0);

  env::RaEnvironmentConfig env_config;
  env_config.slices = config.slices_per_ra;
  env_config.intervals_per_period = config.intervals_per_period;
  env_config.arrival_rate = config.peak_rate;
  env_config.include_traffic_in_state = true;

  const std::size_t bins = config.periods * config.intervals_per_period;
  Rng city_rng(config.seed + 9001);
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<core::RaPolicy>> policies;
  environments.reserve(config.ras);
  policies.reserve(config.ras);
  for (std::size_t j = 0; j < config.ras; ++j) {
    environments.push_back(std::make_unique<env::RaEnvironment>(
        env_config, profiles, model, perf, Rng(config.seed * 1000 + j)));
    const trace::CellProfile cell = trace::sample_cell_profile(city_rng);
    environments.back()->set_arrival_profiles(
        cell_day_profiles(cell, config.slices_per_ra, bins, config.peak_rate));
    policies.push_back(std::make_unique<core::TaroPolicy>());
  }

  core::CoordinatorConfig coordinator;
  coordinator.slices = config.slices_per_ra;
  coordinator.ras = config.ras;
  // The -50/slice default SLA (Sec. VII) is calibrated for the 10-RA,
  // 24-interval simulation. The floor binds the *network-wide* per-slice
  // sum over one period — a quantity that scales with both the RA count
  // and the period length — so the city keeps the implied per-(RA,
  // interval) contract fixed as --ras/--intervals grow. The constant is
  // chosen so peak-hour periods breach under TARO and night-trough
  // periods pass: the violation-rate report separates the diurnal
  // regimes instead of saturating at 0 or 1.
  coordinator.u_min.assign(
      config.slices_per_ra,
      -5.0 * static_cast<double>(config.ras) *
          static_cast<double>(config.intervals_per_period));

  obs::SlaWatchdog watchdog = obs::SlaWatchdog::from_u_min(coordinator.u_min);

  core::SystemConfig system_config;
  system_config.pool = config.pool;
  system_config.watchdog = &watchdog;

  std::vector<env::RaEnvironment*> env_ptrs;
  std::vector<core::RaPolicy*> policy_ptrs;
  for (auto& e : environments) env_ptrs.push_back(e.get());
  for (auto& p : policies) policy_ptrs.push_back(p.get());
  core::EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator, system_config);

  // At city scale the per-interval row log is the dominant allocator on
  // the period hot path; the RC-M running sums (kept exact) are all the
  // coordinator and watchdog need.
  system.monitor().set_row_recording(false);
  system.monitor().set_period_sum_retention(config.sum_retention);
  global_tracer().set_period_retention(config.periods + 16);

  // --- Resume / checkpoint plumbing (chaos-bench contract) ------------------
  const PeriodCheckpoints checkpoints(config.resume_path, config.checkpoint_out,
                                      config.checkpoint_every, config.checkpoint_keep,
                                      "city");
  const std::size_t start = checkpoints.resume(system);

  // --- The day --------------------------------------------------------------
  CityRun run;
  run.start_period = start;
  core::PeriodResult result;
  const std::size_t end = std::min(config.periods, config.stop_after_period);
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t p = start; p < end; ++p) {
    if (p == config.crash_at_period) {
      std::fprintf(stderr, "[city] forced abort at period %zu\n", p);
      std::abort();
    }
    system.run_period_into(result);
    run.total_performance += result.system_performance;
    run.period_digests.push_back(period_digest(result));
    if (config.print_digests) {
      std::printf("digest period=%zu %s\n", p,
                  digest_hex(run.period_digests.back()).c_str());
      std::fflush(stdout);
    }
    // The arena is warm once a period has run after reset()'s one-off slab
    // coalescing; any upstream allocation past this point is a regression
    // the smoke test catches.
    if (p == start + 2) {
      run.arena_upstream_after_warmup =
          system.period_arena().stats().upstream_allocations;
    }
    checkpoints.after_period(system, p, config.periods);
  }
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  run.periods_run = end - start;
  run.periods_per_second = run.wall_seconds > 0.0
                               ? static_cast<double>(run.periods_run) / run.wall_seconds
                               : 0.0;

  // --- Report ---------------------------------------------------------------
  run.trajectory_digest = fnv1a64(std::as_bytes(std::span(run.period_digests)));
  run.arena = system.period_arena().stats();
  if (run.arena_upstream_after_warmup == 0) {
    run.arena_upstream_after_warmup = run.arena.upstream_allocations;
  }

  run.slice_violation_rates.resize(config.slices_per_ra, 0.0);
  for (std::size_t i = 0; i < config.slices_per_ra; ++i) {
    run.slice_violation_rates[i] = watchdog.violation_rate(i);
  }
  run.sla_violations = watchdog.total_violations();
  const std::size_t evaluated = watchdog.periods_evaluated() * config.slices_per_ra;
  run.sla_violation_rate =
      evaluated > 0 ? static_cast<double>(run.sla_violations) /
                          static_cast<double>(evaluated)
                    : 0.0;

  // p99 of per-period coordinator-solve time, from the tracer's existing
  // span (nested, so match by path suffix). Only this run's period window
  // counts — the tracer is process-global and tests run several cities.
  std::vector<double> solve_seconds;
  for (const auto& name : global_tracer().names()) {
    const std::string suffix = "coordinator.solve";
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    for (const auto& [period, span_stats] : global_tracer().periods(name)) {
      if (period >= start && period < end) {
        solve_seconds.push_back(span_stats.total_s);
      }
    }
  }
  run.p99_solve_seconds =
      solve_seconds.empty() ? 0.0 : percentile(std::move(solve_seconds), 99.0);
  return run;
}

}  // namespace edgeslice::bench::city
