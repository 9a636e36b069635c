// Chaos ablation — control-plane fault tolerance.
//
// The paper's decentralization claim implies graceful degradation: losing
// RC-M/RC-L messages or a whole RA should dent performance, not stall the
// system. This bench sweeps fault intensity over the prototype setup
// (scripted TARO agents isolate control-plane dynamics from RL noise) and
// reports, per scenario: total system performance relative to the
// fault-free run, SLA satisfaction (fraction of (period, slice) pairs whose
// network-wide performance meets U_min), degraded-mode activity
// (carry-forwards, frozen columns, crashes), and message-plane counters.
// Every scenario is run twice from the same FaultPlan seed and checked
// bit-identical, demonstrating reproducible chaos.
#include "common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/fault.h"
#include "core/policies.h"
#include "ipc/supervisor.h"
#include "obs/sla_watchdog.h"

using namespace edgeslice;
using namespace edgeslice::bench;

namespace {

struct ScenarioResult {
  double total_performance = 0.0;
  double sla_fraction = 0.0;
  std::size_t carried = 0;
  std::size_t frozen = 0;
  std::size_t crashed = 0;
  std::size_t rcl_losses = 0;
  std::size_t sla_violations = 0;  // SLA watchdog's count, cross-checked
  core::MessageBusStats bus;

  bool operator==(const ScenarioResult& other) const {
    return total_performance == other.total_performance &&
           sla_fraction == other.sla_fraction && carried == other.carried &&
           frozen == other.frozen && crashed == other.crashed &&
           rcl_losses == other.rcl_losses && sla_violations == other.sla_violations &&
           bus.rcm_dropped == other.bus.rcm_dropped &&
           bus.rcm_delayed == other.bus.rcm_delayed &&
           bus.rcl_dropped == other.bus.rcl_dropped;
  }
};

constexpr std::size_t kNoCrash = static_cast<std::size_t>(-1);

ScenarioResult run_scenario(const Setup& setup, const FaultPlan& plan,
                            std::size_t periods, std::size_t crash_at = kNoCrash) {
  Rng profile_rng(setup.seed);
  const auto profiles = make_profiles(setup.slices, profile_rng);
  const auto model = make_service_model(profiles);
  const auto config = env_config(setup, true);

  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<core::RaPolicy>> policies;
  for (std::size_t j = 0; j < setup.ras; ++j) {
    environments.push_back(std::make_unique<env::RaEnvironment>(
        config, profiles, model, make_perf(setup), Rng(setup.seed * 1000 + j)));
    policies.push_back(std::make_unique<core::TaroPolicy>());
  }

  core::CoordinatorConfig coordinator;
  coordinator.slices = setup.slices;
  coordinator.ras = setup.ras;

  FaultInjector injector{plan};
  // SLA watchdog on the same contract the coordinator enforces (the
  // constructor's -50/slice default when u_min is unset). Observation
  // only: attaching it does not change results.
  obs::SlaWatchdog watchdog = obs::SlaWatchdog::from_u_min(
      coordinator.u_min.empty() ? std::vector<double>(setup.slices, -50.0)
                                : coordinator.u_min);
  core::SystemConfig system_config;
  system_config.faults = &injector;
  system_config.watchdog = &watchdog;

  std::vector<env::RaEnvironment*> env_ptrs;
  std::vector<core::RaPolicy*> policy_ptrs;
  for (auto& e : environments) env_ptrs.push_back(e.get());
  for (auto& p : policies) policy_ptrs.push_back(p.get());

  // --workers: host the RAs in supervised worker processes. The FaultPlan
  // is applied identically (the injector lives in the coordinator
  // process), and its WorkerKill/SocketDrop events become real SIGKILLs /
  // half-closed sockets instead of bookkeeping — same trajectories either
  // way (DESIGN.md "Process model & supervision").
  std::unique_ptr<ipc::WorkerSupervisor> supervisor;
  if (setup.workers > 0) {
    ipc::SupervisorConfig sup_config;
    sup_config.workers = setup.workers;
    supervisor = std::make_unique<ipc::WorkerSupervisor>(env_ptrs, policy_ptrs,
                                                         sup_config);
    supervisor->start();
    system_config.transport = supervisor.get();
  }
  core::EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator, system_config);

  // --resume: restore the system (loop counters, coordinator, message bus
  // — in-flight envelopes included — and every environment) and continue
  // from the checkpointed period. The FaultPlan re-applies losslessly: the
  // injector is a pure function of (plan seed, period, RA), so the resumed
  // run sees exactly the faults the uninterrupted run would have.
  const PeriodCheckpoints checkpoints(setup.resume_path, setup.checkpoint_out,
                                      setup.checkpoint_every, setup.checkpoint_keep,
                                      "chaos");
  const std::size_t start = checkpoints.resume(system);

  std::vector<core::PeriodResult> results;
  results.reserve(periods - start);
  for (std::size_t p = start; p < periods; ++p) {
    // --crash-at-period: die mid-run so the crash handlers (installed by
    // --events-out) must salvage the flight-recorder window, and — when
    // --checkpoint-every is set — a rerun with --resume picks up from the
    // last period boundary.
    if (p == crash_at) {
      std::fprintf(stderr, "[chaos] forced abort at period %zu\n", p);
      std::abort();
    }
    results.push_back(system.run_period());
    checkpoints.after_period(system, p, periods);
  }

  ScenarioResult out;
  const auto& u_min = system.coordinator().config().u_min;
  std::size_t met = 0;
  for (const auto& r : results) {
    out.total_performance += r.system_performance;
    out.carried += r.reports_carried;
    out.frozen += r.columns_frozen;
    out.crashed += r.crashed_ras;
    out.rcl_losses += r.rcl_losses;
    for (std::size_t i = 0; i < setup.slices; ++i) {
      double total = 0.0;
      for (std::size_t j = 0; j < setup.ras; ++j) total += r.performance_sums(i, j);
      if (total >= u_min[i] - 1e-9) ++met;
    }
  }
  // Accounting covers the periods evaluated in THIS process: after a
  // resume, the pre-crash periods belong to the previous process (the
  // watchdog is observation-only state and is deliberately not part of the
  // checkpoint, so its counters also start at the resume point).
  const std::size_t evaluated = periods - start;
  out.sla_fraction =
      static_cast<double>(met) / static_cast<double>(evaluated * setup.slices);
  out.sla_violations = watchdog.total_violations();
  // The watchdog evaluates the same sums with the same tolerance, so its
  // violation count must be the exact complement of `met`.
  if (out.sla_violations + met != evaluated * setup.slices) {
    std::fprintf(stderr, "[chaos] WATCHDOG MISMATCH: %zu violations + %zu met != %zu\n",
                 out.sla_violations, met, evaluated * setup.slices);
    std::exit(2);
  }
  out.bus = system.bus().stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Setup setup = parse_common_flags(argc, argv, Setup{}, {"crash-at-period"});
  const CliArgs args(argc, argv,
                     {"steps", "seed", "periods", "threads", "metrics-out",
                      "telemetry-port", "metrics-interval", "events-out",
                      "checkpoint-every", "checkpoint-out", "resume",
                      "checkpoint-keep", "workers", "crash-at-period"});
  const std::int64_t crash_at = args.get_int("crash-at-period", -1);
  const std::size_t periods = setup.eval_periods * 4;  // longer horizon for rates
  print_header("Ablation: control-plane fault tolerance",
               "degradation under RC-M/RC-L loss and RA crashes");
  std::printf("# %zu slices, %zu RAs, %zu periods, TARO agents, plan seed %llu, "
              "%zu worker processes\n",
              setup.slices, setup.ras, periods,
              static_cast<unsigned long long>(setup.seed), setup.workers);

  struct Scenario {
    std::string name;
    FaultPlan plan;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"fault-free", FaultPlan{}});
  for (double drop : {0.05, 0.10, 0.20, 0.40}) {
    FaultPlan plan;
    plan.seed = setup.seed;
    plan.rates.rcm_drop = drop;
    char name[48];
    std::snprintf(name, sizeof(name), "rcm-drop-%.0f%%", drop * 100.0);
    scenarios.push_back({name, plan});
  }
  {
    FaultPlan plan;
    plan.seed = setup.seed;
    plan.rates.rcl_drop = 0.2;
    scenarios.push_back({"rcl-drop-20%", plan});
  }
  {
    FaultPlan plan;
    plan.seed = setup.seed;
    plan.rates.rcm_delay = 0.3;
    plan.rates.rcm_delay_periods = 2;
    scenarios.push_back({"rcm-delay-30%x2", plan});
  }
  {
    FaultPlan plan;
    plan.seed = setup.seed;
    plan.events.push_back(
        FaultEvent{FaultType::RaCrash, periods / 3, setup.ras - 1, 4, 1.0});
    scenarios.push_back({"ra-crash-midrun", plan});
  }
  {
    FaultPlan plan;
    plan.seed = setup.seed;
    plan.rates.rcm_drop = 0.10;
    plan.events.push_back(
        FaultEvent{FaultType::RaCrash, periods / 3, setup.ras - 1, 4, 1.0});
    scenarios.push_back({"acceptance: 10%drop+crash", plan});
  }
  {
    // Process-real chaos: with --workers these are a real SIGKILL and a
    // real half-closed socket, restored by the supervisor; without
    // workers the plan folds into the same ra_crashed() windows — the
    // row must be byte-identical either way.
    FaultPlan plan;
    plan.seed = setup.seed;
    plan.events.push_back(
        FaultEvent{FaultType::WorkerKill, periods / 2, 0, 3, 1.0});
    plan.events.push_back(FaultEvent{FaultType::SocketDrop, 2 * periods / 3,
                                     setup.ras - 1, 2, 1.0});
    scenarios.push_back({"worker-kill+socket-drop", plan});
  }
  {
    FaultPlan plan;
    plan.seed = setup.seed;
    plan.rates.rcm_drop = 0.15;
    plan.rates.rcl_drop = 0.15;
    plan.rates.ra_crash = 0.03;
    plan.rates.ra_crash_periods = 2;
    plan.rates.cqi_blackout = 0.05;
    plan.rates.link_failure = 0.05;
    plan.rates.compute_slowdown = 0.05;
    plan.rates.compute_slowdown_factor = 3.0;
    scenarios.push_back({"combined-chaos", plan});
  }

  // --crash-at-period N: run only combined-chaos and abort at period N.
  // With --events-out set, the installed crash handlers must produce a
  // complete JSONL flight-recorder dump (the acceptance test's subject).
  // With --checkpoint-every M (periods), checkpoints land at every M-th
  // period boundary, and a rerun with --resume <path> continues the SAME
  // combined-chaos run from the last boundary before the crash — the
  // fault-tolerance story closed end to end.
  if (crash_at >= 0 || !setup.resume_path.empty()) {
    if (crash_at >= 0) {
      std::printf("# crash-at-period %lld under combined-chaos\n",
                  static_cast<long long>(crash_at));
    } else {
      std::printf("# resuming combined-chaos from %s\n", setup.resume_path.c_str());
    }
    const ScenarioResult r =
        run_scenario(setup, scenarios.back().plan, periods,
                     crash_at >= 0 ? static_cast<std::size_t>(crash_at) : kNoCrash);
    // Reached on resume, or when crash_at >= periods.
    print_series_header({"perf-total", "sla-frac", "sla-viol", "carried", "frozen",
                         "crashed", "rcl-lost"});
    print_row({r.total_performance, r.sla_fraction,
               static_cast<double>(r.sla_violations), static_cast<double>(r.carried),
               static_cast<double>(r.frozen), static_cast<double>(r.crashed),
               static_cast<double>(r.rcl_losses)});
    return 0;
  }

  print_series_header({"perf-total", "perf-vs-clean", "sla-frac", "sla-viol", "carried",
                       "frozen", "crashed", "rcl-lost", "reproducible"});
  double clean_performance = 0.0;
  for (const auto& scenario : scenarios) {
    const ScenarioResult first = run_scenario(setup, scenario.plan, periods);
    const ScenarioResult second = run_scenario(setup, scenario.plan, periods);
    const bool reproducible = first == second;
    if (scenario.plan.empty()) clean_performance = first.total_performance;
    const double relative = clean_performance != 0.0
                                ? first.total_performance / clean_performance
                                : 1.0;
    std::printf("# %s\n", scenario.name.c_str());
    print_row({first.total_performance, relative, first.sla_fraction,
               static_cast<double>(first.sla_violations),
               static_cast<double>(first.carried), static_cast<double>(first.frozen),
               static_cast<double>(first.crashed),
               static_cast<double>(first.rcl_losses), reproducible ? 1.0 : 0.0});
    std::printf("#   bus: rcm sent=%llu dropped=%llu delayed=%llu delivered=%llu | "
                "rcl sent=%llu dropped=%llu\n",
                static_cast<unsigned long long>(first.bus.rcm_sent),
                static_cast<unsigned long long>(first.bus.rcm_dropped),
                static_cast<unsigned long long>(first.bus.rcm_delayed),
                static_cast<unsigned long long>(first.bus.rcm_delivered),
                static_cast<unsigned long long>(first.bus.rcl_sent),
                static_cast<unsigned long long>(first.bus.rcl_dropped));
    if (!reproducible) {
      std::printf("#   WARNING: scenario was NOT bit-reproducible\n");
      return 1;
    }
  }
  return 0;
}
