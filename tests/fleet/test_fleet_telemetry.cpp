// Fleet telemetry end-to-end (ctest label: fleet).
//
// The acceptance contract of the telemetry plane, driven through real
// forked workers: after a 4-worker run under worker-kill chaos the
// supervisor's registry holds per-worker-labeled series for the
// worker-side counters, the event log holds origin-tagged events from
// every slot (the killed slot contributes its pre-kill flush AND a
// TelemetryGap marker), and — the hard constraint — trajectories are
// bit-identical to the in-process run whether telemetry ships every
// period or never, because nothing on the deterministic path reads or
// waits on telemetry.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace_span.h"
#include "core/policies.h"
#include "core/system.h"
#include "env/service_model.h"
#include "ipc/supervisor.h"
#include "obs/aggregator.h"
#include "obs/event_log.h"

namespace edgeslice::ipc {
namespace {

constexpr std::size_t kRas = 4;
constexpr std::size_t kPeriods = 4;

class FleetTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    global_metrics().clear();
    global_tracer().clear();
    obs::global_event_log().clear();
    obs::set_fleet_status({});
  }
  void TearDown() override {
    global_metrics().clear();
    global_tracer().clear();
    obs::global_event_log().clear();
    obs::set_fleet_status({});
  }
};

std::unique_ptr<env::RaEnvironment> make_env(Rng rng) {
  env::RaEnvironmentConfig config;  // 2 slices, T = 10
  return std::make_unique<env::RaEnvironment>(
      config,
      std::vector<env::AppProfile>{env::slice1_profile(), env::slice2_profile()},
      std::make_shared<env::DirectServiceModel>(env::prototype_capacity()),
      env::make_queue_power_perf(), rng);
}

struct SystemRun {
  std::vector<core::PeriodResult> periods;
  std::vector<double> series;
  std::vector<core::IntervalRecord> records;
  std::size_t restarts_slot0 = 0;
};

/// One evaluation run at `workers` worker processes (0 = in-process
/// reference) with the given telemetry cadence. The supervisor is
/// stopped explicitly so clean-shutdown final flushes land before the
/// caller inspects the global registry/event log.
SystemRun run_system(std::uint64_t seed, std::size_t workers,
                     std::uint64_t telemetry_every, const FaultInjector* faults) {
  const Rng parent(seed);
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<core::RaPolicy>> policies;
  std::vector<env::RaEnvironment*> env_ptrs;
  std::vector<core::RaPolicy*> policy_ptrs;
  for (std::size_t j = 0; j < kRas; ++j) {
    environments.push_back(make_env(parent.spawn(700 + j)));
    policies.push_back(std::make_unique<core::TaroPolicy>());
    env_ptrs.push_back(environments.back().get());
    policy_ptrs.push_back(policies.back().get());
  }
  core::CoordinatorConfig coordinator;
  coordinator.slices = 2;
  coordinator.ras = kRas;
  core::SystemConfig config;
  config.faults = faults;

  std::unique_ptr<WorkerSupervisor> supervisor;
  if (workers > 0) {
    SupervisorConfig sup_config;
    sup_config.workers = workers;
    sup_config.telemetry_every = telemetry_every;
    supervisor = std::make_unique<WorkerSupervisor>(env_ptrs, policy_ptrs, sup_config);
    supervisor->start();
    config.transport = supervisor.get();
  }
  core::EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator, config);

  SystemRun out;
  out.periods = system.run(kPeriods);
  out.series = system.monitor().system_performance_series();
  out.records = system.monitor().records();
  if (supervisor) {
    out.restarts_slot0 = supervisor->restart_count(0);
    supervisor->stop();
  }
  return out;
}

void expect_identical(const SystemRun& a, const SystemRun& b, const std::string& label) {
  ASSERT_EQ(a.periods.size(), b.periods.size()) << label;
  for (std::size_t p = 0; p < a.periods.size(); ++p) {
    EXPECT_EQ(a.periods[p].slice_performance, b.periods[p].slice_performance)
        << label << " period " << p;
    EXPECT_EQ(a.periods[p].system_performance, b.periods[p].system_performance);
    EXPECT_EQ(a.periods[p].crashed_ras, b.periods[p].crashed_ras);
  }
  EXPECT_EQ(a.series, b.series) << label;
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t r = 0; r < a.records.size(); ++r) {
    EXPECT_EQ(a.records[r].performance, b.records[r].performance)
        << label << " record " << r;
    EXPECT_EQ(a.records[r].action, b.records[r].action);
    EXPECT_EQ(a.records[r].reward, b.records[r].reward);
  }
}

std::uint64_t labeled_counter(const std::string& name, std::size_t slot) {
  return global_metrics().counter(name, {{"worker", std::to_string(slot)}}).value();
}

TEST_F(FleetTelemetryTest, TrajectoriesIdenticalWithAggregationOnAndOff) {
  // The determinism boundary: 0/1/2/4 workers, telemetry shipping every
  // period vs never, all bit-identical. Telemetry merges on the
  // supervisor's pump thread and never feeds back into orchestration.
  const SystemRun reference = run_system(21, 0, 0, nullptr);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const std::uint64_t every : {std::uint64_t{0}, std::uint64_t{1}}) {
      expect_identical(reference, run_system(21, workers, every, nullptr),
                       "workers " + std::to_string(workers) + " telemetry_every " +
                           std::to_string(every));
    }
  }
}

TEST_F(FleetTelemetryTest, ChaosRunPublishesEverySlotIncludingTheKilledOne) {
  // SIGKILL RA 0's worker (slot 0 of 4) at period 1 for 2 periods. The
  // slot's period-0 flush already reached the supervisor; the unclean
  // death must add a TelemetryGap, and the respawned incarnation's
  // counts must stack on the dead one's base.
  FaultPlan plan;
  plan.seed = 7;
  plan.events.push_back(FaultEvent{FaultType::WorkerKill, 1, 0, 2, 1.0});
  const FaultInjector faults(plan);
  const SystemRun run = run_system(5, kRas, /*telemetry_every=*/1, &faults);
  ASSERT_GE(run.restarts_slot0, 1u) << "kill never fired; test is vacuous";

  // Per-worker-labeled series for the worker-side counters, every slot.
  for (std::size_t slot = 0; slot < kRas; ++slot) {
    EXPECT_GE(labeled_counter("worker.periods", slot), 1u) << "slot " << slot;
    EXPECT_GE(labeled_counter("worker.intervals", slot), 10u) << "slot " << slot;
    EXPECT_GE(global_metrics()
                  .histogram("worker.ra_period_seconds",
                             {{"worker", std::to_string(slot)}})
                  .count(),
              1u)
        << "slot " << slot;
  }
  // Live slots ran every period; the killed slot's labeled total is the
  // dead incarnation's base plus the respawn's from-zero count — never
  // more than the period count (base folding must not double-publish).
  for (std::size_t slot = 1; slot < kRas; ++slot) {
    EXPECT_EQ(labeled_counter("worker.periods", slot), kPeriods) << "slot " << slot;
  }
  EXPECT_LE(labeled_counter("worker.periods", 0), kPeriods);

  // Origin-tagged events from every slot (each incarnation records its
  // own WorkerSpawn), and the gap marker for the killed slot.
  std::vector<std::size_t> spawns(kRas, 0);
  std::size_t gaps_slot0 = 0;
  for (const obs::Event& e : obs::global_event_log().snapshot()) {
    if (e.worker == obs::Event::kNone) continue;
    ASSERT_LT(e.worker, kRas);
    if (e.kind == obs::EventKind::WorkerSpawn) ++spawns[e.worker];
    if (e.kind == obs::EventKind::TelemetryGap && e.worker == 0) ++gaps_slot0;
  }
  for (std::size_t slot = 0; slot < kRas; ++slot) {
    EXPECT_GE(spawns[slot], 1u) << "slot " << slot;
  }
  EXPECT_GE(spawns[0], 2u) << "respawned incarnation's spawn event missing";
  EXPECT_GE(gaps_slot0, 1u);

  // Fleet-wide span aggregates reached the supervisor's tracer.
  bool ra_period_span_seen = false;
  for (const SpanPeriodStats& s : global_tracer().export_period_stats()) {
    if (s.path == "worker.ra_period" && s.stats.count > 0) ra_period_span_seen = true;
  }
  EXPECT_TRUE(ra_period_span_seen);

  // /fleet.json reflects the restart count the chaos caused.
  const std::string fleet = obs::fleet_status_json();
  EXPECT_NE(fleet.find("\"total\": 4"), std::string::npos) << fleet;
  EXPECT_NE(fleet.find("\"restarts\": " + std::to_string(run.restarts_slot0)),
            std::string::npos)
      << fleet;
}

TEST_F(FleetTelemetryTest, PlannedKillFirstReceivesWhatTheWorkerAlreadySent) {
  // The race behind a lost telemetry pair, made to happen on every run: a
  // worker ships its TelemetrySnapshot/TelemetryEvents after the period's
  // Trace/EnvState frames, and the supervisor waits only for the latter.
  // Here no RA runs in period 0, so run_intervals waits for nothing and
  // reads no byte of the period-0 pair; period 1's planned kill then
  // fires with the pair, and the first incarnation's WorkerSpawn event in
  // it, still unread.
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  environments.push_back(make_env(Rng(41)));
  core::TaroPolicy policy;
  SupervisorConfig config;
  config.workers = 1;
  config.telemetry_every = 1;
  WorkerSupervisor supervisor({environments[0].get()}, {&policy}, config);
  supervisor.start();

  std::vector<core::RaPeriodDirective> directives(1);
  directives[0].run = false;
  supervisor.run_intervals(0, directives);
  const pid_t first = supervisor.worker_pid(0);
  directives[0].fault = ProcessFaultKind::Kill;
  supervisor.run_intervals(1, directives);
  ASSERT_EQ(supervisor.restart_count(0), 1u);
  ASSERT_NE(supervisor.worker_pid(0), first);

  bool first_spawn_imported = false;
  for (const obs::Event& e : obs::global_event_log().snapshot()) {
    if (e.kind == obs::EventKind::WorkerSpawn && e.worker == 0 &&
        e.value == static_cast<double>(first)) {
      first_spawn_imported = true;
    }
  }
  EXPECT_TRUE(first_spawn_imported)
      << "the killed incarnation's period-0 telemetry was dropped with its socket";
  EXPECT_GE(labeled_counter("worker.periods", 0), 1u);
  supervisor.stop();
}

TEST_F(FleetTelemetryTest, CleanShutdownFinalFlushDeliversACoarseCadence) {
  // A cadence longer than the run: nothing ships period-by-period, so
  // everything rides the Shutdown final flush — which stop() must wait
  // for before tearing the workers down, without counting the clean
  // exits as deaths or leaving gap markers.
  const SystemRun run = run_system(23, 2, /*telemetry_every=*/1000, nullptr);
  EXPECT_EQ(run.restarts_slot0, 0u);
  EXPECT_EQ(labeled_counter("worker.periods", 0), kPeriods);
  EXPECT_EQ(labeled_counter("worker.periods", 1), kPeriods);
  EXPECT_EQ(global_metrics().counter("ipc.worker_deaths").value(), 0u);
  for (const obs::Event& e : obs::global_event_log().snapshot()) {
    EXPECT_NE(e.kind, obs::EventKind::TelemetryGap);
    EXPECT_NE(e.kind, obs::EventKind::WorkerExit);
  }
}

TEST_F(FleetTelemetryTest, CadenceZeroShipsNothing) {
  run_system(29, 2, /*telemetry_every=*/0, nullptr);
  for (const std::string& name : global_metrics().counter_names()) {
    EXPECT_EQ(name.find("worker=\""), std::string::npos) << name;
  }
  for (const obs::Event& e : obs::global_event_log().snapshot()) {
    EXPECT_EQ(e.worker, obs::Event::kNone);
  }
}

}  // namespace
}  // namespace edgeslice::ipc
