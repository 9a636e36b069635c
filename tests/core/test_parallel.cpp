// Determinism of the parallel execution paths (ctest label: parallel).
//
// The contract under test: with equal seeds, training a fleet of agents
// through core::train_agents and running EdgeSliceSystem::run_period are
// bit-identical whether executed sequentially or on a thread pool —
// per-job/per-RA Rng streams plus index-ordered reduction make worker
// interleaving unobservable. These tests also run under TSan
// (cmake --preset tsan && ctest --preset tsan) to prove the paths are
// data-race-free, not merely deterministic by luck.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "core/policies.h"
#include "core/system.h"
#include "core/training.h"
#include "env/service_model.h"
#include "rl/ddpg.h"
#include "rl/frozen.h"

namespace edgeslice::core {
namespace {

std::shared_ptr<const env::ServiceModel> make_model() {
  return std::make_shared<env::DirectServiceModel>(env::prototype_capacity());
}

std::unique_ptr<env::RaEnvironment> make_env(Rng rng) {
  env::RaEnvironmentConfig config;  // 2 slices, T = 10
  return std::make_unique<env::RaEnvironment>(
      config,
      std::vector<env::AppProfile>{env::slice1_profile(), env::slice2_profile()},
      make_model(), env::make_queue_power_perf(), rng);
}

// ---- train_agents: sequential == pooled, bit for bit ----------------------

struct FleetRun {
  std::vector<TrainingResult> results;
  std::vector<std::vector<double>> final_params;
};

FleetRun run_fleet(std::uint64_t seed, std::size_t agents, std::size_t threads) {
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<rl::Ddpg>> ddpgs;
  std::vector<TrainingJob> jobs;
  const Rng parent(seed);
  for (std::size_t j = 0; j < agents; ++j) {
    environments.push_back(make_env(parent.spawn(100 + j)));
    rl::DdpgConfig config;
    config.base.state_dim = environments[j]->state_dim();
    config.base.action_dim = environments[j]->action_dim();
    config.base.hidden = 24;
    config.batch_size = 32;
    config.warmup = 64;
    Rng agent_rng = parent.spawn(200 + j);
    ddpgs.push_back(std::make_unique<rl::Ddpg>(config, agent_rng));

    TrainingJob job;
    job.agent = ddpgs[j].get();
    job.environment = environments[j].get();
    job.config.steps = 400;
    job.config.validation_every = 150;
    job.config.validation_intervals = 20;
    job.config.randomize_traffic = true;  // exercises the pinned validation
    job.rng = parent.spawn(300 + j);
    jobs.push_back(std::move(job));
  }

  FleetRun out;
  if (threads <= 1) {
    out.results = train_agents(jobs, nullptr);
  } else {
    ThreadPool pool(threads);
    out.results = train_agents(jobs, &pool);
  }
  for (const auto& agent : ddpgs) {
    out.final_params.push_back(agent->policy_network()->flat_parameters());
  }
  return out;
}

TEST(ParallelDeterminism, TrainAgentsBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {11u, 12u}) {
    const FleetRun sequential = run_fleet(seed, 4, 1);
    const FleetRun pooled = run_fleet(seed, 4, 4);
    ASSERT_EQ(sequential.results.size(), pooled.results.size());
    for (std::size_t j = 0; j < sequential.results.size(); ++j) {
      const auto& a = sequential.results[j];
      const auto& b = pooled.results[j];
      EXPECT_EQ(a.reward_history, b.reward_history) << "seed " << seed << " agent " << j;
      EXPECT_EQ(a.validation_history, b.validation_history);
      EXPECT_EQ(a.best_validation_score, b.best_validation_score);
      EXPECT_EQ(a.final_mean_reward, b.final_mean_reward);
      EXPECT_EQ(sequential.final_params[j], pooled.final_params[j]);
    }
  }
}

TEST(ParallelDeterminism, TrainAgentsRejectsSharedAgentOrEnvironment) {
  auto environment_a = make_env(Rng(1));
  auto environment_b = make_env(Rng(2));
  rl::DdpgConfig config;
  config.base.state_dim = environment_a->state_dim();
  config.base.action_dim = environment_a->action_dim();
  Rng rng(3);
  rl::Ddpg agent(config, rng);
  std::vector<TrainingJob> shared_agent(2);
  shared_agent[0].agent = shared_agent[1].agent = &agent;
  shared_agent[0].environment = environment_a.get();
  shared_agent[1].environment = environment_b.get();
  EXPECT_THROW(train_agents(shared_agent), std::invalid_argument);

  std::vector<TrainingJob> null_env(1);
  null_env[0].agent = &agent;
  EXPECT_THROW(train_agents(null_env), std::invalid_argument);
}

// ---- run_period: sequential == pooled, bit for bit ------------------------

struct SystemRun {
  std::vector<PeriodResult> periods;
  std::vector<double> series;
  std::vector<IntervalRecord> records;
};

using PolicyFactory = std::function<std::unique_ptr<RaPolicy>(std::size_t ra)>;

SystemRun run_system(std::uint64_t seed, std::size_t threads, const FaultInjector* faults,
                     std::size_t ras, const PolicyFactory& make_policy) {
  const Rng parent(seed);
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<RaPolicy>> policies;
  std::vector<env::RaEnvironment*> env_ptrs;
  std::vector<RaPolicy*> policy_ptrs;
  for (std::size_t j = 0; j < ras; ++j) {
    environments.push_back(make_env(parent.spawn(500 + j)));
    policies.push_back(make_policy(j));
    env_ptrs.push_back(environments.back().get());
    policy_ptrs.push_back(policies.back().get());
  }
  CoordinatorConfig coordinator;
  coordinator.slices = 2;
  coordinator.ras = ras;
  SystemConfig config;
  config.faults = faults;
  ThreadPool pool(threads);
  config.pool = threads > 1 ? &pool : nullptr;
  EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator, config);

  SystemRun out;
  out.periods = system.run(4);
  out.series = system.monitor().system_performance_series();
  out.records = system.monitor().records();
  return out;
}

/// Four RAs, all TARO or all deciding through one shared `agent`.
SystemRun run_system(std::uint64_t seed, std::size_t threads,
                     const FaultInjector* faults, std::shared_ptr<rl::Agent> agent) {
  return run_system(seed, threads, faults, 4,
                    [&](std::size_t) -> std::unique_ptr<RaPolicy> {
                      if (agent) return std::make_unique<LearnedPolicy>(agent, false);
                      return std::make_unique<TaroPolicy>();
                    });
}

void expect_identical(const SystemRun& a, const SystemRun& b) {
  ASSERT_EQ(a.periods.size(), b.periods.size());
  for (std::size_t p = 0; p < a.periods.size(); ++p) {
    EXPECT_EQ(a.periods[p].performance_sums.data(), b.periods[p].performance_sums.data());
    EXPECT_EQ(a.periods[p].slice_performance, b.periods[p].slice_performance);
    EXPECT_EQ(a.periods[p].system_performance, b.periods[p].system_performance);
    EXPECT_EQ(a.periods[p].crashed_ras, b.periods[p].crashed_ras);
    EXPECT_EQ(a.periods[p].reports_fresh, b.periods[p].reports_fresh);
    EXPECT_EQ(a.periods[p].columns_frozen, b.periods[p].columns_frozen);
    EXPECT_EQ(a.periods[p].rcl_losses, b.periods[p].rcl_losses);
  }
  EXPECT_EQ(a.series, b.series);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t r = 0; r < a.records.size(); ++r) {
    EXPECT_EQ(a.records[r].period, b.records[r].period);
    EXPECT_EQ(a.records[r].interval, b.records[r].interval);
    EXPECT_EQ(a.records[r].ra, b.records[r].ra);
    EXPECT_EQ(a.records[r].performance, b.records[r].performance);
    EXPECT_EQ(a.records[r].action, b.records[r].action);
    EXPECT_EQ(a.records[r].reward, b.records[r].reward);
  }
}

TEST(ParallelDeterminism, RunPeriodBitIdenticalWithTaroPolicies) {
  for (const std::uint64_t seed : {21u, 22u}) {
    expect_identical(run_system(seed, 1, nullptr, nullptr),
                     run_system(seed, 4, nullptr, nullptr));
  }
}

TEST(ParallelDeterminism, RunPeriodBitIdenticalWithSharedFrozenActor) {
  Rng rng(31);
  // A shared deployment actor: act() is const inference, so concurrent
  // per-RA use is race-free (the case the benches run).
  nn::Mlp actor({4, 24, 6}, nn::Activation::LeakyRelu, nn::Activation::Sigmoid, rng);
  const auto agent = std::make_shared<rl::FrozenActor>(actor);
  for (const std::uint64_t seed : {21u, 22u}) {
    expect_identical(run_system(seed, 1, nullptr, agent),
                     run_system(seed, 4, nullptr, agent));
  }
}

FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.seed = 5;
  plan.rates.ra_crash = 0.2;
  plan.rates.rcm_drop = 0.2;
  plan.rates.rcm_delay = 0.2;
  plan.rates.rcl_drop = 0.2;
  plan.rates.cqi_blackout = 0.1;
  plan.rates.compute_slowdown = 0.15;
  return plan;
}

TEST(ParallelDeterminism, RunPeriodBitIdenticalUnderFaults) {
  // PR 1's chaos-reproducibility guarantee must survive the pool: the
  // same fault plan yields the same degraded-mode run at any thread count.
  const FaultInjector faults(chaos_plan());
  expect_identical(run_system(23, 1, &faults, nullptr),
                   run_system(23, 4, &faults, nullptr));
}

TEST(ParallelDeterminism, RunPeriodBitIdenticalWithMixedPoliciesOnUnevenRanges) {
  // Seven RAs split into uneven contiguous task ranges: even RAs share one
  // frozen actor (batched per task), odd RAs run TARO (decided per RA),
  // and crashes change each task's batch membership from period to period.
  Rng rng(37);
  nn::Mlp actor({4, 24, 6}, nn::Activation::LeakyRelu, nn::Activation::Sigmoid, rng);
  const auto agent = std::make_shared<rl::FrozenActor>(actor);
  const PolicyFactory mixed = [&](std::size_t ra) -> std::unique_ptr<RaPolicy> {
    if (ra % 2 == 0) return std::make_unique<LearnedPolicy>(agent, /*learn=*/false);
    return std::make_unique<TaroPolicy>();
  };
  const FaultInjector faults(chaos_plan());
  const SystemRun reference = run_system(29, 1, &faults, 7, mixed);
  std::size_t crashed = 0;
  for (const PeriodResult& period : reference.periods) crashed += period.crashed_ras;
  ASSERT_GT(crashed, 0u) << "the fault plan must crash RAs for this test to bite";
  for (const std::size_t threads : {2u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    expect_identical(reference, run_system(29, threads, &faults, 7, mixed));
  }
}

}  // namespace
}  // namespace edgeslice::core
