// A worker process steps its hosted RAs through the same RaStepper as an
// in-process pool task (ctest label: ipc): interval by interval, RAs in
// order within each interval. With one learning agent shared by every RA,
// the agent sees its observe() calls in that order on both planes, so
// one worker hosting all RAs must reproduce the in-process run with no
// pool bit for bit — an RA-by-RA worker loop would train the agent in a
// different order and diverge.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/policies.h"
#include "core/system.h"
#include "env/service_model.h"
#include "ipc/supervisor.h"
#include "rl/ddpg.h"

namespace edgeslice::ipc {
namespace {

constexpr std::size_t kRas = 3;
constexpr std::size_t kPeriods = 4;

struct LearningRun {
  std::vector<core::PeriodResult> periods;
  std::vector<core::IntervalRecord> records;
};

/// `workers` = 0 runs in-process without a pool; otherwise the RAs live
/// in that many worker processes. Every RA's LearnedPolicy shares one
/// exploring, learning DDPG agent, built afresh from the same seed.
LearningRun run_shared_learner(std::size_t workers) {
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<core::RaPolicy>> policies;
  std::vector<env::RaEnvironment*> env_ptrs;
  std::vector<core::RaPolicy*> policy_ptrs;
  const Rng parent(61);
  for (std::size_t j = 0; j < kRas; ++j) {
    env::RaEnvironmentConfig config;  // 2 slices, T = 10
    environments.push_back(std::make_unique<env::RaEnvironment>(
        config, std::vector<env::AppProfile>{env::slice1_profile(), env::slice2_profile()},
        std::make_shared<env::DirectServiceModel>(env::prototype_capacity()),
        env::make_queue_power_perf(), parent.spawn(700 + j)));
    env_ptrs.push_back(environments.back().get());
  }
  rl::DdpgConfig ddpg;
  ddpg.base.state_dim = environments.front()->state_dim();
  ddpg.base.action_dim = environments.front()->action_dim();
  ddpg.base.hidden = 16;
  ddpg.replay_capacity = 512;
  ddpg.batch_size = 8;
  ddpg.warmup = 16;  // learning starts inside the first period
  Rng agent_rng(62);
  const auto agent = std::make_shared<rl::Ddpg>(ddpg, agent_rng);
  for (std::size_t j = 0; j < kRas; ++j) {
    policies.push_back(std::make_unique<core::LearnedPolicy>(agent, /*learn=*/true));
    policy_ptrs.push_back(policies.back().get());
  }

  core::CoordinatorConfig coordinator;
  coordinator.slices = 2;
  coordinator.ras = kRas;
  core::SystemConfig config;
  std::unique_ptr<WorkerSupervisor> supervisor;
  if (workers > 0) {
    SupervisorConfig sup_config;
    sup_config.workers = workers;
    supervisor = std::make_unique<WorkerSupervisor>(env_ptrs, policy_ptrs, sup_config);
    supervisor->start();
    config.transport = supervisor.get();
  }
  core::EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator, config);
  LearningRun out;
  out.periods = system.run(kPeriods);
  out.records = system.monitor().records();
  return out;
}

TEST(WorkerStepping, SharedLearningAgentOnOneWorkerMatchesInProcessRun) {
  const LearningRun reference = run_shared_learner(0);
  const LearningRun worker = run_shared_learner(1);
  ASSERT_EQ(reference.periods.size(), worker.periods.size());
  for (std::size_t p = 0; p < reference.periods.size(); ++p) {
    EXPECT_EQ(reference.periods[p].performance_sums.data(),
              worker.periods[p].performance_sums.data())
        << "period " << p;
    EXPECT_EQ(reference.periods[p].system_performance, worker.periods[p].system_performance)
        << "period " << p;
    EXPECT_EQ(worker.periods[p].crashed_ras, 0u) << "period " << p;
  }
  ASSERT_EQ(reference.records.size(), kRas * kPeriods * 10);
  ASSERT_EQ(reference.records.size(), worker.records.size());
  for (std::size_t r = 0; r < reference.records.size(); ++r) {
    EXPECT_EQ(reference.records[r].ra, worker.records[r].ra) << "record " << r;
    EXPECT_EQ(reference.records[r].action, worker.records[r].action) << "record " << r;
    EXPECT_EQ(reference.records[r].performance, worker.records[r].performance)
        << "record " << r;
    EXPECT_EQ(reference.records[r].reward, worker.records[r].reward) << "record " << r;
  }
}

}  // namespace
}  // namespace edgeslice::ipc
