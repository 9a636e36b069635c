// Bit-identity of the multi-process control plane (ctest label: ipc).
//
// The acceptance contract: run_period trajectories are byte-identical
// whether the RAs live in this process (workers = 0) or in 1, 2 or 4
// supervised worker processes behind the ESFR wire protocol — across
// seeds, policies, and a fault plan that physically SIGKILLs a worker
// and half-closes a socket mid-run. Traces cross the wire as exact
// IEEE-754 bit patterns and the (t, j)-ordered reduction is unchanged,
// so every float must match with ==, not with a tolerance. Checkpoints
// taken through the transport (Environment sections rebuilt from the
// supervisor's cached EnvState blob + coordination vector) must be
// byte-identical to in-process ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/policies.h"
#include "core/system.h"
#include "env/service_model.h"
#include "ipc/supervisor.h"
#include "rl/frozen.h"

namespace edgeslice::ipc {
namespace {

constexpr std::size_t kRas = 4;
constexpr std::size_t kPeriods = 4;

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
  std::string checkpoint_bytes;
};

/// One full evaluation run at `workers` worker processes (0 = in-process,
/// the reference). When `checkpoint_path` is set, a checkpoint is saved
/// after the last period and its bytes returned for comparison.
SystemRun run_system(std::uint64_t seed, std::size_t workers,
                     const FaultInjector* faults, std::shared_ptr<rl::Agent> agent,
                     const std::string& checkpoint_path = "") {
  const Rng parent(seed);
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<core::RaPolicy>> policies;
  std::vector<env::RaEnvironment*> env_ptrs;
  std::vector<core::RaPolicy*> policy_ptrs;
  for (std::size_t j = 0; j < kRas; ++j) {
    environments.push_back(make_env(parent.spawn(500 + j)));
    if (agent) {
      policies.push_back(std::make_unique<core::LearnedPolicy>(agent, /*learn=*/false));
    } else {
      policies.push_back(std::make_unique<core::TaroPolicy>());
    }
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
    supervisor = std::make_unique<WorkerSupervisor>(env_ptrs, policy_ptrs, sup_config);
    supervisor->start();
    config.transport = supervisor.get();
  }
  core::EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator, config);

  SystemRun out;
  out.periods = system.run(kPeriods);
  out.series = system.monitor().system_performance_series();
  out.records = system.monitor().records();
  if (!checkpoint_path.empty()) {
    EXPECT_TRUE(system.save_checkpoint(checkpoint_path));
    std::ifstream in(checkpoint_path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    out.checkpoint_bytes = bytes.str();
  }
  return out;
}

void expect_identical(const SystemRun& a, const SystemRun& b, const char* label) {
  ASSERT_EQ(a.periods.size(), b.periods.size()) << label;
  for (std::size_t p = 0; p < a.periods.size(); ++p) {
    EXPECT_EQ(a.periods[p].performance_sums.data(), b.periods[p].performance_sums.data())
        << label << " period " << p;
    EXPECT_EQ(a.periods[p].slice_performance, b.periods[p].slice_performance);
    EXPECT_EQ(a.periods[p].system_performance, b.periods[p].system_performance);
    EXPECT_EQ(a.periods[p].crashed_ras, b.periods[p].crashed_ras);
    EXPECT_EQ(a.periods[p].reports_fresh, b.periods[p].reports_fresh);
    EXPECT_EQ(a.periods[p].reports_carried, b.periods[p].reports_carried);
    EXPECT_EQ(a.periods[p].columns_frozen, b.periods[p].columns_frozen);
    EXPECT_EQ(a.periods[p].rcl_losses, b.periods[p].rcl_losses);
  }
  EXPECT_EQ(a.series, b.series) << label;
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t r = 0; r < a.records.size(); ++r) {
    EXPECT_EQ(a.records[r].period, b.records[r].period) << label << " record " << r;
    EXPECT_EQ(a.records[r].interval, b.records[r].interval);
    EXPECT_EQ(a.records[r].ra, b.records[r].ra);
    EXPECT_EQ(a.records[r].performance, b.records[r].performance);
    EXPECT_EQ(a.records[r].action, b.records[r].action);
    EXPECT_EQ(a.records[r].reward, b.records[r].reward);
  }
}

TEST(IpcIdentity, TrajectoriesIdenticalAcrossWorkerCountsWithTaro) {
  for (const std::uint64_t seed : {21u, 22u}) {
    const SystemRun reference = run_system(seed, 0, nullptr, nullptr);
    for (const std::size_t workers : {1u, 2u, 4u}) {
      const SystemRun run = run_system(seed, workers, nullptr, nullptr);
      expect_identical(reference, run,
                       ("taro seed " + std::to_string(seed) + " workers " +
                        std::to_string(workers))
                           .c_str());
    }
  }
}

TEST(IpcIdentity, TrajectoriesIdenticalWithSharedFrozenActor) {
  Rng rng(31);
  nn::Mlp actor({4, 24, 6}, nn::Activation::LeakyRelu, nn::Activation::Sigmoid, rng);
  const auto agent = std::make_shared<rl::FrozenActor>(actor);
  for (const std::uint64_t seed : {21u, 22u}) {
    const SystemRun reference = run_system(seed, 0, nullptr, agent);
    for (const std::size_t workers : {2u, 4u}) {
      expect_identical(reference, run_system(seed, workers, nullptr, agent),
                       "frozen actor");
    }
  }
}

TEST(IpcIdentity, TrajectoriesIdenticalUnderWorkerKillAndSocketDropChaos) {
  // The plan SIGKILLs RA 0's worker at period 1 (down 2 periods) and
  // half-closes RA 3's socket at period 2, on top of probabilistic
  // message loss. With workers these are physical process faults restored
  // by the supervisor; without workers they fold into the same
  // ra_crashed() windows — the trajectories must not differ by one bit.
  FaultPlan plan;
  plan.seed = 7;
  plan.events.push_back(FaultEvent{FaultType::WorkerKill, 1, 0, 2, 1.0});
  plan.events.push_back(FaultEvent{FaultType::SocketDrop, 2, kRas - 1, 1, 1.0});
  plan.rates.rcm_drop = 0.2;
  plan.rates.rcl_drop = 0.2;
  const FaultInjector faults(plan);
  for (const std::uint64_t seed : {5u, 6u}) {
    const SystemRun reference = run_system(seed, 0, &faults, nullptr);
    bool crashed_periods_seen = false;
    for (const auto& period : reference.periods) {
      if (period.crashed_ras > 0) crashed_periods_seen = true;
    }
    EXPECT_TRUE(crashed_periods_seen) << "plan did not fire; test is vacuous";
    for (const std::size_t workers : {1u, 2u, 4u}) {
      expect_identical(reference, run_system(seed, workers, &faults, nullptr),
                       ("chaos workers " + std::to_string(workers)).c_str());
    }
  }
}

TEST(IpcIdentity, CheckpointsByteIdenticalAcrossWorkerCounts) {
  const auto temp = [](const char* name) {
    return (std::filesystem::temp_directory_path() / name).string();
  };
  const std::string path_w0 = temp("esfr_identity_w0.ckpt");
  const std::string path_w2 = temp("esfr_identity_w2.ckpt");
  std::filesystem::remove(path_w0);
  std::filesystem::remove(path_w2);
  // Checkpoints through the transport assemble Environment sections from
  // the supervisor's cached blobs; the container must come out
  // byte-for-byte equal to the in-process one (same kCkptFormatVersion,
  // same section bytes).
  const SystemRun a = run_system(42, 0, nullptr, nullptr, path_w0);
  const SystemRun b = run_system(42, 2, nullptr, nullptr, path_w2);
  ASSERT_FALSE(a.checkpoint_bytes.empty());
  EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes);
  std::filesystem::remove(path_w0);
  std::filesystem::remove(path_w2);
}

/// make_env without the coordination clamp. The clamp maps every vector
/// these small runs deliver (all positive) to zero, and a checkpoint test
/// must see the vectors change from period to period.
std::unique_ptr<env::RaEnvironment> make_unclamped_env(Rng rng) {
  env::RaEnvironmentConfig config;
  config.coordination_clip = 0.0;
  return std::make_unique<env::RaEnvironment>(
      config,
      std::vector<env::AppProfile>{env::slice1_profile(), env::slice2_profile()},
      std::make_shared<env::DirectServiceModel>(env::prototype_capacity()),
      env::make_queue_power_perf(), rng);
}

/// The checkpoint image after every period of a `periods`-period run at
/// `workers` worker processes (0 = in-process, the reference).
std::vector<std::string> checkpoint_every_period(std::uint64_t seed, std::size_t workers,
                                                 const FaultInjector& faults,
                                                 std::size_t periods) {
  const Rng parent(seed);
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<core::RaPolicy>> policies;
  std::vector<env::RaEnvironment*> env_ptrs;
  std::vector<core::RaPolicy*> policy_ptrs;
  for (std::size_t j = 0; j < kRas; ++j) {
    environments.push_back(make_unclamped_env(parent.spawn(500 + j)));
    policies.push_back(std::make_unique<core::TaroPolicy>());
    env_ptrs.push_back(environments.back().get());
    policy_ptrs.push_back(policies.back().get());
  }
  core::CoordinatorConfig coordinator;
  coordinator.slices = 2;
  coordinator.ras = kRas;
  core::SystemConfig config;
  config.faults = &faults;
  std::unique_ptr<WorkerSupervisor> supervisor;
  if (workers > 0) {
    SupervisorConfig sup_config;
    sup_config.workers = workers;
    supervisor = std::make_unique<WorkerSupervisor>(env_ptrs, policy_ptrs, sup_config);
    supervisor->start();
    config.transport = supervisor.get();
  }
  core::EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator, config);

  const std::string path = (std::filesystem::temp_directory_path() /
                            ("esfr_chaos_w" + std::to_string(workers) + ".ckpt"))
                               .string();
  std::vector<std::string> images;
  for (std::size_t p = 0; p < periods; ++p) {
    system.run_period();
    EXPECT_TRUE(system.save_checkpoint(path));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    images.push_back(bytes.str());
  }
  std::filesystem::remove(path);
  return images;
}

TEST(IpcIdentity, CheckpointsByteIdenticalUnderChaos) {
  // Checkpoints through the transport rebuild each Environment section
  // from the supervisor's cache (last EnvState blob + last delivered
  // coordination). The plan drives that cache through the paths where it
  // could drift from a worker's real state: RA 0's worker is SIGKILLed at
  // period 1 (down 2 periods), RA 3's socket is half-closed at period 2,
  // RA 1 is crashed at period 2 (run = false: its cached blob is one
  // period old while the other RAs' coordinations keep arriving), RA 2
  // runs derated, and RC-M/RC-L messages are dropped at random, so some
  // RAs keep an older vector than their blob's period.
  FaultPlan plan;
  plan.seed = 11;
  plan.events.push_back(FaultEvent{FaultType::WorkerKill, 1, 0, 2, 1.0});
  plan.events.push_back(FaultEvent{FaultType::SocketDrop, 2, kRas - 1, 1, 1.0});
  plan.events.push_back(FaultEvent{FaultType::RaCrash, 2, 1, 1, 1.0});
  plan.events.push_back(FaultEvent{FaultType::ComputeSlowdown, 1, 2, 2, 2.0});
  plan.rates.rcm_drop = 0.2;
  plan.rates.rcl_drop = 0.3;
  const FaultInjector faults(plan);
  constexpr std::size_t kChaosPeriods = 5;
  const std::vector<std::string> reference =
      checkpoint_every_period(9, 0, faults, kChaosPeriods);
  ASSERT_EQ(reference.size(), kChaosPeriods);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const std::vector<std::string> images =
        checkpoint_every_period(9, workers, faults, kChaosPeriods);
    ASSERT_EQ(images.size(), kChaosPeriods);
    for (std::size_t p = 0; p < kChaosPeriods; ++p) {
      ASSERT_FALSE(reference[p].empty());
      EXPECT_TRUE(images[p] == reference[p])
          << "workers " << workers << " checkpoint after period " << p;
    }
  }
}

}  // namespace
}  // namespace edgeslice::ipc
