// Whole-system bit-identity under GEMM backend pins (ctest label: nn).
//
// The determinism contract (DESIGN.md): a pinned GEMM backend is part of
// the experiment's reproducibility statement, and under any single pin
// the run_period trajectory is byte-identical across every execution
// shape — 1/2/4 pool threads, 0/2 worker processes, batched cross-agent
// inference or per-RA decisions through core::UnbatchedPolicy. The two backends produce different (each
// internally deterministic) streams, so trajectories may differ BETWEEN
// pins — what must never differ is anything under the SAME pin.
//
// Own executable (with test_gemm): pins the process-global backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/policies.h"
#include "core/system.h"
#include "core/training.h"
#include "env/service_model.h"
#include "ipc/supervisor.h"
#include "nn/gemm.h"
#include "rl/frozen.h"

namespace edgeslice::nn {
namespace {

constexpr std::size_t kRas = 4;
constexpr std::size_t kPeriods = 3;

std::vector<GemmBackend> testable_backends() {
  std::vector<GemmBackend> backends{GemmBackend::Scalar};
  if (cpu_supports_avx2_fma()) backends.push_back(GemmBackend::Avx2);
  return backends;
}

class GemmIdentityTest : public ::testing::Test {
 protected:
  void TearDown() override { reset_gemm_backend(); }
};

std::unique_ptr<env::RaEnvironment> make_env(Rng rng) {
  env::RaEnvironmentConfig config;  // 2 slices, T = 10
  return std::make_unique<env::RaEnvironment>(
      config,
      std::vector<env::AppProfile>{env::slice1_profile(), env::slice2_profile()},
      std::make_shared<env::DirectServiceModel>(env::prototype_capacity()),
      env::make_queue_power_perf(), rng);
}

std::shared_ptr<rl::FrozenActor> make_shared_actor(std::uint64_t seed) {
  Rng rng(seed);
  const auto probe = make_env(Rng(1));
  return std::make_shared<rl::FrozenActor>(
      Mlp({probe->state_dim(), 24, 24, probe->action_dim()},
          Activation::LeakyRelu, Activation::Sigmoid, rng));
}

struct SystemRun {
  std::vector<double> series;
  std::vector<core::IntervalRecord> records;
};

/// One deployment run: every RA a LearnedPolicy over one shared frozen
/// actor (the configuration batched inference actually groups). Unbatched
/// runs wrap each policy in UnbatchedPolicy, which hides the shared network.
SystemRun run_system(std::uint64_t seed, const std::shared_ptr<rl::Agent>& agent,
                     std::size_t threads, std::size_t workers, bool batched) {
  const Rng parent(seed);
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<core::RaPolicy>> policies;
  std::vector<std::unique_ptr<core::RaPolicy>> unbatched;
  std::vector<env::RaEnvironment*> env_ptrs;
  std::vector<core::RaPolicy*> policy_ptrs;
  for (std::size_t j = 0; j < kRas; ++j) {
    environments.push_back(make_env(parent.spawn(500 + j)));
    policies.push_back(std::make_unique<core::LearnedPolicy>(agent, /*learn=*/false));
    if (!batched) {
      unbatched.push_back(std::make_unique<core::UnbatchedPolicy>(*policies.back()));
    }
    env_ptrs.push_back(environments.back().get());
    policy_ptrs.push_back(batched ? policies.back().get() : unbatched.back().get());
  }
  core::CoordinatorConfig coordinator;
  coordinator.slices = 2;
  coordinator.ras = kRas;
  core::SystemConfig config;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    config.pool = pool.get();
  }
  std::unique_ptr<ipc::WorkerSupervisor> supervisor;
  if (workers > 0) {
    ipc::SupervisorConfig sup_config;
    sup_config.workers = workers;
    supervisor =
        std::make_unique<ipc::WorkerSupervisor>(env_ptrs, policy_ptrs, sup_config);
    supervisor->start();
    config.transport = supervisor.get();
  }
  core::EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator, config);
  system.run(kPeriods);
  SystemRun out;
  out.series = system.monitor().system_performance_series();
  out.records = system.monitor().records();
  return out;
}

void expect_identical(const SystemRun& a, const SystemRun& b, const std::string& label) {
  EXPECT_EQ(a.series, b.series) << label;
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t r = 0; r < a.records.size(); ++r) {
    EXPECT_EQ(a.records[r].performance, b.records[r].performance)
        << label << " record " << r;
    EXPECT_EQ(a.records[r].action, b.records[r].action) << label << " record " << r;
    EXPECT_EQ(a.records[r].reward, b.records[r].reward) << label << " record " << r;
  }
}

TEST_F(GemmIdentityTest, TrajectoriesIdenticalAcrossThreadsUnderEachPin) {
  const auto agent = make_shared_actor(61);
  for (const GemmBackend backend : testable_backends()) {
    set_gemm_backend(backend);
    const SystemRun reference = run_system(71, agent, 1, 0, /*batched=*/true);
    for (const std::size_t threads : {2u, 4u}) {
      expect_identical(reference, run_system(71, agent, threads, 0, true),
                       std::string(gemm_backend_name(backend)) + " threads " +
                           std::to_string(threads));
    }
  }
}

TEST_F(GemmIdentityTest, TrajectoriesIdenticalAcrossWorkersUnderEachPin) {
  const auto agent = make_shared_actor(61);
  for (const GemmBackend backend : testable_backends()) {
    set_gemm_backend(backend);
    const SystemRun reference = run_system(73, agent, 1, 0, /*batched=*/true);
    expect_identical(reference, run_system(73, agent, 1, 2, true),
                     std::string(gemm_backend_name(backend)) + " workers 2");
  }
}

TEST_F(GemmIdentityTest, BatchedInferenceIsObservationNeutralUnderEachPin) {
  const auto agent = make_shared_actor(67);
  for (const GemmBackend backend : testable_backends()) {
    set_gemm_backend(backend);
    expect_identical(run_system(79, agent, 1, 0, /*batched=*/true),
                     run_system(79, agent, 1, 0, /*batched=*/false),
                     std::string(gemm_backend_name(backend)) + " batched vs not");
  }
}

/// Same forward pass as FrozenActor but with the batching contract
/// withheld: inference_actor() stays null, forcing validate_policy and
/// run_period down the per-agent act() path.
class UnbatchableActor final : public rl::Agent {
 public:
  explicit UnbatchableActor(Mlp actor) : actor_(std::move(actor)) {}
  std::vector<double> act(const std::vector<double>& state, bool) override {
    return actor_.infer_vector(state);
  }
  void observe(const std::vector<double>&, const std::vector<double>&, double,
               const std::vector<double>&, bool) override {}
  std::string name() const override { return "Unbatchable"; }
  std::size_t state_dim() const override { return actor_.in_dim(); }
  std::size_t action_dim() const override { return actor_.out_dim(); }
  std::size_t update_count() const override { return 0; }

 private:
  Mlp actor_;
};

TEST_F(GemmIdentityTest, ValidatePolicyScoresIdenticalBatchedOrNot) {
  for (const GemmBackend backend : testable_backends()) {
    set_gemm_backend(backend);
    const auto environment = make_env(Rng(83));
    Rng rng(89);
    Mlp actor({environment->state_dim(), 24, 24, environment->action_dim()},
              Activation::LeakyRelu, Activation::Sigmoid, rng);
    rl::FrozenActor frozen(actor);            // batched path in validate_policy
    UnbatchableActor unbatchable(actor);      // per-step act() path
    const double batched_score =
        core::validate_policy(frozen, *environment, 0.5, 40);
    const double unbatched_score =
        core::validate_policy(unbatchable, *environment, 0.5, 40);
    EXPECT_EQ(batched_score, unbatched_score) << gemm_backend_name(backend);
  }
}

}  // namespace
}  // namespace edgeslice::nn
