// Fig. 10 — Impact of the training regime (trace-driven simulation).
//
// (a) System performance vs the number of training steps. The paper sweeps
//     {1e5, 5e5, 1e6, 1.5e6}; at CPU scale the sweep uses proportionally
//     reduced stand-ins {1/8, 1/4, 1/2, 1} of --steps (default 12000). The
//     shape claim: an under-trained agent is *worse than TARO*; more
//     training monotonically helps.
// (b) System performance for the five training techniques (DDPG, SAC, PPO,
//     TRPO, VPG) at equal step budget. The paper: DDPG best.
//
// With --threads N (or EDGESLICE_THREADS) the independent trainings of
// each part fan out across a deterministic thread pool; results are
// bit-identical to --threads 1. The run also writes BENCH_training.json:
//   - sequential vs parallel training wall-clock and speedup, with the
//     timed thread count clamped to the hardware (an oversubscribed
//     request is recorded as such, not timed as a fake slowdown);
//   - kernel-only matmul GFLOP/s per GEMM backend (pre-allocated output,
//     untimed warm-up rep — the kernel, not allocation, is measured);
//   - deployment inference steps/second with cross-agent batched
//     inference on vs off, plus the bit-identity of the two trajectories.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

#include "common.h"
#include "common/json.h"
#include "env/service_model.h"
#include "nn/gemm.h"
#include "rl/frozen.h"

using namespace edgeslice;
using namespace edgeslice::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct TimingJob {
  std::unique_ptr<env::RaEnvironment> environment;
  std::unique_ptr<rl::Ddpg> agent;
};

/// A fresh fleet of small training jobs (no disk cache involved), built
/// identically per call so sequential and pooled runs are comparable.
std::vector<TimingJob> make_timing_fleet(std::size_t jobs, std::uint64_t seed) {
  const auto model =
      std::make_shared<env::DirectServiceModel>(env::prototype_capacity());
  const Rng parent(seed);
  std::vector<TimingJob> fleet(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    env::RaEnvironmentConfig config;  // 2 slices, T = 10
    fleet[i].environment = std::make_unique<env::RaEnvironment>(
        config,
        std::vector<env::AppProfile>{env::slice1_profile(), env::slice2_profile()},
        model, env::make_queue_power_perf(), parent.spawn(10 + i));
    rl::DdpgConfig ddpg;
    ddpg.base.state_dim = fleet[i].environment->state_dim();
    ddpg.base.action_dim = fleet[i].environment->action_dim();
    ddpg.base.hidden = 64;
    ddpg.batch_size = 64;
    ddpg.warmup = 128;
    Rng agent_rng = parent.spawn(20 + i);
    fleet[i].agent = std::make_unique<rl::Ddpg>(ddpg, agent_rng);
  }
  return fleet;
}

struct TimedBatch {
  double seconds = 0.0;
  std::vector<core::TrainingResult> results;
};

TimedBatch time_training_batch(std::size_t jobs, std::size_t steps,
                               std::uint64_t seed, ThreadPool* pool) {
  auto fleet = make_timing_fleet(jobs, seed);
  const Rng parent(seed);
  std::vector<core::TrainingJob> batch(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    batch[i].agent = fleet[i].agent.get();
    batch[i].environment = fleet[i].environment.get();
    batch[i].config.steps = steps;
    batch[i].rng = parent.spawn(30 + i);
  }
  TimedBatch out;
  const auto start = Clock::now();
  out.results = core::train_agents(batch, pool);
  out.seconds = seconds_since(start);
  return out;
}

/// Kernel-only matmul throughput of one GEMM backend (the training hot
/// path). The output is pre-allocated and the first rep is an untimed
/// warm-up, so the number measures the kernel — the historic version
/// timed a fresh allocation + zero-fill and a cold first rep in every
/// sample. Restores nothing: the caller re-pins the backend afterwards.
double measure_matmul_gflops(nn::GemmBackend backend) {
  Rng rng(1);
  nn::Matrix a(256, 256);
  nn::Matrix b(256, 256);
  for (auto& v : a.data()) v = rng.normal();
  for (auto& v : b.data()) v = rng.normal();
  nn::set_gemm_backend(backend);
  nn::Matrix out;
  a.matmul_into(b, out);  // warm-up: allocates out, faults pages, warms caches
  constexpr int kReps = 40;
  double sink = out(0, 0);
  const auto start = Clock::now();
  for (int r = 0; r < kReps; ++r) {
    a.matmul_into(b, out);
    sink += out(0, 0);
  }
  const double elapsed = seconds_since(start);
  // Keep the accumulator observable so the loop cannot be elided.
  std::fprintf(stderr, "[bench] matmul sink (%s) %.3e\n",
               nn::gemm_backend_name(backend), sink);
  const double flops = 2.0 * 256.0 * 256.0 * 256.0 * kReps;
  return flops / elapsed / 1e9;
}

struct InferenceTiming {
  double seconds = 0.0;
  double steps_per_second = 0.0;  // RA-intervals per second
  std::vector<double> period_performance;  // identity probe
};

/// Time a deployment-shaped run — every RA a LearnedPolicy over one
/// shared frozen actor, exactly how run_contender deploys — with
/// cross-agent batched inference on or off (off wraps each policy in
/// core::UnbatchedPolicy). The two trajectories must be
/// bit-identical; only the wall clock may differ. Inference cost does not
/// depend on the weights, so a fresh (untrained) actor of the deployed
/// architecture keeps the measurement cheap.
InferenceTiming time_deployment(const Setup& setup, bool batched,
                                std::size_t periods) {
  Rng rng(setup.seed);
  const auto profiles = make_profiles(setup.slices, rng);
  const auto model = make_service_model(profiles);
  auto environments = make_environments(setup, profiles, model,
                                        /*traffic_in_state=*/true);
  Rng actor_rng = Rng(setup.seed).spawn(99);
  const auto agent = std::make_shared<rl::FrozenActor>(
      nn::Mlp({environments.front()->state_dim(), 128, 128,
               environments.front()->action_dim()},
              nn::Activation::LeakyRelu, nn::Activation::Sigmoid, actor_rng));
  std::vector<std::unique_ptr<core::RaPolicy>> policies;
  std::vector<std::unique_ptr<core::RaPolicy>> unbatched;
  for (std::size_t j = 0; j < setup.ras; ++j) {
    policies.push_back(std::make_unique<core::LearnedPolicy>(agent, /*learn=*/false));
    if (!batched) {
      unbatched.push_back(std::make_unique<core::UnbatchedPolicy>(*policies.back()));
    }
  }
  core::CoordinatorConfig coordinator;
  coordinator.slices = setup.slices;
  coordinator.ras = setup.ras;
  std::vector<env::RaEnvironment*> env_ptrs;
  std::vector<core::RaPolicy*> policy_ptrs;
  for (auto& e : environments) env_ptrs.push_back(e.get());
  for (auto& p : batched ? policies : unbatched) policy_ptrs.push_back(p.get());
  core::EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator, {});

  InferenceTiming out;
  out.period_performance.reserve(periods);
  const auto start = Clock::now();
  for (std::size_t p = 0; p < periods; ++p) {
    out.period_performance.push_back(system.run_period().system_performance);
  }
  out.seconds = seconds_since(start);
  const double steps =
      static_cast<double>(setup.ras * setup.intervals_per_period * periods);
  out.steps_per_second = out.seconds > 0.0 ? steps / out.seconds : 0.0;
  return out;
}

/// Every field BENCH_training.json carries, in emission order. The docs
/// check (tests/docs_check.cmake) pins each name to FORMATS.md, and
/// BenchReport::write refuses a document that does not match it exactly.
constexpr const char* kTrainingBenchFields[] = {
    "threads",
    "threads_timed",
    "oversubscribed",
    "hardware_threads",
    "timing_jobs",
    "timing_steps_per_job",
    "sequential_seconds",
    "parallel_seconds",
    "speedup",
    "bit_identical",
    "gemm_backend",
    "matmul_gflops",
    "matmul_gflops_scalar",
    "matmul_gflops_avx2",
    "inference_steps_per_second_batched",
    "inference_steps_per_second_unbatched",
    "inference_batched_speedup",
    "inference_bit_identical",
};

/// numerator / denominator, or 0 when the denominator is not positive.
double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Setup base = parse_common_flags(argc, argv, simulation_setup());
  ThreadPool pool(base.threads);
  base.pool = base.threads > 1 ? &pool : nullptr;
  Rng rng(base.seed);

  print_header("Fig. 10: training techniques", "Fig. 10");

  // ---- training-throughput measurement (BENCH_training.json) --------------
  // A small fresh fleet (no disk cache) trained twice: sequentially, then
  // on a pool. The two runs must agree bit for bit; the wall-clock ratio
  // is the training speedup on this machine. The timed pool is clamped to
  // the hardware thread count: timing 4 software threads on a 1-core box
  // measures scheduler churn, not parallel speedup, and used to publish
  // nonsense like "speedup": 0.95. The requested count is still recorded,
  // with oversubscribed = true flagging the clamp.
  {
    BenchReport report(kTrainingBenchFields);
    const std::size_t threads_timed =
        std::min(base.threads, std::max<std::size_t>(ThreadPool::hardware_threads(), 1));
    if (base.threads > threads_timed) {
      std::fprintf(stderr,
                   "[bench] %zu threads requested on %zu hardware threads; "
                   "timing with %zu (oversubscribed)\n",
                   base.threads, ThreadPool::hardware_threads(), threads_timed);
    }
    const std::size_t timing_jobs = 4;
    const std::size_t timing_steps = std::min<std::size_t>(base.train_steps, 2000);
    report.number("threads", base.threads);
    report.number("threads_timed", threads_timed);
    report.flag("oversubscribed", base.threads > threads_timed);
    report.number("hardware_threads", ThreadPool::hardware_threads());
    report.number("timing_jobs", timing_jobs);
    report.number("timing_steps_per_job", timing_steps);
    std::fprintf(stderr, "[bench] timing %zu training jobs x %zu steps ...\n",
                 timing_jobs, timing_steps);
    std::optional<ThreadPool> timing_pool;
    if (threads_timed > 1) timing_pool.emplace(threads_timed);
    const TimedBatch sequential =
        time_training_batch(timing_jobs, timing_steps, base.seed, nullptr);
    const TimedBatch parallel = time_training_batch(
        timing_jobs, timing_steps, base.seed, timing_pool ? &*timing_pool : nullptr);
    bool bit_identical = sequential.results.size() == parallel.results.size();
    for (std::size_t i = 0; bit_identical && i < sequential.results.size(); ++i) {
      bit_identical = sequential.results[i].reward_history ==
                          parallel.results[i].reward_history &&
                      sequential.results[i].final_mean_reward ==
                          parallel.results[i].final_mean_reward;
    }
    const double speedup = ratio(sequential.seconds, parallel.seconds);
    report.number("sequential_seconds", sequential.seconds);
    report.number("parallel_seconds", parallel.seconds);
    report.number("speedup", speedup);
    report.flag("bit_identical", bit_identical);

    // Kernel-only GFLOP/s for every backend this CPU can run, then
    // restore the run's backend for everything that follows.
    const nn::GemmBackend active = nn::active_gemm_backend();
    const double gflops_scalar = measure_matmul_gflops(nn::GemmBackend::Scalar);
    const double gflops_avx2 = nn::cpu_supports_avx2_fma()
                                   ? measure_matmul_gflops(nn::GemmBackend::Avx2)
                                   : 0.0;
    nn::set_gemm_backend(active);
    const double gflops = active == nn::GemmBackend::Avx2 ? gflops_avx2 : gflops_scalar;
    report.text("gemm_backend", nn::gemm_backend_name(active));
    report.number("matmul_gflops", gflops);
    report.number("matmul_gflops_scalar", gflops_scalar);
    report.number("matmul_gflops_avx2", gflops_avx2);

    // Deployment inference throughput, batched vs per-agent, same fleet.
    // An untimed warm-up run first (the first fleet construction faults in
    // the service-model grids and the allocator arena), then alternating
    // best-of-3 per variant: a single sample per variant on a busy box
    // reads scheduler noise as a speedup or slowdown of whichever variant
    // drew the quiet slice. Best-of over interleaved samples is the
    // honest throughput estimate.
    const std::size_t inference_periods = 150;
    time_deployment(base, /*batched=*/false, 2);
    InferenceTiming unbatched, batched;
    bool inference_bit_identical = true;
    for (int sample = 0; sample < 3; ++sample) {
      const InferenceTiming u =
          time_deployment(base, /*batched=*/false, inference_periods);
      const InferenceTiming b =
          time_deployment(base, /*batched=*/true, inference_periods);
      inference_bit_identical =
          inference_bit_identical && u.period_performance == b.period_performance;
      if (sample == 0 || u.seconds < unbatched.seconds) unbatched = u;
      if (sample == 0 || b.seconds < batched.seconds) batched = b;
    }
    report.number("inference_steps_per_second_batched", batched.steps_per_second);
    report.number("inference_steps_per_second_unbatched", unbatched.steps_per_second);
    report.number("inference_batched_speedup",
                  ratio(batched.steps_per_second, unbatched.steps_per_second));
    report.flag("inference_bit_identical", inference_bit_identical);

    std::string error;
    if (!report.write("BENCH_training.json", error)) {
      std::fprintf(stderr, "[bench] %s\n", error.c_str());
      return 2;
    }
    std::fprintf(stderr,
                 "[bench] sequential %.2fs, parallel %.2fs (x%.2f, %s), "
                 "matmul %.2f GFLOP/s (scalar %.2f, avx2 %.2f), "
                 "inference %.0f steps/s batched vs %.0f unbatched (%s) "
                 "-> BENCH_training.json\n",
                 sequential.seconds, parallel.seconds, speedup,
                 bit_identical ? "bit-identical" : "MISMATCH", gflops, gflops_scalar,
                 gflops_avx2, batched.steps_per_second, unbatched.steps_per_second,
                 inference_bit_identical ? "bit-identical" : "MISMATCH");
  }

  // ---- (a): training-step sweep -------------------------------------------
  std::printf("\n# Fig. 10(a): system performance vs training steps\n");
  print_series_header({"steps", "EdgeSlice", "EdgeSlice-NT", "TARO"});
  const auto taro = run_contender(base, Contender::Taro, rng);
  const double fractions[] = {0.125, 0.25, 0.5, 1.0};
  std::vector<TrainingSpec> sweep_specs;
  for (double fraction : fractions) {
    Setup setup = base;
    setup.train_steps =
        static_cast<std::size_t>(fraction * static_cast<double>(base.train_steps));
    sweep_specs.push_back({setup, rl::Algorithm::Ddpg, true});
    sweep_specs.push_back({setup, rl::Algorithm::Ddpg, false});
  }
  const auto sweep_agents = train_agents_for(sweep_specs, rng, base.pool);
  for (std::size_t f = 0; f < std::size(fractions); ++f) {
    const Setup& setup = sweep_specs[2 * f].setup;
    const auto es =
        run_contender(setup, Contender::EdgeSlice, rng, sweep_agents[2 * f]);
    const auto nt =
        run_contender(setup, Contender::EdgeSliceNt, rng, sweep_agents[2 * f + 1]);
    print_row({static_cast<double>(setup.train_steps), es.total_performance,
               nt.total_performance, taro.total_performance});
  }

  // ---- (b): training techniques -------------------------------------------
  std::printf("\n# Fig. 10(b): system performance vs training technique\n");
  print_series_header({"technique", "system-perf"});
  const rl::Algorithm algorithms[] = {rl::Algorithm::Ddpg, rl::Algorithm::Sac,
                                      rl::Algorithm::Ppo, rl::Algorithm::Trpo,
                                      rl::Algorithm::Vpg};
  std::vector<TrainingSpec> technique_specs;
  for (const auto algorithm : algorithms) {
    technique_specs.push_back({base, algorithm, true});
  }
  const auto technique_agents = train_agents_for(technique_specs, rng, base.pool);
  for (std::size_t k = 0; k < std::size(algorithms); ++k) {
    const auto result =
        run_contender(base, Contender::EdgeSlice, rng, technique_agents[k]);
    std::printf("  %14s %14.3f\n", rl::algorithm_name(algorithms[k]),
                result.total_performance);
  }
  return 0;
}
