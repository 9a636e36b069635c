// ddpg_train: one DDPG agent trained by core::train_agent against one
// city-shaped RA environment, single thread.
//
// Each repetition builds a fresh agent and environment from the same seed
// (the set-up sample), fills the replay buffer (warm-up, untimed) and
// then trains for a fixed number of steps, timed step by step through the
// agent decorator's observe() clock. Same seed, same reward history: every
// repetition's reward-history digest must equal the first one's.
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.h"
#include "common/trace_span.h"
#include "core/training.h"
#include "env/environment.h"
#include "env/perf.h"
#include "probes.h"
#include "rl/ddpg.h"
#include "workloads.h"

namespace perfbench {

namespace es = edgeslice;

namespace {

constexpr std::size_t kHidden = 64;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kWarmup = 128;
/// Steps timed per repetition (after the warm-up), about 1.5 s.
constexpr std::size_t kTimedSteps = 640;
constexpr double kArrivalRate = 3.5;  // the city's per-slice peak rate

struct Rep {
  double setup_s = 0.0;
  std::vector<double> step_s;  // latency of every timed step
  double steps_per_s = 0.0;
  std::uint64_t reward_digest = 0;
  std::uint64_t failed_steps = 0;
  // Probed repetitions only.
  Tally act, observe, service_model, perf;
  es::SpanStats train_batch;
  std::vector<std::size_t> actor_sizes, critic_sizes;
};

/// One repetition; with `setup_only`, return right after the set-up.
Rep run_rep(std::uint64_t seed, bool probed, bool setup_only) {
  Rep rep;
  es::global_tracer().clear();
  const auto setup_start = Clock::now();
  es::Rng profile_rng(seed);
  const auto profiles = es::bench::make_profiles(kCitySlices, profile_rng);
  RaProbes probes;
  std::shared_ptr<const es::env::ServiceModel> model = es::bench::make_service_model(profiles);
  std::shared_ptr<const es::env::PerformanceFunction> perf = es::env::make_queue_power_perf(2.0);
  if (probed) {
    model = std::make_shared<TimedServiceModel>(model, probes);
    perf = std::make_shared<TimedPerformance>(perf, probes);
  }
  es::env::RaEnvironmentConfig env_config;
  env_config.slices = kCitySlices;
  env_config.intervals_per_period = kCityIntervals;
  env_config.arrival_rate = kArrivalRate;
  env_config.include_traffic_in_state = true;
  env_config.enforce_capacity_scaling = false;  // as in training
  es::env::RaEnvironment environment(env_config, profiles, model, perf, es::Rng(seed * 1000));

  es::rl::DdpgConfig config;
  config.base.state_dim = environment.state_dim();
  config.base.action_dim = environment.action_dim();
  config.base.hidden = kHidden;
  config.batch_size = kBatch;
  config.warmup = kWarmup;
  es::Rng agent_rng(seed + 17);
  es::rl::Ddpg agent(config, agent_rng);
  // Step kWarmup - 1 (0-based) is the first observe() that trains.
  TimedAgent timed(agent, probed, kWarmup - 1);
  timed.step_ends.reserve(kWarmup + kTimedSteps);

  es::core::TrainingConfig training;
  training.steps = kWarmup + kTimedSteps;
  training.randomize_traffic = false;
  es::Rng training_rng(seed + 29);
  rep.setup_s = seconds_since(setup_start);
  if (setup_only) return rep;

  const es::core::TrainingResult result =
      es::core::train_agent(timed, environment, training, training_rng);

  // Untimed from here: step latencies, digest, layer readout.
  const auto& ends = timed.step_ends;
  for (std::size_t i = kWarmup - 1; i < ends.size(); ++i) {
    rep.step_s.push_back(seconds_between(ends[i - 1], ends[i]));
  }
  rep.steps_per_s =
      static_cast<double>(rep.step_s.size()) / seconds_between(ends[kWarmup - 2], ends.back());
  rep.reward_digest = fnv1a(result.reward_history.data(),
                            result.reward_history.size() * sizeof(double));
  rep.failed_steps = timed.non_finite_steps + (training.steps - ends.size());
  if (probed) {
    rep.act = timed.act_tally;
    rep.observe = timed.observe_tally;
    rep.service_model = probes.service_model;
    rep.perf = probes.perf;
    for (const auto& path : es::global_tracer().names()) {
      if (path.size() >= 16 && path.compare(path.size() - 16, 16, "ddpg.train_batch") == 0) {
        const es::SpanStats stats = es::global_tracer().overall(path);
        rep.train_batch.count += stats.count;
        rep.train_batch.total_s += stats.total_s;
      }
    }
    rep.actor_sizes = agent.actor().layer_sizes();
    rep.critic_sizes = agent.critic().layer_sizes();
  }
  return rep;
}

}  // namespace

Record run_ddpg_train(const RunOptions& options) {
  Record record;
  record.workload = "ddpg_train";
  record.seed = options.seed;
  record.traced = options.traced;

  std::vector<double> setup_s, rate, step_ms, untraced_cost, traced_cost;
  std::vector<std::uint64_t> digests;
  Rep probed_total;
  double probed_steps = 0.0;
  double probed_step_s = 0.0;
  std::size_t probed_reps = 0;

  const auto window = Clock::now();
  double rep_cost = 0.0;
  for (std::size_t index = 0;; ++index) {
    const std::size_t min_reps = options.traced ? 2 : 1;
    if (index >= min_reps && seconds_since(window) + rep_cost > options.seconds) break;
    const auto rep_start = Clock::now();
    const bool probed = options.traced && index % 2 == 1;
    const Rep rep = run_rep(options.seed, probed, false);
    record.attempted += kWarmup + kTimedSteps;
    record.failed += rep.failed_steps;
    digests.push_back(rep.reward_digest);
    double step_total = 0.0;
    for (double s : rep.step_s) step_total += s;
    const double mean_step = step_total / static_cast<double>(rep.step_s.size());
    if (probed) {
      ++probed_reps;
      probed_steps += static_cast<double>(rep.step_s.size());
      probed_step_s += step_total;
      probed_total.act += rep.act;
      probed_total.observe += rep.observe;
      probed_total.service_model += rep.service_model;
      probed_total.perf += rep.perf;
      probed_total.train_batch.count += rep.train_batch.count;
      probed_total.train_batch.total_s += rep.train_batch.total_s;
      probed_total.actor_sizes = rep.actor_sizes;
      probed_total.critic_sizes = rep.critic_sizes;
      traced_cost.push_back(mean_step);
    } else {
      setup_s.push_back(rep.setup_s);
      rate.push_back(rep.steps_per_s);
      for (double s : rep.step_s) step_ms.push_back(s * 1e3);
      untraced_cost.push_back(mean_step);
    }
    std::fprintf(stderr, "[perfbench] ddpg_train rep %zu%s: setup %.1f ms, %.1f steps/s\n",
                 index, probed ? " (probed)" : "", rep.setup_s * 1e3, rep.steps_per_s);
    rep_cost = std::max(rep_cost, seconds_since(rep_start));
  }
  record.run_seconds = seconds_since(window);
  while (setup_s.size() < kMinSetupSamples) {
    setup_s.push_back(run_rep(options.seed, false, true).setup_s);
  }

  std::size_t mismatched = 0;
  for (std::uint64_t digest : digests) mismatched += digest != digests.front();
  record.oracle("reward_history_digest", mismatched == 0,
                std::to_string(digests.size()) + " repetitions, digest " +
                    hex64(digests.front()) +
                    (mismatched ? ", " + std::to_string(mismatched) + " differ" : std::string()));
  record.digests["reward_history"] = hex64(digests.front());

  const double steps_per_s = median(rate);
  const double p50 = median(step_ms);
  const double p90 = percentile_or_zero(step_ms, 90.0);
  const double p99 = percentile_or_zero(step_ms, 99.0);
  const double setup = median(setup_s);
  const std::string samples = std::to_string(step_ms.size()) + " steps over " +
                              std::to_string(rate.size()) + " repetitions";
  record.end_to_end = {
      {"setup_s", setup, "s", "median agent + environment build"},
      {"throughput_per_s", steps_per_s, "1/s", "train_steps_per_s: median over repetitions"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", "this process"},
  };
  record.named = {
      {"train_steps_per_s", steps_per_s, "1/s", "after the replay warm-up"},
      {"train_step_p50_ms", p50, "ms", samples},
      {"train_step_p90_ms", p90, "ms", samples},
      {"train_step_p99_ms", p99, "ms", samples},
      {"setup_s", setup, "s", ""},
      {"failed_share",
       record.attempted ? static_cast<double>(record.failed) / record.attempted : 0.0, "ratio",
       "steps that threw or had a non-finite reward or critic loss / attempted"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", ""},
  };

  if (options.traced) {
    std::vector<Metric> sheet = per_layer_sheet();
    const auto per_call_us = [](const Tally& t) { return t.per_call_s() * 1e6; };
    const Rep& t = probed_total;
    set_layer(sheet, "rl.act_us", per_call_us(t.act), "Agent decorator, per call");
    set_layer(sheet, "rl.observe_ms", per_call_us(t.observe) / 1e3,
              "Agent decorator, per call (includes the train batch)");
    set_layer(sheet, "rl.train_batch_ms",
              t.train_batch.count ? t.train_batch.total_s / t.train_batch.count * 1e3 : 0.0,
              "ddpg.train_batch span");
    // Per timed step: one 1-row actor pass to act, then one train batch:
    // actor-target + actor forward and 2x backward (2x forward) over B rows,
    // critic-target + 2 critic forwards and 2 critic backwards over B rows.
    const double batch = static_cast<double>(kBatch);
    const double flops = forward_flops(t.actor_sizes, 1.0) +
                         4.0 * forward_flops(t.actor_sizes, batch) +
                         7.0 * forward_flops(t.critic_sizes, batch);
    set_layer(sheet, "nn.train_flops_per_step", flops,
              "computed count: GEMM FLOPs from layer shapes");
    record.counters.push_back(
        {"nn.train_flops_per_step", flops, "flop", "computed count from layer shapes"});
    const double service_calls = static_cast<double>(t.service_model.calls) /
                                 static_cast<double>(probed_reps * (kWarmup + kTimedSteps));
    set_layer(sheet, "env.service_model_us", per_call_us(t.service_model),
              "ServiceModel decorator, per call");
    set_layer(sheet, "env.service_model_calls", service_calls, "per environment step");
    record.counters.push_back({"env.service_model_calls_per_step", service_calls, "count",
                               "computed count: ServiceModel calls"});
    set_layer(sheet, "env.perf_us", per_call_us(t.perf), "PerformanceFunction decorator, per call");
    const double other_s = probed_step_s - t.act.seconds - t.observe.seconds;
    set_layer(sheet, "env.step_us", other_s / probed_steps * 1e6,
              "derived: step latency minus act and observe (env step + loop)");
    set_layer(sheet, "trace_overhead_share", overhead_share(traced_cost, untraced_cost),
              "mean step, probed vs unprobed repetitions");
    record.per_layer = std::move(sheet);
  }
  return record;
}

}  // namespace perfbench
