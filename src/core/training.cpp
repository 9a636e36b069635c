#include "core/training.h"

#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "ckpt/container.h"
#include "common/binio.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/trace_span.h"
#include "obs/event_log.h"
#include "rl/batched_actor.h"
#include "rl/ddpg.h"

namespace edgeslice::core {

namespace {

// Tag for the dedicated validation Rng stream. Rng::spawn(tag) derives
// from the construction seed only, so every validation call on the same
// environment replays the identical arrival sequence regardless of how
// much randomness training has consumed in between.
constexpr std::uint64_t kValidationStreamTag = 0x76a11da7e;

/// Canonical text of everything that shapes the training trajectory.
/// Stored in the checkpoint header; resume refuses a mismatch. The
/// checkpoint_* fields themselves are deliberately excluded — saving is
/// observation-only, so resuming with a different save cadence is legal.
std::string training_fingerprint(const rl::Agent& agent,
                                 const env::RaEnvironment& environment,
                                 const TrainingConfig& config) {
  const env::RaEnvironmentConfig& e = environment.config();
  std::ostringstream out;
  out << "artifact = training\n";
  out << "agent = " << agent.name() << "\n";
  out << "state_dim = " << agent.state_dim() << "\n";
  out << "action_dim = " << agent.action_dim() << "\n";
  out << "steps = " << config.steps << "\n";
  out << "coordination_low = " << json_number(config.coordination_low) << "\n";
  out << "coordination_high = " << json_number(config.coordination_high) << "\n";
  out << "boundary_sample_probability = "
      << json_number(config.boundary_sample_probability) << "\n";
  out << "resample_every = " << config.resample_every << "\n";
  out << "reset_on_resample = " << (config.reset_on_resample ? 1 : 0) << "\n";
  out << "randomize_traffic = " << (config.randomize_traffic ? 1 : 0) << "\n";
  out << "traffic_low = " << json_number(config.traffic_low) << "\n";
  out << "traffic_high = " << json_number(config.traffic_high) << "\n";
  out << "validation_every = " << config.validation_every << "\n";
  out << "validation_intervals = " << config.validation_intervals << "\n";
  out << "validation_coordination = " << json_number(config.validation_coordination)
      << "\n";
  out << "validation_arrival_rate = " << json_number(config.validation_arrival_rate)
      << "\n";
  out << "env.slices = " << e.slices << "\n";
  out << "env.intervals_per_period = " << e.intervals_per_period << "\n";
  out << "env.max_queue = " << e.max_queue << "\n";
  out << "env.arrival_rate = " << json_number(e.arrival_rate) << "\n";
  out << "env.include_traffic_in_state = " << (e.include_traffic_in_state ? 1 : 0)
      << "\n";
  return out.str();
}

/// Serialize one RunningStat via its raw Welford fields.
void write_running_stat(std::ostream& out, const RunningStat& stat) {
  write_u64(out, stat.count());
  write_f64(out, stat.mean());
  write_f64(out, stat.m2());
  write_f64(out, stat.min());
  write_f64(out, stat.max());
}

RunningStat read_running_stat(std::istream& in, const char* context) {
  const std::uint64_t n = read_u64(in, context);
  const double mean = read_f64(in, context);
  const double m2 = read_f64(in, context);
  const double min = read_f64(in, context);
  const double max = read_f64(in, context);
  RunningStat stat;
  stat.restore(static_cast<std::size_t>(n), mean, m2, min, max);
  return stat;
}

/// Write the full mid-run training checkpoint: the agent blob, the
/// environment blob, and the loop state (next step, window/overall
/// reward statistics, histories, best-policy snapshot, caller's Rng).
bool save_training_checkpoint(const std::string& path, const std::string& fingerprint,
                              const rl::Ddpg& agent,
                              const env::RaEnvironment& environment,
                              std::size_t next_step, const RunningStat& window,
                              const RunningStat& overall, const TrainingResult& partial,
                              const Rng& rng) {
  ckpt::CheckpointWriter writer(fingerprint);

  std::ostringstream agent_blob;
  agent.save_checkpoint(agent_blob);
  writer.add_section(ckpt::SectionKind::DdpgAgent, 0, agent_blob.str());

  std::ostringstream environment_blob;
  environment.save_state(environment_blob);
  writer.add_section(ckpt::SectionKind::Environment, 0, environment_blob.str());

  std::ostringstream loop;
  write_u64(loop, next_step);
  write_running_stat(loop, window);
  write_running_stat(loop, overall);
  write_f64_vector(loop, partial.reward_history);
  write_f64_vector(loop, partial.validation_history);
  write_f64(loop, partial.best_validation_score);
  write_u8(loop, partial.best_policy.has_value() ? 1 : 0);
  if (partial.best_policy.has_value()) partial.best_policy->save_binary(loop);
  write_string(loop, rng.serialize());
  writer.add_section(ckpt::SectionKind::TrainLoop, 0, loop.str());

  return writer.write_file(path);
}

/// Restore a mid-run checkpoint into the live training objects; returns
/// the step index to continue from.
std::size_t load_training_checkpoint(const std::string& path,
                                     const std::string& fingerprint, rl::Ddpg& agent,
                                     env::RaEnvironment& environment,
                                     RunningStat& window, RunningStat& overall,
                                     TrainingResult& partial, Rng& rng) {
  constexpr const char* kContext = "train_agent (resume)";
  const ckpt::CheckpointReader reader = ckpt::CheckpointReader::from_file(path);
  if (reader.fingerprint() != fingerprint) {
    throw std::runtime_error(std::string(kContext) +
                             ": checkpoint was taken under a different training "
                             "configuration (fingerprint mismatch)");
  }

  std::istringstream loop(reader.require(ckpt::SectionKind::TrainLoop));
  const std::uint64_t next_step = read_u64(loop, kContext);
  const RunningStat window_in = read_running_stat(loop, kContext);
  const RunningStat overall_in = read_running_stat(loop, kContext);
  std::vector<double> reward_history = read_f64_vector(loop, kContext);
  std::vector<double> validation_history = read_f64_vector(loop, kContext);
  const double best_score = read_f64(loop, kContext);
  std::optional<nn::Mlp> best_policy;
  if (read_u8(loop, kContext) != 0) best_policy = nn::Mlp::load_binary(loop);
  const Rng restored_rng = Rng::deserialize(read_string(loop, kContext));

  std::istringstream agent_blob(reader.require(ckpt::SectionKind::DdpgAgent));
  agent.load_checkpoint(agent_blob);
  std::istringstream environment_blob(reader.require(ckpt::SectionKind::Environment));
  environment.load_state(environment_blob);

  window = window_in;
  overall = overall_in;
  partial.reward_history = std::move(reward_history);
  partial.validation_history = std::move(validation_history);
  partial.best_validation_score = best_score;
  partial.best_policy = std::move(best_policy);
  rng = restored_rng;
  return static_cast<std::size_t>(next_step);
}

}  // namespace

double validate_policy(rl::Agent& agent, env::RaEnvironment& environment,
                       double coordination, std::size_t intervals,
                       double arrival_rate) {
  // Save everything validation perturbs — coordination, arrival rates and
  // the random stream — so training resumes exactly where it left off,
  // and pin all three so scores from different checkpoints are computed
  // under identical traffic and are therefore comparable. (Cyclic arrival
  // profiles, when set, restart from bin 0 on reset and stay comparable
  // without pinning.)
  const std::vector<double> saved_coordination = environment.coordination();
  std::vector<double> saved_rates(environment.slice_count());
  for (std::size_t i = 0; i < saved_rates.size(); ++i) {
    saved_rates[i] = environment.arrival_rate(i);
  }
  const Rng saved_rng = environment.rng();

  const double pinned_rate =
      arrival_rate > 0.0 ? arrival_rate : environment.config().arrival_rate;
  environment.reset();
  environment.set_coordination(
      std::vector<double>(environment.slice_count(), coordination));
  environment.set_arrival_rates(
      std::vector<double>(environment.slice_count(), pinned_rate));
  environment.rng() = saved_rng.spawn(kValidationStreamTag);

  // Validation is pure exploitation, so agents whose deterministic action
  // is a plain forward pass go through the batched-inference code path
  // (batch of 1 — bit-identical to act(), and the buffer reuse skips the
  // per-call allocation that act() pays).
  const nn::Mlp* actor = agent.inference_actor();
  std::optional<rl::BatchedActor> batched;
  if (actor != nullptr) batched.emplace(*actor);

  double score = 0.0;
  for (std::size_t t = 0; t < intervals; ++t) {
    std::vector<double> action;
    if (batched) {
      batched->begin(1);
      batched->set_state(0, environment.state());
      batched->infer();
      action = batched->action(0);
    } else {
      action = agent.act(environment.state(), /*explore=*/false);
    }
    const auto result = environment.step(action);
    for (double u : result.performance) score += u;
  }

  environment.reset();
  environment.set_coordination(saved_coordination);
  environment.set_arrival_rates(saved_rates);
  environment.rng() = saved_rng;
  return score;
}

TrainingResult train_agent(rl::Agent& agent, env::RaEnvironment& environment,
                           const TrainingConfig& config, Rng& rng) {
  if (agent.state_dim() != environment.state_dim() ||
      agent.action_dim() != environment.action_dim()) {
    throw std::invalid_argument("train_agent: agent/environment dimension mismatch");
  }
  if (config.coordination_low > config.coordination_high)
    throw std::invalid_argument("train_agent: bad coordination range");

  const std::size_t resample = config.resample_every > 0
                                   ? config.resample_every
                                   : environment.config().intervals_per_period;

  // Checkpoint/resume plumbing. Only the DDPG agent serializes its
  // complete training state, so both paths require one.
  const bool checkpointing =
      config.checkpoint_every > 0 && !config.checkpoint_path.empty();
  rl::Ddpg* ddpg = nullptr;
  if (checkpointing || config.resume) {
    ddpg = dynamic_cast<rl::Ddpg*>(&agent);
    if (ddpg == nullptr) {
      throw std::invalid_argument(
          "train_agent: checkpoint/resume requires a DDPG agent (" + agent.name() +
          " does not serialize its training state)");
    }
    if (config.checkpoint_path.empty()) {
      throw std::invalid_argument("train_agent: resume requires checkpoint_path");
    }
  }
  const std::string fingerprint =
      ddpg != nullptr ? training_fingerprint(agent, environment, config) : std::string();

  const auto train_span = global_tracer().span("train.agent");
  TrainingResult result;
  RunningStat window;
  RunningStat overall;

  std::size_t start_step = 0;
  if (config.resume && std::filesystem::exists(config.checkpoint_path)) {
    start_step = load_training_checkpoint(config.checkpoint_path, fingerprint, *ddpg,
                                          environment, window, overall, result, rng);
    if (start_step > config.steps) {
      throw std::runtime_error(
          "train_agent: checkpoint is beyond this run's step budget");
    }
  }

  for (std::size_t step = start_step; step < config.steps; ++step) {
    if (step % resample == 0) {
      std::vector<double> coordination(environment.slice_count());
      for (auto& c : coordination) {
        c = rng.chance(config.boundary_sample_probability)
                ? config.coordination_low
                : rng.uniform(config.coordination_low, config.coordination_high);
      }
      environment.set_coordination(coordination);
      if (config.randomize_traffic) {
        std::vector<double> rates(environment.slice_count());
        for (auto& r : rates) r = rng.uniform(config.traffic_low, config.traffic_high);
        environment.set_arrival_rates(rates);
      }
      if (config.reset_on_resample) environment.reset();
    }
    const std::vector<double> state = environment.state();
    const std::vector<double> action = agent.act(state, /*explore=*/true);
    const env::StepResult step_result = environment.step(action);
    agent.observe(state, action, step_result.reward, step_result.next_state,
                  /*done=*/false);
    window.add(step_result.reward);
    overall.add(step_result.reward);
    if (window.count() >= 100) {
      result.reward_history.push_back(window.mean());
      window = RunningStat{};
    }

    // Validation checkpointing (skipped before the first 20% of training,
    // where snapshots would only record the random initial policy).
    if (config.validation_every > 0 && (step + 1) % config.validation_every == 0 &&
        step + 1 >= config.steps / 5 && agent.policy_network() != nullptr) {
      const double score = validate_policy(agent, environment,
                                           config.validation_coordination,
                                           config.validation_intervals,
                                           config.validation_arrival_rate);
      result.validation_history.push_back(score);
      global_metrics().gauge("train.validation_score").set(score);
      obs::Event event;
      event.kind = obs::EventKind::ValidationCheckpoint;
      event.interval = step + 1;
      event.value = score;
      obs::global_event_log().record(event);
      if (!result.best_policy.has_value() || score > result.best_validation_score) {
        result.best_validation_score = score;
        result.best_policy = *agent.policy_network();
      }
    }

    // Periodic checkpoint, taken after the step (and any validation) has
    // fully completed, so a resume continues at exactly step + 1. Pure
    // observation: serialization only reads, and the final step needs no
    // save (the run is about to return its result anyway).
    if (checkpointing && (step + 1) % config.checkpoint_every == 0 &&
        step + 1 < config.steps) {
      if (!save_training_checkpoint(config.checkpoint_path, fingerprint, *ddpg,
                                    environment, step + 1, window, overall, result,
                                    rng)) {
        throw std::runtime_error("train_agent: cannot write checkpoint to " +
                                 config.checkpoint_path);
      }
    }
  }
  result.final_mean_reward =
      result.reward_history.empty() ? overall.mean() : result.reward_history.back();
  result.steps = config.steps;
  auto& metrics = global_metrics();
  metrics.counter("train.steps").add(config.steps - start_step);
  metrics.gauge("train.final_mean_reward").set(result.final_mean_reward);
  if (result.best_policy.has_value()) {
    metrics.gauge("train.best_validation_score").set(result.best_validation_score);
  }
  return result;
}

std::vector<TrainingResult> train_agents(std::vector<TrainingJob>& jobs,
                                         ThreadPool* pool) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].agent == nullptr || jobs[i].environment == nullptr)
      throw std::invalid_argument("train_agents: null agent or environment");
    for (std::size_t k = 0; k < i; ++k) {
      if (jobs[k].agent == jobs[i].agent || jobs[k].environment == jobs[i].environment)
        throw std::invalid_argument(
            "train_agents: jobs must not share an agent or environment");
      if (!jobs[i].config.checkpoint_path.empty() &&
          jobs[k].config.checkpoint_path == jobs[i].config.checkpoint_path)
        throw std::invalid_argument(
            "train_agents: jobs must not share a checkpoint path");
    }
  }
  std::vector<TrainingResult> results(jobs.size());
  const auto run_one = [&](std::size_t i) {
    results[i] = train_agent(*jobs[i].agent, *jobs[i].environment, jobs[i].config,
                             jobs[i].rng);
  };
  if (pool != nullptr) {
    pool->parallel_for(jobs.size(), run_one);
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i);
  }
  return results;
}

}  // namespace edgeslice::core
