#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ckpt/agent_cache.h"
#include "common/binio.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/trace_span.h"
#include "core/policies.h"
#include "ipc/supervisor.h"
#include "ipc/telemetry_server.h"
#include "nn/gemm.h"
#include "obs/event_log.h"
#include "rl/frozen.h"
#include "rl/sac.h"

namespace edgeslice::bench {

PeriodCheckpoints::PeriodCheckpoints(std::string resume_path,
                                     const std::string& checkpoint_out, std::size_t every,
                                     std::size_t keep, std::string tag)
    : resume_path_(std::move(resume_path)),
      path_(!checkpoint_out.empty() ? checkpoint_out : resume_path_),
      every_(every),
      keep_(keep),
      tag_(std::move(tag)) {
  if (keep_ > 0 && !path_.empty()) rotation_.emplace(path_, keep_);
}

std::size_t PeriodCheckpoints::resume(core::EdgeSliceSystem& system) const {
  std::optional<std::string> source;
  if (!resume_path_.empty() && keep_ > 0) {
    source = ckpt::CheckpointRotation(resume_path_, keep_).latest();
  } else if (!resume_path_.empty() && std::filesystem::exists(resume_path_)) {
    source = resume_path_;
  }
  if (!source.has_value()) return 0;
  system.load_checkpoint(*source);
  std::fprintf(stderr, "[%s] resumed from %s at period %zu\n", tag_.c_str(),
               source->c_str(), system.period_count());
  return system.period_count();
}

void PeriodCheckpoints::after_period(const core::EdgeSliceSystem& system, std::size_t p,
                                     std::size_t periods) const {
  if (every_ == 0 || path_.empty() || (p + 1) % every_ != 0 || p + 1 >= periods) return;
  const std::string dest = rotation_.has_value() ? rotation_->path_for(p + 1) : path_;
  if (!system.save_checkpoint(dest)) {
    std::fprintf(stderr, "[%s] cannot write checkpoint to %s\n", tag_.c_str(), dest.c_str());
    std::exit(2);
  }
  // Prune only after the new checkpoint is durably published: a crash
  // anywhere in the run leaves at least one valid file behind.
  if (rotation_.has_value()) rotation_->prune(p + 1);
}

std::vector<env::AppProfile> make_profiles(std::size_t slices, Rng& rng) {
  std::vector<env::AppProfile> profiles;
  profiles.reserve(slices);
  if (slices >= 1) profiles.push_back(env::slice1_profile());
  if (slices >= 2) profiles.push_back(env::slice2_profile());
  // Additional slices pick random (resolution, model) combinations, as the
  // simulated slices of Sec. VII-D do.
  const env::FrameResolution resolutions[] = {env::FrameResolution::R100x100,
                                              env::FrameResolution::R300x300,
                                              env::FrameResolution::R500x500};
  const env::YoloModel models[] = {env::YoloModel::Y320, env::YoloModel::Y416,
                                   env::YoloModel::Y608};
  while (profiles.size() < slices) {
    profiles.push_back(
        env::make_profile(resolutions[rng.index(3)], models[rng.index(3)]));
  }
  return profiles;
}

env::RaEnvironmentConfig env_config(const Setup& setup, bool traffic_in_state) {
  env::RaEnvironmentConfig config;
  config.slices = setup.slices;
  config.intervals_per_period = setup.intervals_per_period;
  config.arrival_rate = setup.arrival_rate;
  config.include_traffic_in_state = traffic_in_state;
  return config;
}

std::shared_ptr<const env::PerformanceFunction> make_perf(const Setup& setup) {
  if (setup.service_time_perf) return env::make_neg_service_time_perf();
  return env::make_queue_power_perf(setup.alpha);
}

std::shared_ptr<const env::ServiceModel> make_service_model(
    const std::vector<env::AppProfile>& profiles) {
  const env::DirectServiceModel ground_truth(env::prototype_capacity());
  return std::make_shared<env::PerProfileLinearServiceModel>(profiles, ground_truth, 0.1);
}

std::vector<std::unique_ptr<env::RaEnvironment>> make_environments(
    const Setup& setup, const std::vector<env::AppProfile>& profiles,
    std::shared_ptr<const env::ServiceModel> model, bool traffic_in_state,
    std::uint64_t seed_offset) {
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  environments.reserve(setup.ras);
  const Rng base(setup.seed);
  for (std::size_t j = 0; j < setup.ras; ++j) {
    environments.push_back(std::make_unique<env::RaEnvironment>(
        env_config(setup, traffic_in_state), profiles, model, make_perf(setup),
        base.spawn(1000 + seed_offset * 100 + j)));
  }
  return environments;
}

void apply_trace_traffic(const Setup& setup,
                         std::vector<std::unique_ptr<env::RaEnvironment>>& environments,
                         Rng& rng) {
  trace::TraceConfig trace_config;
  trace_config.cells = environments.size();
  trace_config.days = 3;
  const trace::TraceDataset dataset(trace_config, rng);
  for (std::size_t j = 0; j < environments.size(); ++j) {
    const auto daily = dataset.normalized_daily_profile(j, setup.intervals_per_period,
                                                        setup.trace_peak_rate);
    std::vector<std::vector<double>> per_slice(environments[j]->slice_count());
    for (std::size_t i = 0; i < per_slice.size(); ++i) {
      // Shift each slice within the diurnal curve so slices peak at
      // different hours (spatio-temporal traffic diversity).
      per_slice[i].resize(daily.size());
      const std::size_t shift = i * daily.size() / (2 * per_slice.size());
      for (std::size_t t = 0; t < daily.size(); ++t) {
        per_slice[i][t] = daily[(t + shift) % daily.size()];
      }
    }
    environments[j]->set_arrival_profiles(std::move(per_slice));
  }
}

namespace {

/// Trained policies are cached on disk so that bench binaries sharing a
/// configuration do not retrain. Delete the cache directory (or set
/// EDGESLICE_AGENT_CACHE=off) to force retraining.
std::filesystem::path agent_cache_dir() {
  const char* base = std::getenv("EDGESLICE_AGENT_CACHE");
  if (base != nullptr && std::string(base) == "off") return {};
  return std::filesystem::path(base != nullptr ? base : "edgeslice_agent_cache");
}

/// Canonical configuration text addressing a cache entry: every knob that
/// changes the trained policy, one "key = value" line each. Stored inside
/// the entry and verified byte-for-byte on load, so two configurations can
/// never silently alias (FORMATS.md Sec. 3).
std::string agent_fingerprint(const Setup& setup, rl::Algorithm algorithm,
                              bool traffic_in_state) {
  std::ostringstream out;
  out << "artifact = agent\n";
  out << "algorithm = " << rl::algorithm_name(algorithm) << "\n";
  out << "slices = " << setup.slices << "\n";
  out << "intervals_per_period = " << setup.intervals_per_period << "\n";
  out << "arrival_rate = " << json_number(setup.arrival_rate) << "\n";
  out << "alpha = " << json_number(setup.alpha) << "\n";
  out << "performance = " << (setup.service_time_perf ? "st" : "qp") << "\n";
  out << "state = " << (traffic_in_state ? "full" : "nt") << "\n";
  out << "train_steps = " << setup.train_steps << "\n";
  out << "seed = " << setup.seed << "\n";
  return out.str();
}

/// Cache lookup by content address. A corrupt entry is reported and
/// ignored — the bench retrains rather than aborts.
std::optional<nn::Mlp> load_cached_policy(const Setup& setup, rl::Algorithm algorithm,
                                          bool traffic_in_state) {
  const auto dir = agent_cache_dir();
  if (dir.empty()) return std::nullopt;
  const std::string fingerprint = agent_fingerprint(setup, algorithm, traffic_in_state);
  try {
    if (auto policy = ckpt::load_policy(dir.string(), fingerprint)) {
      std::fprintf(stderr, "[bench] loading cached policy %s\n",
                   ckpt::cache_entry_path(dir.string(), fingerprint).c_str());
      return policy;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench] ignoring corrupt cache entry: %s\n", e.what());
  }
  return std::nullopt;
}

}  // namespace

std::shared_ptr<rl::Agent> train_agent_for(const Setup& setup, rl::Algorithm algorithm,
                                           bool traffic_in_state, Rng& rng) {
  if (auto cached = load_cached_policy(setup, algorithm, traffic_in_state)) {
    return std::make_shared<rl::FrozenActor>(*cached, rl::algorithm_name(algorithm));
  }

  Rng profile_rng(setup.seed);
  const auto profiles = make_profiles(setup.slices, profile_rng);
  const auto model = make_service_model(profiles);
  env::RaEnvironment training_env(env_config(setup, traffic_in_state), profiles, model,
                                  make_perf(setup), rng.spawn());

  rl::AgentConfig base;
  base.state_dim = training_env.state_dim();
  base.action_dim = training_env.action_dim();
  base.hidden = 64;  // scaled from the paper's 128 (see EXPERIMENTS.md)
  std::shared_ptr<rl::Agent> agent;
  if (algorithm == rl::Algorithm::Ddpg) {
    // The paper's configuration, with the exploration floor raised for the
    // reduced step budget.
    rl::DdpgConfig config;
    config.base = base;
    config.batch_size = 64;
    config.warmup = 128;
    config.noise_decay = 0.9996;
    config.noise_min = 0.08;
    agent = std::make_shared<rl::Ddpg>(config, rng);
  } else if (algorithm == rl::Algorithm::Sac) {
    // Scale the paper-sized batch down with everything else.
    rl::SacConfig config;
    config.base = base;
    config.batch_size = 64;
    config.warmup = 128;
    agent = std::make_shared<rl::Sac>(config, rng);
  } else {
    agent = std::shared_ptr<rl::Agent>(rl::make_agent(algorithm, base, rng));
  }

  core::TrainingConfig training;
  training.steps = setup.train_steps;
  // Traffic is kept at the setup's fixed rate during training: the agent
  // learns load-adaptivity through the queue lengths in its state.
  // (Resampling the traffic level every episode alongside the coordination
  // values makes the learning problem so non-stationary that policies
  // collapse at CPU-scale step budgets; see DESIGN.md Sec. 5.)
  training.randomize_traffic = false;
  // Deploy the best validated snapshot, not the last iterate — guards
  // against late-training divergence at reduced step budgets.
  training.validation_every = std::max<std::size_t>(1000, setup.train_steps / 12);
  // Validate at the clamp boundary: a loaded system operates there.
  training.validation_coordination = -50.0;

  // --checkpoint-every / --checkpoint-out / --resume map straight onto the
  // training loop's mid-run checkpointing (DDPG only: the other agents do
  // not serialize their training state). --resume without --checkpoint-out
  // saves back to the resume path, so a crash-and-rerun loop needs one flag.
  // Benches that train several agents in one process (full + NT state)
  // would clobber a single user-supplied path — and the resumed run would
  // refuse the foreign fingerprint — so each training gets its own file,
  // "<path>.<fingerprint digest>".
  if (setup.checkpoint_every > 0 || !setup.resume_path.empty()) {
    if (algorithm == rl::Algorithm::Ddpg) {
      std::string ckpt_base = !setup.checkpoint_out.empty() ? setup.checkpoint_out
                                                            : setup.resume_path;
      if (ckpt_base.empty()) ckpt_base = "edgeslice_train.ckpt";
      training.checkpoint_every = setup.checkpoint_every;
      training.checkpoint_path =
          ckpt_base + "." +
          ckpt::fingerprint_digest(agent_fingerprint(setup, algorithm, traffic_in_state));
      training.resume = !setup.resume_path.empty();
      std::fprintf(stderr, "[bench] training checkpoints: %s\n",
                   training.checkpoint_path.c_str());
    } else {
      std::fprintf(stderr,
                   "[bench] checkpoint/resume flags ignored for %s (DDPG only)\n",
                   rl::algorithm_name(algorithm));
    }
  }

  // DDPG at reduced budgets is seed-sensitive (especially for the
  // queue-blind NT state): when the best validated snapshot is still
  // catastrophic (a slice starves and its queue saturates), retrain with a
  // fresh seed. A sane policy scores around -10^3 over the validation
  // window; a starving one is below -10^5.
  const double kAcceptableScore = -5e4;
  core::TrainingResult trained;
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::fprintf(stderr,
                 "[bench] training %s (%zu steps, slices=%zu, %s, attempt %d) ...\n",
                 rl::algorithm_name(algorithm), training.steps, setup.slices,
                 traffic_in_state ? "full state" : "NT state", attempt + 1);
    core::TrainingResult candidate = core::train_agent(*agent, training_env, training, rng);
    if (!trained.best_policy.has_value() ||
        (candidate.best_policy.has_value() &&
         candidate.best_validation_score > trained.best_validation_score)) {
      trained = std::move(candidate);
    }
    if (!trained.best_policy.has_value() ||
        trained.best_validation_score >= kAcceptableScore) {
      break;
    }
    // Retries start from fresh networks — resuming (or overwriting) the
    // first attempt's checkpoint would just replay the same bad trajectory.
    training.checkpoint_every = 0;
    training.checkpoint_path.clear();
    training.resume = false;
    // Fresh networks for the retry; the environment keeps its dynamics.
    if (algorithm == rl::Algorithm::Ddpg) {
      rl::DdpgConfig config;
      config.base = base;
      config.batch_size = 64;
      config.warmup = 128;
      config.noise_decay = 0.9996;
      config.noise_min = 0.08;
      agent = std::make_shared<rl::Ddpg>(config, rng);
    } else {
      break;  // retry logic is only tuned for the DDPG path
    }
  }

  std::shared_ptr<rl::Agent> deployed = agent;
  if (trained.best_policy.has_value()) {
    deployed = std::make_shared<rl::FrozenActor>(*trained.best_policy,
                                                 rl::algorithm_name(algorithm));
    std::fprintf(stderr, "[bench] deployed snapshot with validation score %.1f\n",
                 trained.best_validation_score);
  }
  const auto cache_dir = agent_cache_dir();
  if (!cache_dir.empty() && deployed->policy_network() != nullptr) {
    ckpt::store_policy(cache_dir.string(),
                       agent_fingerprint(setup, algorithm, traffic_in_state),
                       *deployed->policy_network());
  }
  return deployed;
}

std::vector<std::shared_ptr<rl::Agent>> train_agents_for(
    const std::vector<TrainingSpec>& specs, Rng& rng, ThreadPool* pool) {
  // Spawn every job's stream up front, in spec order, so the streams do
  // not depend on scheduling (and the sequential path consumes the master
  // Rng identically).
  std::vector<Rng> streams;
  streams.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) streams.push_back(rng.spawn());

  std::vector<std::shared_ptr<rl::Agent>> agents(specs.size());
  const auto run_job = [&](std::size_t i) {
    agents[i] = train_agent_for(specs[i].setup, specs[i].algorithm,
                                specs[i].traffic_in_state, streams[i]);
  };
  if (pool != nullptr && pool->thread_count() > 1 && specs.size() > 1) {
    pool->parallel_for(specs.size(), run_job);
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) run_job(i);
  }
  return agents;
}

const char* contender_name(Contender contender) {
  switch (contender) {
    case Contender::EdgeSlice: return "EdgeSlice";
    case Contender::EdgeSliceNt: return "EdgeSlice-NT";
    case Contender::Taro: return "TARO";
  }
  return "?";
}

RunResult run_contender(const Setup& setup, Contender contender, Rng& rng,
                        std::shared_ptr<rl::Agent> trained,
                        core::SystemMonitor* monitor_out) {
  const bool traffic_in_state = contender != Contender::EdgeSliceNt;
  Rng profile_rng(setup.seed);
  const auto profiles = make_profiles(setup.slices, profile_rng);
  const auto model = make_service_model(profiles);
  auto environments = make_environments(setup, profiles, model, traffic_in_state);
  if (setup.trace_driven) {
    Rng trace_rng(setup.seed + 77);
    apply_trace_traffic(setup, environments, trace_rng);
  }

  std::vector<std::unique_ptr<core::RaPolicy>> policies;
  std::shared_ptr<rl::Agent> agent = trained;
  if (contender == Contender::Taro) {
    for (std::size_t j = 0; j < setup.ras; ++j) {
      policies.push_back(std::make_unique<core::TaroPolicy>());
    }
  } else {
    if (!agent) agent = train_agent_for(setup, rl::Algorithm::Ddpg, traffic_in_state, rng);
    for (std::size_t j = 0; j < setup.ras; ++j) {
      policies.push_back(std::make_unique<core::LearnedPolicy>(agent, /*learn=*/false));
    }
  }

  core::CoordinatorConfig coordinator;
  coordinator.slices = setup.slices;
  coordinator.ras = setup.ras;
  core::SystemConfig system_config;
  system_config.use_coordinator = contender != Contender::Taro;
  // Deployment policies (frozen actors, TARO) share no mutable state, so
  // the period loop may fan out across the setup's pool; results are
  // bit-identical to a sequential run.
  system_config.pool = setup.pool;

  std::vector<env::RaEnvironment*> env_ptrs;
  std::vector<core::RaPolicy*> policy_ptrs;
  for (auto& e : environments) env_ptrs.push_back(e.get());
  for (auto& p : policies) policy_ptrs.push_back(p.get());

  // --workers: fork the RAs into supervised worker processes and drive
  // them over the wire instead of stepping them here. Trajectories are
  // bit-identical to the in-process run at any worker count, so this is a
  // deployment-shape knob, not a results knob. The supervisor supersedes
  // the thread pool for the period loop.
  std::unique_ptr<ipc::WorkerSupervisor> supervisor;
  if (setup.workers > 0) {
    ipc::SupervisorConfig sup_config;
    sup_config.workers = setup.workers;
    sup_config.telemetry_every = setup.telemetry_interval;
    supervisor = std::make_unique<ipc::WorkerSupervisor>(env_ptrs, policy_ptrs,
                                                         sup_config);
    supervisor->start();
    system_config.transport = supervisor.get();
    system_config.pool = nullptr;
    std::fprintf(stderr, "[bench] %zu RAs across %zu worker processes\n",
                 setup.ras, supervisor->worker_count());
  }
  core::EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator, system_config);

  RunResult result;
  for (const auto& period : system.run(setup.eval_periods)) {
    result.total_performance += period.system_performance;
  }
  result.per_ra_performance = result.total_performance /
                              static_cast<double>(setup.ras * setup.eval_periods);
  result.per_slice_performance = result.total_performance /
                                 static_cast<double>(setup.slices * setup.eval_periods);
  result.system_series = system.monitor().system_performance_series();
  result.slice_series = system.monitor().slice_performance_series();
  if (monitor_out != nullptr) *monitor_out = system.monitor();
  return result;
}

namespace {

/// Destination of the end-of-run observability dump; empty disables it.
std::string g_metrics_out_path;

/// Destination of the end-of-run flight-recorder JSONL dump; empty
/// disables it. The same path doubles as the crash-dump destination.
std::string g_events_out_path;

/// Live exposition, enabled by --telemetry-port / --metrics-interval.
std::unique_ptr<obs::TelemetryServer> g_telemetry_server;
std::unique_ptr<obs::RollingSnapshotWriter> g_snapshot_writer;

/// Registered with atexit by parse_common_flags so every bench binary
/// exports its metrics without touching each main(): one JSON document
/// combining the registry (counters/gauges/histograms), the tracer
/// (per-span, per-period timings) and the flight-recorder window.
/// Published via atomic_write_file, so an exit racing a reader (or a
/// crash inside the dump itself) never leaves a truncated file.
void dump_metrics_at_exit() {
  if (g_metrics_out_path.empty()) return;
  if (!obs::write_observability_snapshot(g_metrics_out_path)) {
    std::fprintf(stderr, "[bench] cannot write metrics to %s\n",
                 g_metrics_out_path.c_str());
    return;
  }
  std::fprintf(stderr, "[bench] wrote metrics to %s\n", g_metrics_out_path.c_str());
}

/// End-of-run flight-recorder dump (also via atomic_write_file). On a
/// crash the signal/terminate handlers installed by set_crash_dump_path
/// write the same path directly instead.
void dump_events_at_exit() {
  if (g_events_out_path.empty()) return;
  std::ostringstream out;
  obs::global_event_log().write_jsonl(out);
  if (!atomic_write_file(g_events_out_path, out.str())) {
    std::fprintf(stderr, "[bench] cannot write events to %s\n",
                 g_events_out_path.c_str());
    return;
  }
  std::fprintf(stderr, "[bench] wrote events to %s\n", g_events_out_path.c_str());
}

/// Stop the live exposition threads before the registries they read are
/// torn down. Registered with atexit AFTER the singletons are touched, so
/// it runs before their destructors.
void stop_telemetry_at_exit() {
  if (g_snapshot_writer) g_snapshot_writer->stop();
  if (g_telemetry_server) g_telemetry_server->stop();
}

}  // namespace

Setup parse_common_flags(int argc, char** argv, Setup setup,
                         const std::vector<std::string>& extra_flags) {
  std::vector<std::string> known{"steps",       "seed",           "periods",
                                 "threads",     "metrics-out",    "telemetry-port",
                                 "metrics-interval", "events-out", "checkpoint-every",
                                 "checkpoint-out",   "resume",     "checkpoint-keep",
                                 "workers",     "gemm",       "telemetry-interval"};
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());
  const CliArgs args(argc, argv, known);

  // --gemm scalar|avx2|auto (EDGESLICE_GEMM): pin the nn GEMM backend for
  // the whole run. Without the flag the backend resolves lazily from the
  // environment on first use; pinning here surfaces a bad value as a
  // clean CLI error instead of a mid-run throw. An explicit "avx2" on a
  // CPU without AVX2+FMA throws rather than silently falling back.
  const char* env_gemm = std::getenv("EDGESLICE_GEMM");
  const std::string gemm = args.get("gemm", env_gemm != nullptr ? env_gemm : "");
  if (!gemm.empty()) nn::set_gemm_backend(gemm.c_str());
  setup.train_steps = static_cast<std::size_t>(args.get_int_env(
      "steps", "EDGESLICE_TRAIN_STEPS", static_cast<std::int64_t>(setup.train_steps)));
  setup.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(setup.seed)));
  setup.eval_periods = static_cast<std::size_t>(
      args.get_int("periods", static_cast<std::int64_t>(setup.eval_periods)));
  setup.threads = static_cast<std::size_t>(args.get_int_env(
      "threads", "EDGESLICE_THREADS", static_cast<std::int64_t>(setup.threads)));
  setup.checkpoint_every = static_cast<std::size_t>(args.get_int(
      "checkpoint-every", static_cast<std::int64_t>(setup.checkpoint_every)));
  setup.checkpoint_out = args.get("checkpoint-out", setup.checkpoint_out);
  setup.resume_path = args.get("resume", setup.resume_path);
  setup.checkpoint_keep = static_cast<std::size_t>(args.get_int(
      "checkpoint-keep", static_cast<std::int64_t>(setup.checkpoint_keep)));
  setup.workers = static_cast<std::size_t>(args.get_int_env(
      "workers", "EDGESLICE_WORKERS", static_cast<std::int64_t>(setup.workers)));
  setup.telemetry_interval = static_cast<std::size_t>(args.get_int_env(
      "telemetry-interval", "EDGESLICE_TELEMETRY_INTERVAL",
      static_cast<std::int64_t>(setup.telemetry_interval)));

  // --metrics-out <path> (or EDGESLICE_METRICS_OUT) dumps the metrics
  // registry + span timings as JSON when the binary exits.
  const char* env_path = std::getenv("EDGESLICE_METRICS_OUT");
  const std::string metrics_out =
      args.get("metrics-out", env_path != nullptr ? env_path : "");
  if (!metrics_out.empty() && g_metrics_out_path.empty()) {
    g_metrics_out_path = metrics_out;
    // Touch the singletons before registering the handler: function-local
    // statics are destroyed in reverse construction order, so constructing
    // them first guarantees they outlive the atexit dump.
    global_metrics();
    global_tracer();
    obs::global_event_log();
    std::atexit(dump_metrics_at_exit);
  }

  // --events-out <path> (or EDGESLICE_EVENTS_OUT) dumps the flight
  // recorder as JSONL at exit, and — via the crash handlers — on
  // std::terminate or a fatal signal.
  const char* env_events = std::getenv("EDGESLICE_EVENTS_OUT");
  const std::string events_out =
      args.get("events-out", env_events != nullptr ? env_events : "");
  if (!events_out.empty() && g_events_out_path.empty()) {
    g_events_out_path = events_out;
    obs::global_event_log();
    obs::set_crash_dump_path(events_out);
    std::atexit(dump_events_at_exit);
  }

  // --telemetry-port <port> (or EDGESLICE_TELEMETRY_PORT) serves live
  // /metrics, /events.json, /spans.json and /healthz on localhost while
  // the bench runs; port 0 picks an ephemeral one (printed to stderr).
  const std::int64_t telemetry_port =
      args.get_int_env("telemetry-port", "EDGESLICE_TELEMETRY_PORT", -1);
  if (telemetry_port >= 0 && !g_telemetry_server) {
    global_metrics();
    global_tracer();
    obs::global_event_log();
    obs::TelemetryServerConfig server_config;
    server_config.port = static_cast<std::uint16_t>(telemetry_port);
    g_telemetry_server = std::make_unique<obs::TelemetryServer>(server_config);
    if (g_telemetry_server->start()) {
      std::fprintf(stderr, "[bench] telemetry on http://127.0.0.1:%u/metrics\n",
                   static_cast<unsigned>(g_telemetry_server->port()));
    }
    std::atexit(stop_telemetry_at_exit);
  }

  // --metrics-interval <periods> rewrites the observability snapshot
  // (atomically) every N orchestration periods during the run, not only
  // at exit; uses --metrics-out's path or edgeslice_metrics.json.
  const std::int64_t metrics_interval = args.get_int("metrics-interval", 0);
  if (metrics_interval > 0 && !g_snapshot_writer) {
    if (g_metrics_out_path.empty()) g_metrics_out_path = "edgeslice_metrics.json";
    global_metrics();
    global_tracer();
    obs::global_event_log();
    g_snapshot_writer = std::make_unique<obs::RollingSnapshotWriter>(
        g_metrics_out_path, static_cast<std::uint64_t>(metrics_interval));
    if (!g_telemetry_server) std::atexit(stop_telemetry_at_exit);
  }
  return setup;
}

void print_header(const std::string& title, const std::string& figure) {
  std::printf("# %s\n", title.c_str());
  std::printf("# Reproduces %s of EdgeSlice (ICDCS 2020). Values are shaped,\n",
              figure.c_str());
  std::printf("# not absolute, reproductions (see EXPERIMENTS.md).\n");
}

void print_series_header(const std::vector<std::string>& columns) {
  std::printf("#");
  for (const auto& c : columns) std::printf(" %14s", c.c_str());
  std::printf("\n");
}

void print_row(const std::vector<double>& values) {
  std::printf(" ");
  for (double v : values) std::printf(" %14.3f", v);
  std::printf("\n");
}

}  // namespace edgeslice::bench
