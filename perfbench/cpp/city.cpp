// city_drl and city_workers_ckpt: full city days through
// EdgeSliceSystem::run_period_into.
//
// Each day is built from scratch (the set-up sample), run for the day's
// 24 periods (the period samples) and torn down. Every day of a run uses
// the same seed, so every day must reproduce the oracle's trajectory
// digest exactly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "city_common.h"
#include "ckpt/rotation.h"
#include "common.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace_span.h"
#include "core/policies.h"
#include "core/system.h"
#include "env/environment.h"
#include "ipc/supervisor.h"
#include "obs/sla_watchdog.h"
#include "probes.h"
#include "rl/frozen.h"
#include "trace/diurnal.h"
#include "workloads.h"

namespace perfbench {

namespace es = edgeslice;

es::nn::Mlp city_actor(std::uint64_t seed, std::size_t state_dim, std::size_t action_dim) {
  es::Rng rng(seed ^ 0xa5a5a5a5ULL);
  return es::nn::Mlp({state_dim, kActorHidden, kActorHidden, action_dim},
                     es::nn::Activation::LeakyRelu, es::nn::Activation::Sigmoid, rng);
}

namespace {

constexpr double kPeakRate = 3.5;          // CityConfig default
constexpr std::size_t kSumRetention = 8;   // CityConfig default
constexpr std::size_t kDrlThreads = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kCheckpointEvery = 4;
constexpr std::size_t kCheckpointKeep = 2;
/// run_city's digest of the seed-1 TARO day (bench/city_common.h shape).
constexpr std::uint64_t kSeedOneTaroDigest = 0x17341a6faf40eafdULL;

/// The per-slice diurnal day of one cell, exactly as run_city builds it
/// (bench/city_common.cpp keeps its copy file-local).
std::vector<std::vector<double>> cell_day_profiles(const es::trace::CellProfile& cell,
                                                   std::size_t slices, std::size_t bins,
                                                   double peak_rate) {
  std::vector<std::vector<double>> per_slice(slices, std::vector<double>(bins, 0.0));
  for (std::size_t i = 0; i < slices; ++i) {
    const double shift_hours =
        24.0 * static_cast<double>(i) / (2.0 * static_cast<double>(slices));
    double max_activity = 0.0;
    for (std::size_t t = 0; t < bins; ++t) {
      const double hour = std::fmod(
          24.0 * (static_cast<double>(t) + 0.5) / static_cast<double>(bins) + shift_hours,
          24.0);
      per_slice[i][t] = es::trace::cell_activity(cell, hour);
      max_activity = std::max(max_activity, per_slice[i][t]);
    }
    if (max_activity <= 0.0) max_activity = 1.0;
    for (double& rate : per_slice[i]) rate = rate / max_activity * peak_rate;
  }
  return per_slice;
}

/// run_city's per-period digest, so a day here and a run_city day can be
/// compared bit for bit.
std::uint64_t period_digest(const es::core::PeriodResult& result) {
  const auto& cells = result.performance_sums.data();
  std::uint64_t hash = fnv1a(cells.data(), cells.size() * sizeof(double));
  hash = fnv1a(&result.system_performance, sizeof(double), hash);
  hash = fnv1a(result.slice_performance.data(),
               result.slice_performance.size() * sizeof(double), hash);
  const std::uint64_t counters[] = {
      result.coordinator_converged ? 1u : 0u, result.crashed_ras,
      result.reports_fresh,                   result.reports_carried,
      result.columns_frozen,                  result.rcl_losses};
  return fnv1a(counters, sizeof(counters), hash);
}

struct CityBuild {
  bool drl = false;
  bool probes = false;
  std::size_t threads = 1;  // in-process pool size; 1 runs the sequential path
  std::size_t workers = 0;  // worker processes; 0 runs in-process
  std::uint64_t seed = 1;
};

/// One city: run_city's construction, with the benchmark's probes wrapped
/// around every RA when asked for.
class City {
 public:
  explicit City(const CityBuild& build) : probes_(kCityRas) {
    es::Rng profile_rng(build.seed);
    const auto profiles = es::bench::make_profiles(kCitySlices, profile_rng);
    const auto model = es::bench::make_service_model(profiles);
    const std::shared_ptr<const es::env::PerformanceFunction> perf =
        es::env::make_queue_power_perf(2.0);

    es::env::RaEnvironmentConfig env_config;
    env_config.slices = kCitySlices;
    env_config.intervals_per_period = kCityIntervals;
    env_config.arrival_rate = kPeakRate;
    env_config.include_traffic_in_state = true;

    const std::size_t bins = kCityPeriods * kCityIntervals;
    es::Rng city_rng(build.seed + 9001);
    for (std::size_t j = 0; j < kCityRas; ++j) {
      std::shared_ptr<const es::env::ServiceModel> ra_model = model;
      std::shared_ptr<const es::env::PerformanceFunction> ra_perf = perf;
      if (build.probes) {
        ra_model = std::make_shared<TimedServiceModel>(model, probes_[j]);
        ra_perf = std::make_shared<TimedPerformance>(perf, probes_[j]);
      }
      environments_.push_back(std::make_unique<es::env::RaEnvironment>(
          env_config, profiles, ra_model, ra_perf, es::Rng(build.seed * 1000 + j)));
      const es::trace::CellProfile cell = es::trace::sample_cell_profile(city_rng);
      environments_.back()->set_arrival_profiles(
          cell_day_profiles(cell, kCitySlices, bins, kPeakRate));
    }

    if (build.drl) {
      const auto& first = *environments_.front();
      actor_ = std::make_shared<es::rl::FrozenActor>(
          city_actor(build.seed, first.state_dim(), first.action_dim()), "city_drl");
    }
    std::vector<es::env::RaEnvironment*> env_ptrs;
    std::vector<es::core::RaPolicy*> policy_ptrs;
    for (std::size_t j = 0; j < kCityRas; ++j) {
      if (build.drl) {
        policies_.push_back(std::make_unique<es::core::LearnedPolicy>(actor_, false));
      } else {
        policies_.push_back(std::make_unique<es::core::TaroPolicy>());
      }
      es::core::RaPolicy* policy = policies_.back().get();
      if (build.probes) {
        timed_policies_.push_back(std::make_unique<TimedPolicy>(
            *policy, probes_[j], kCityIntervals, /*ship=*/build.workers > 0));
        policy = timed_policies_.back().get();
      }
      env_ptrs.push_back(environments_[j].get());
      policy_ptrs.push_back(policy);
    }

    es::core::CoordinatorConfig coordinator;
    coordinator.slices = kCitySlices;
    coordinator.ras = kCityRas;
    coordinator.u_min.assign(kCitySlices, -5.0 * static_cast<double>(kCityRas) *
                                              static_cast<double>(kCityIntervals));
    watchdog_ = std::make_unique<es::obs::SlaWatchdog>(
        es::obs::SlaWatchdog::from_u_min(coordinator.u_min));

    es::core::SystemConfig system_config;
    system_config.watchdog = watchdog_.get();
    if (build.workers > 0) {
      // Fork before any thread exists in this process.
      es::ipc::SupervisorConfig supervisor_config;
      supervisor_config.workers = build.workers;
      supervisor_config.telemetry_every = 1;
      supervisor_ = std::make_unique<es::ipc::WorkerSupervisor>(env_ptrs, policy_ptrs,
                                                                supervisor_config);
      supervisor_->start();
      if (build.probes) {
        timed_transport_ = std::make_unique<TimedTransport>(*supervisor_);
        system_config.transport = timed_transport_.get();
      } else {
        system_config.transport = supervisor_.get();
      }
    } else if (build.threads > 1) {
      pool_ = std::make_unique<es::ThreadPool>(build.threads);
      system_config.pool = pool_.get();
    }
    system_ = std::make_unique<es::core::EdgeSliceSystem>(env_ptrs, policy_ptrs, coordinator,
                                                          system_config);
    system_->monitor().set_row_recording(false);
    system_->monitor().set_period_sum_retention(kSumRetention);
    es::global_tracer().set_period_retention(kCityPeriods + 16);
  }

  ~City() { stop_workers(); }
  City(const City&) = delete;
  City& operator=(const City&) = delete;

  es::core::EdgeSliceSystem& system() { return *system_; }
  std::vector<RaProbes>& probes() { return probes_; }
  TimedTransport* transport() { return timed_transport_.get(); }
  std::size_t threads() const { return pool_ ? pool_->thread_count() : 1; }
  const es::nn::Mlp* network() const { return actor_ ? actor_->inference_actor() : nullptr; }
  /// Shut the workers down; their final telemetry is merged on the way.
  void stop_workers() {
    if (supervisor_) supervisor_->stop();
  }

 private:
  std::vector<RaProbes> probes_;  // sized once: decorators hold references
  std::vector<std::unique_ptr<es::env::RaEnvironment>> environments_;
  std::shared_ptr<es::rl::Agent> actor_;
  std::vector<std::unique_ptr<es::core::RaPolicy>> policies_;
  std::vector<std::unique_ptr<TimedPolicy>> timed_policies_;
  std::unique_ptr<es::obs::SlaWatchdog> watchdog_;
  std::unique_ptr<es::ipc::WorkerSupervisor> supervisor_;
  std::unique_ptr<TimedTransport> timed_transport_;
  std::unique_ptr<es::ThreadPool> pool_;
  std::unique_ptr<es::core::EdgeSliceSystem> system_;
};

struct Day {
  std::vector<double> period_s;  // run_period_into alone
  std::vector<double> loop_s;    // run_period_into plus the checkpoint save it ends with
  std::vector<double> checkpoint_s;
  std::uintmax_t checkpoint_bytes = 0;
  std::uint64_t digest = 0;
  std::uint64_t failed_ra_periods = 0;
  /// Sum over periods of the RA busy window across all RAs (first decide
  /// start to last feedback end); probed in-process days only.
  double busy_window_s = 0.0;
};

/// Run one day. With a non-empty `checkpoint_base`, save a rotated
/// checkpoint (keep 2) every kCheckpointEvery periods.
Day run_day(City& city, const std::string& checkpoint_base, bool probed) {
  Day day;
  es::core::PeriodResult result;
  std::vector<std::uint64_t> digests;
  std::optional<es::ckpt::CheckpointRotation> rotation;
  if (!checkpoint_base.empty()) rotation.emplace(checkpoint_base, kCheckpointKeep);
  day.period_s.reserve(kCityPeriods);
  day.loop_s.reserve(kCityPeriods);
  for (std::size_t p = 0; p < kCityPeriods; ++p) {
    const auto start = Clock::now();
    city.system().run_period_into(result);
    const auto ran = Clock::now();
    double loop = seconds_between(start, ran);
    std::string saved;
    if (rotation && (p + 1) % kCheckpointEvery == 0 && p + 1 < kCityPeriods) {
      saved = rotation->path_for(p + 1);
      const auto save_start = Clock::now();
      if (!city.system().save_checkpoint(saved)) {
        throw std::runtime_error("cannot write checkpoint " + saved);
      }
      rotation->prune(p + 1);
      const double save = seconds_since(save_start);
      loop += save;
      day.checkpoint_s.push_back(save);
    }
    day.period_s.push_back(seconds_between(start, ran));
    day.loop_s.push_back(loop);
    // Untimed: oracle digest, failure count, probe windows.
    digests.push_back(period_digest(result));
    day.failed_ra_periods += result.crashed_ras;
    if (!saved.empty()) day.checkpoint_bytes += std::filesystem::file_size(saved);
    if (probed) {
      Clock::time_point first = Clock::time_point::max();
      Clock::time_point last = Clock::time_point::min();
      for (RaProbes& ra : city.probes()) {
        if (!ra.period_open) continue;
        first = std::min(first, ra.period_start);
        last = std::max(last, ra.period_end);
        ra.period_open = false;
      }
      if (first < last) day.busy_window_s += seconds_between(first, last);
    }
  }
  day.digest = fnv1a(digests.data(), digests.size() * sizeof(std::uint64_t));
  return day;
}

std::string last_component(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Sum of the overall stats of every span path ending in `name` (the
/// tracer nests a span under whatever span its thread has open).
es::SpanStats span_sum(const std::string& name) {
  es::SpanStats sum;
  for (const auto& path : es::global_tracer().names()) {
    if (last_component(path) != name) continue;
    const es::SpanStats stats = es::global_tracer().overall(path);
    sum.count += stats.count;
    sum.total_s += stats.total_s;
  }
  return sum;
}

/// Per period, the smallest sample of every span path ending in `name`.
std::map<std::size_t, double> span_period_min(const std::string& name) {
  std::map<std::size_t, double> mins;
  for (const auto& path : es::global_tracer().names()) {
    if (last_component(path) != name) continue;
    for (const auto& [period, stats] : es::global_tracer().periods(path)) {
      auto [it, fresh] = mins.emplace(period, stats.min_s);
      if (!fresh) it->second = std::min(it->second, stats.min_s);
    }
  }
  return mins;
}

std::uint64_t counter_value(const std::string& name) {
  return es::global_metrics().counter(name).value();
}

/// Sum of every worker-labelled copy of a counter.
std::uint64_t worker_counter_sum(const std::string& name) {
  std::uint64_t sum = 0;
  for (const auto& [key, value] : es::global_metrics().snapshot().counters) {
    if (key.rfind(name + "{", 0) == 0) sum += value;
  }
  return sum;
}

/// Largest per-worker total of a worker-labelled histogram.
double worker_histogram_max_total(const std::string& name) {
  double most = 0.0;
  for (const auto& [key, state] : es::global_metrics().snapshot().histograms) {
    if (key.rfind(name + "{", 0) == 0) most = std::max(most, state.total);
  }
  return most;
}

/// Layer totals gathered over the probed days of a run.
struct CityLayers {
  std::size_t days = 0;
  double periods = 0.0;
  double period_s = 0.0;
  double ra_intervals_s = 0.0;  // per-thread share (in-process) / transport span (workers)
  double pool_wait_s = 0.0;
  double coordinate_s = 0.0;
  double solve_s = 0.0;
  Tally decide, env_step, service_model, perf;
  // Worker path.
  Tally run_intervals, coordination, end_period;
  double worker_compute_s = 0.0;
  double send_retries = 0.0;
  std::vector<std::size_t> actor_sizes;  // empty for TARO
};

struct IpcMark {
  std::uint64_t frames = 0, bytes = 0, retries = 0;
  static IpcMark now() {
    return {counter_value("ipc.frames_sent") + counter_value("ipc.frames_received"),
            counter_value("ipc.bytes_sent") + counter_value("ipc.bytes_received"),
            counter_value("ipc.send_retries")};
  }
};

void fold_probed_day(CityLayers& layers, City& city, const Day& day, bool workers) {
  ++layers.days;
  if (city.network() != nullptr) layers.actor_sizes = city.network()->layer_sizes();
  layers.periods += static_cast<double>(day.period_s.size());
  for (double s : day.period_s) layers.period_s += s;
  layers.coordinate_s += span_sum("coordinate").total_s;
  layers.solve_s += span_sum("coordinator.solve").total_s;
  if (workers) {
    layers.ra_intervals_s += span_sum("system.transport_intervals").total_s;
    TimedTransport& transport = *city.transport();
    layers.run_intervals += transport.run_intervals_tally;
    layers.coordination += transport.coordination_tally;
    layers.end_period += transport.end_period_tally;
    layers.worker_compute_s += worker_histogram_max_total("worker.ra_period_seconds");
    layers.decide += shipped_tally("rl.decide");
    layers.env_step += shipped_tally("env.step");
    layers.service_model += shipped_tally("env.service_model");
    layers.perf += shipped_tally("env.perf");
    layers.send_retries += static_cast<double>(worker_counter_sum("ipc.send_retries"));
    return;
  }
  const double threads = static_cast<double>(city.threads());
  const double busy_per_thread = span_sum("system.ra_intervals").total_s / threads;
  double dispatch_s = 0.0;
  for (const auto& [period, wait] : span_period_min("system.pool_queue_wait")) {
    dispatch_s += wait;
  }
  layers.ra_intervals_s += busy_per_thread;
  // The pool phase lasts from dispatch to the last RA's end; whatever of
  // it an average thread did not spend inside an RA body is pool wait.
  layers.pool_wait_s += day.busy_window_s + dispatch_s - busy_per_thread;
  for (RaProbes& ra : city.probes()) {
    layers.decide += ra.decide;
    layers.env_step += ra.env_step;
    layers.service_model += ra.service_model;
    layers.perf += ra.perf;
  }
}

double per_call_us(const Tally& t) { return t.per_call_s() * 1e6; }

struct CityRunShape {
  const char* workload;
  bool drl;
  std::size_t threads;
  std::size_t workers;
  bool checkpoints;
};

Record run_city_workload(const CityRunShape& shape, const RunOptions& options) {
  Record record;
  record.workload = shape.workload;
  record.seed = options.seed;
  record.traced = options.traced;
  const bool workers = shape.workers > 0;

  // --- Oracle reference, outside the measurement window --------------------
  std::uint64_t reference = 0;
  std::string reference_name;
  if (shape.drl) {
    City city({.drl = true, .probes = false, .threads = 1, .workers = 0, .seed = options.seed});
    reference = run_day(city, "", false).digest;
    reference_name = "1-thread in-process day";
  } else {
    es::bench::city::CityConfig config;
    config.seed = options.seed;
    reference = es::bench::city::run_city(config).trajectory_digest;
    reference_name = "in-process TARO day (bench::city::run_city)";
    if (options.seed == 1) {
      record.oracle("seed1_taro_digest", reference == kSeedOneTaroDigest,
                    "run_city seed 1 = " + hex64(reference) + ", expected " +
                        hex64(kSeedOneTaroDigest));
    }
  }

  // --- Measurement window ----------------------------------------------------
  std::vector<double> setup_s, day_rate, period_ms, untraced_cost, traced_cost;
  std::vector<double> checkpoint_ms;
  std::uintmax_t checkpoint_bytes_per_day = 0;
  bool checkpoint_bytes_repeat = true;
  std::size_t mismatches = 0;
  std::uint64_t first_mismatch = 0;
  CityLayers layers;
  IpcMark ipc_total{};
  const std::string checkpoint_base =
      shape.checkpoints ? options.scratch_dir + "/city.ckpt" : std::string();
  const auto build = [&](bool probed) {
    return CityBuild{.drl = shape.drl,
                     .probes = probed,
                     .threads = shape.threads,
                     .workers = shape.workers,
                     .seed = options.seed};
  };

  const auto window = Clock::now();
  double day_cost_estimate = 0.0;
  for (std::size_t day_index = 0;; ++day_index) {
    const bool probed = options.traced && day_index % 2 == 1;
    const std::size_t min_days = options.traced ? 2 : 1;
    if (day_index >= min_days &&
        seconds_since(window) + day_cost_estimate > options.seconds) {
      break;
    }
    const auto day_start = Clock::now();
    es::global_tracer().clear();
    const IpcMark before = IpcMark::now();

    const auto setup_start = Clock::now();
    City city(build(probed));
    const double setup = seconds_since(setup_start);

    const Day day = run_day(city, checkpoint_base, probed && !workers);
    city.stop_workers();

    if (day.digest != reference) {
      if (mismatches++ == 0) first_mismatch = day.digest;
    }
    record.attempted += kCityRas * kCityPeriods;
    record.failed += day.failed_ra_periods;
    double loop_total = 0.0;
    for (double s : day.loop_s) loop_total += s;
    const double mean_period = loop_total / static_cast<double>(day.loop_s.size());
    if (day_index > 0 && shape.checkpoints && day.checkpoint_bytes != checkpoint_bytes_per_day) {
      checkpoint_bytes_repeat = false;
    }
    checkpoint_bytes_per_day = day.checkpoint_bytes;
    for (double s : day.checkpoint_s) checkpoint_ms.push_back(s * 1e3);

    if (probed) {
      fold_probed_day(layers, city, day, workers);
      if (workers) {
        const IpcMark after = IpcMark::now();
        ipc_total.frames += after.frames - before.frames;
        ipc_total.bytes += after.bytes - before.bytes;
        ipc_total.retries += after.retries - before.retries;
      }
      traced_cost.push_back(mean_period);
    } else {
      setup_s.push_back(setup);
      day_rate.push_back(static_cast<double>(day.loop_s.size()) / loop_total);
      for (double s : day.loop_s) period_ms.push_back(s * 1e3);
      untraced_cost.push_back(mean_period);
    }
    std::fprintf(stderr, "[perfbench] %s day %zu%s: setup %.1f ms, %.1f periods/s\n",
                 shape.workload, day_index, probed ? " (probed)" : "", setup * 1e3,
                 static_cast<double>(day.loop_s.size()) / loop_total);
    day_cost_estimate = std::max(day_cost_estimate, seconds_since(day_start));
  }
  record.run_seconds = seconds_since(window);
  while (setup_s.size() < kMinSetupSamples) {
    const auto setup_start = Clock::now();
    City city(build(false));
    setup_s.push_back(seconds_since(setup_start));
  }

  record.oracle("trajectory_digest", mismatches == 0,
                std::to_string(day_rate.size() + layers.days) + " days vs " + reference_name +
                    " " + hex64(reference) +
                    (mismatches ? "; " + std::to_string(mismatches) +
                                      " mismatched, first " + hex64(first_mismatch)
                                : std::string()));
  record.digests["trajectory"] = hex64(reference);
  if (shape.checkpoints) {
    record.oracle("checkpoint_bytes_repeat", checkpoint_bytes_repeat && checkpoint_bytes_per_day > 0,
                  std::to_string(checkpoint_bytes_per_day) + " checkpoint bytes per day");
  }

  // --- End-to-end ------------------------------------------------------------
  const double rate = median(day_rate);
  const double p50 = median(period_ms);
  const double p90 = percentile_or_zero(period_ms, 90.0);
  const double p99 = percentile_or_zero(period_ms, 99.0);
  const double setup = median(setup_s);
  const double failed_share = record.attempted
                                  ? static_cast<double>(record.failed) / record.attempted
                                  : 0.0;
  const std::string samples = std::to_string(period_ms.size()) + " periods over " +
                              std::to_string(day_rate.size()) + " days";
  record.end_to_end = {
      {"setup_s", setup, "s", "median city build over " + std::to_string(setup_s.size()) + " builds"},
      {"throughput_per_s", rate, "1/s", "periods_per_s: median over days"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", "this process"},
  };
  record.named = {
      {"periods_per_s", rate, "1/s", ""},
      {"period_p50_ms", p50, "ms", samples},
      {"period_p90_ms", p90, "ms", samples},
      {"period_p99_ms", p99, "ms", samples},
      {"setup_s", setup, "s", ""},
      {"failed_share", failed_share, "ratio", "RA-periods not run or crashed / attempted"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", ""},
  };

  // --- Exact work counters (repeat run to run) ------------------------------
  if (shape.checkpoints) {
    record.counters.push_back({"ckpt.bytes_per_day", static_cast<double>(checkpoint_bytes_per_day),
                               "B", "computed count: sum of checkpoint file sizes"});
  }

  // --- Per-layer (traced run) -------------------------------------------------
  if (options.traced) {
    std::vector<Metric> sheet = per_layer_sheet();
    const double periods = layers.periods;
    const auto per_period_ms = [&](double seconds) { return seconds / periods * 1e3; };
    const double period = per_period_ms(layers.period_s);
    const double ra_intervals = per_period_ms(layers.ra_intervals_s);
    const double pool_wait = per_period_ms(layers.pool_wait_s);
    const double coordinate = per_period_ms(layers.coordinate_s);
    set_layer(sheet, "core.period_ms", period, "run_period_into, timed by the benchmark");
    set_layer(sheet, "core.ra_intervals_ms", ra_intervals,
              workers ? "system.transport_intervals span"
                      : "system.ra_intervals span / pool threads");
    set_layer(sheet, "core.pool_wait_ms", pool_wait,
              workers ? "no pool on the worker path"
                      : "pool phase (dispatch + RA busy window) minus ra_intervals");
    set_layer(sheet, "core.coordinate_ms", coordinate, "coordinate span");
    set_layer(sheet, "core.unattributed_ms", period - ra_intervals - pool_wait - coordinate,
              "period minus the parts above");
    set_layer(sheet, "opt.solve_ms", per_period_ms(layers.solve_s), "coordinator.solve span");
    set_layer(sheet, "rl.decide_us", per_call_us(layers.decide), "RaPolicy decorator, per call");
    const double decide_calls = static_cast<double>(layers.decide.calls) / periods;
    set_layer(sheet, "rl.decide_calls", decide_calls, "per period");
    if (!layers.actor_sizes.empty()) {
      const double flops = decide_calls * forward_flops(layers.actor_sizes, 1.0);
      set_layer(sheet, "nn.infer_flops_per_period", flops,
                "computed count: decide calls x 2*in*out per layer");
      record.counters.push_back(
          {"nn.infer_flops_per_period", flops, "flop", "computed count from layer shapes"});
    } else {
      set_layer(sheet, "nn.infer_flops_per_period", 0.0, "TARO runs no network");
    }
    set_layer(sheet, "env.service_model_us", per_call_us(layers.service_model),
              "ServiceModel decorator, per call");
    const double service_calls = static_cast<double>(layers.service_model.calls) / periods;
    set_layer(sheet, "env.service_model_calls", service_calls, "per period");
    record.counters.push_back({"env.service_model_calls_per_period", service_calls, "count",
                               "computed count: ServiceModel calls"});
    set_layer(sheet, "env.perf_us", per_call_us(layers.perf),
              "PerformanceFunction decorator, per call");
    set_layer(sheet, "env.step_us", per_call_us(layers.env_step),
              "derived: decide return to feedback, per step");
    if (workers) {
      const double run_intervals = per_period_ms(layers.run_intervals.seconds);
      const double compute = per_period_ms(layers.worker_compute_s);
      set_layer(sheet, "ipc.run_intervals_ms", run_intervals, "RaTransport decorator");
      set_layer(sheet, "ipc.worker_compute_ms", compute,
                "slowest worker's worker.ra_period_seconds total");
      set_layer(sheet, "ipc.wait_ms", run_intervals - compute,
                "run_intervals minus slowest worker compute");
      set_layer(sheet, "ipc.coordination_ms", per_period_ms(layers.coordination.seconds),
                "RaTransport decorator");
      set_layer(sheet, "ipc.end_period_ms", per_period_ms(layers.end_period.seconds),
                "RaTransport decorator");
      const double frames = static_cast<double>(ipc_total.frames) / periods;
      set_layer(sheet, "ipc.frames_per_period", frames,
                "supervisor frames sent + received over whole days, incl. start/stop");
      record.counters.push_back({"ipc.frames_per_period", frames, "count",
                                 "computed count: ipc.frames_sent + ipc.frames_received"});
      set_layer(sheet, "ipc.bytes_per_period", static_cast<double>(ipc_total.bytes) / periods,
                "supervisor bytes sent + received (telemetry sizes vary)");
      set_layer(sheet, "ipc.send_retries",
                static_cast<double>(ipc_total.retries) + layers.send_retries,
                "supervisor + workers, over the probed days");
    }
    if (shape.checkpoints) {
      set_layer(sheet, "ckpt.save_p50_ms", median(checkpoint_ms), "save_checkpoint, timed");
      set_layer(sheet, "ckpt.save_max_ms",
                checkpoint_ms.empty()
                    ? 0.0
                    : *std::max_element(checkpoint_ms.begin(), checkpoint_ms.end()),
                "save_checkpoint, timed");
      const double saves_per_day =
          static_cast<double>((kCityPeriods - 1) / kCheckpointEvery);
      set_layer(sheet, "ckpt.bytes", static_cast<double>(checkpoint_bytes_per_day) / saves_per_day,
                "mean checkpoint file size");
    }
    set_layer(sheet, "trace_overhead_share", overhead_share(traced_cost, untraced_cost),
              "mean period, probed days vs unprobed days");
    record.per_layer = std::move(sheet);
  }
  return record;
}

}  // namespace

Record run_city_drl(const RunOptions& options) {
  return run_city_workload({"city_drl", true, kDrlThreads, 0, false}, options);
}

Record run_city_workers_ckpt(const RunOptions& options) {
  return run_city_workload({"city_workers_ckpt", false, 1, kWorkers, true}, options);
}

}  // namespace perfbench
