// The benchmark's four workloads (README.md in this directory says why
// each exists and which layers it stresses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/mlp.h"
#include "record.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measurement window
  bool traced = false;
  std::string scratch_dir;  // checkpoints go here; created and removed by run.py
};

Record run_city_drl(const RunOptions& options);
Record run_city_workers_ckpt(const RunOptions& options);
Record run_ddpg_train(const RunOptions& options);
Record run_serve_open_loop(const RunOptions& options);

/// Each run reports setup_s as the median of at least this many set-ups;
/// a workload whose measurement window held fewer adds set-up-only
/// samples after the window.
inline constexpr std::size_t kMinSetupSamples = 15;

/// The city shape every workload shares (bench/city_common.h defaults).
inline constexpr std::size_t kCityRas = 128;
inline constexpr std::size_t kCitySlices = 8;
inline constexpr std::size_t kCityPeriods = 24;
inline constexpr std::size_t kCityIntervals = 6;

/// The seeded deployment actor of city_drl and serve_open_loop:
/// [state, 64, 64, action], LeakyReLU hidden layers, sigmoid head.
/// Inference cost does not depend on the weights, so no training is needed.
edgeslice::nn::Mlp city_actor(std::uint64_t seed, std::size_t state_dim,
                              std::size_t action_dim);
inline constexpr std::size_t kActorHidden = 64;

/// Every per-layer metric the traced run reports, in order, each set to 0
/// with a "not exercised by this workload" note until a workload fills it.
std::vector<Metric> per_layer_sheet();
/// Set one per-layer metric (throws std::logic_error on an unknown name).
void set_layer(std::vector<Metric>& sheet, const std::string& name, double value,
               const std::string& note = "");

/// Median of `xs` relative to the median of `base`, minus one: the traced
/// run's cost relative to the untraced one (0 when either side is empty).
double overhead_share(const std::vector<double>& traced_cost,
                      const std::vector<double>& untraced_cost);

}  // namespace perfbench
