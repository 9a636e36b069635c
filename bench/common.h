// Shared scaffolding for the figure-regeneration benches.
//
// Every bench binary reproduces one figure of the paper's evaluation
// (Sec. VII). The agents are trained at a reduced step count appropriate
// for a single-core CPU box (the paper trains 1e6 steps per agent on a
// GPU); override with --steps or EDGESLICE_TRAIN_STEPS. Shapes — which
// algorithm wins, by roughly what factor, where crossovers fall — are the
// reproduction target, not absolute values (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/rotation.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/system.h"
#include "core/training.h"
#include "env/service_model.h"
#include "rl/agent.h"
#include "rl/ddpg.h"
#include "trace/trace.h"

namespace edgeslice::bench {

/// Experiment-wide knobs, defaulting to the prototype setup (Sec. VII-C):
/// 2 slices, 2 RAs, t = 1 s, T = 10, Poisson arrivals at rate 10.
struct Setup {
  std::size_t slices = 2;
  std::size_t ras = 2;
  std::size_t intervals_per_period = 10;
  double arrival_rate = 10.0;
  double alpha = 2.0;                 // performance-function exponent
  bool service_time_perf = false;     // Fig. 11(b)'s alternative function
  bool trace_driven = false;          // Fig. 9-11: Trentino-style diurnal traffic
  double trace_peak_rate = 14.0;      // peak Poisson rate the trace maps to
  std::uint64_t seed = 1;
  std::size_t train_steps = 12000;    // scaled stand-in for the paper's 1e6
  std::size_t eval_periods = 10;
  /// Worker budget for train_agents_for and run_contender (--threads).
  /// Results are bit-identical at any thread count (see DESIGN.md Sec. 7).
  std::size_t threads = 1;
  /// Non-owning pool the bench main() constructs from `threads`; null runs
  /// everything sequentially.
  ThreadPool* pool = nullptr;
  /// Worker processes for the evaluation runs (--workers). 0 keeps every
  /// RA in this process; N > 0 forks N supervised workers and drives them
  /// over the ESFR wire protocol. Results are bit-identical at any worker
  /// count (see DESIGN.md "Process model & supervision"); when set, the
  /// evaluation ignores `pool` (the transport supersedes it).
  std::size_t workers = 0;
  /// Worker->supervisor telemetry shipping cadence in periods
  /// (--telemetry-interval). 1 ships a snapshot + drained events every
  /// period; N > 1 coarsens the cadence; 0 disables shipping entirely.
  /// Telemetry is observation only and never touches the deterministic
  /// path — digests are bit-identical at any cadence (DESIGN.md
  /// "Fleet telemetry").
  std::size_t telemetry_interval = 1;
  /// Mid-run checkpointing (--checkpoint-every / --checkpoint-out /
  /// --resume). For training benches the cadence is in steps; for the
  /// fault-tolerance ablation it is in periods. Empty/0 disables.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_out;
  std::string resume_path;
  /// Keep-last-N rotation for period-cadence checkpoints
  /// (--checkpoint-keep). 0 rewrites one file in place (historic
  /// behaviour); N >= 1 writes "<out>.p<period>" per boundary and prunes
  /// older siblings only after the new file is durably published, so a
  /// crash never leaves zero valid checkpoints (see src/ckpt/rotation.h).
  std::size_t checkpoint_keep = 0;
};

/// Period-cadence checkpointing of an EdgeSliceSystem for the chaos and
/// city benches. Checkpoints go to `checkpoint_out`, else `resume_path`;
/// with keep > 0 that path is a rotation base (src/ckpt/rotation.h).
class PeriodCheckpoints {
 public:
  PeriodCheckpoints(std::string resume_path, const std::string& checkpoint_out,
                    std::size_t every, std::size_t keep, std::string tag);
  /// Restore from the newest valid rotation file, or the plain file if it
  /// exists; returns the period to continue from (0 without a source).
  std::size_t resume(core::EdgeSliceSystem& system) const;
  /// After period `p` of `periods`: at every `every`-th boundary before the
  /// last, publish a checkpoint, then prune. Exits 2 when the write fails.
  void after_period(const core::EdgeSliceSystem& system, std::size_t p,
                    std::size_t periods) const;

 private:
  std::string resume_path_;
  std::string path_;
  std::size_t every_;
  std::size_t keep_;
  std::string tag_;  // stderr line prefix
  std::optional<ckpt::CheckpointRotation> rotation_;
};

/// The simulation setup of Sec. VII-D: 5 slices, 10 RAs, 24-interval
/// periods, trace-driven traffic.
inline Setup simulation_setup() {
  Setup s;
  s.slices = 5;
  s.ras = 10;
  s.intervals_per_period = 24;
  s.trace_driven = true;
  // With five slices sharing one RA the per-slice load must be lower than
  // the two-slice prototype's for the system to be schedulable at all:
  // at 6 tasks/interval/slice the aggregate demand is ~60% of the dominant
  // resource, and the diurnal peak (phase-shifted across slices) pushes
  // the busiest hours toward ~85% — the regime where orchestration
  // quality separates the contenders without making every policy collapse.
  s.arrival_rate = 6.0;
  s.trace_peak_rate = 9.0;
  // Larger state/action spaces cost more per training step; the default
  // budget is reduced to keep the full figure suite under an hour on one
  // core. Raise with --steps for closer-to-paper results.
  s.train_steps = 6000;
  return s;
}

/// Application profiles: the two archetypes for the prototype experiments;
/// random (resolution, model) picks for larger simulations, as in Sec. VII-D.
std::vector<env::AppProfile> make_profiles(std::size_t slices, Rng& rng);

/// The shared environment configuration for a setup.
env::RaEnvironmentConfig env_config(const Setup& setup, bool traffic_in_state);

/// One performance function instance per call (they are stateless).
std::shared_ptr<const env::PerformanceFunction> make_perf(const Setup& setup);

/// The Sec. VI-B service model: per-profile grid datasets + local linear
/// regression, grounded in the prototype substrate capacities.
std::shared_ptr<const env::ServiceModel> make_service_model(
    const std::vector<env::AppProfile>& profiles);

/// Per-RA environments (seeded deterministically from setup.seed).
std::vector<std::unique_ptr<env::RaEnvironment>> make_environments(
    const Setup& setup, const std::vector<env::AppProfile>& profiles,
    std::shared_ptr<const env::ServiceModel> model, bool traffic_in_state,
    std::uint64_t seed_offset = 0);

/// Attach trace-driven arrival profiles to each RA (one trace cell per RA,
/// slices shifted within the cell's diurnal curve).
void apply_trace_traffic(const Setup& setup,
                         std::vector<std::unique_ptr<env::RaEnvironment>>& environments,
                         Rng& rng);

/// Train one agent of `algorithm` for the setup (offline, per Sec. VI-A/B).
/// The same trained agent is deployed to every RA of the evaluation system
/// (the RAs are statistically identical, so per-RA training would converge
/// to the same policy; sharing keeps single-core bench time sane).
std::shared_ptr<rl::Agent> train_agent_for(const Setup& setup, rl::Algorithm algorithm,
                                           bool traffic_in_state, Rng& rng);

/// One offline training request for train_agents_for.
struct TrainingSpec {
  Setup setup;
  rl::Algorithm algorithm = rl::Algorithm::Ddpg;
  bool traffic_in_state = true;
};

/// Train every spec — concurrently when `pool` has workers, sequentially
/// otherwise — and return the deployed agents indexed like `specs`. One
/// Rng stream is spawned from `rng` per spec, in spec order, before any
/// training starts, so the returned agents are bit-identical at any
/// thread count. Specs in one batch must not share a policy-cache path
/// (i.e. no two identical (setup, algorithm, state) triples).
std::vector<std::shared_ptr<rl::Agent>> train_agents_for(
    const std::vector<TrainingSpec>& specs, Rng& rng, ThreadPool* pool = nullptr);

/// Results of an evaluated system run.
struct RunResult {
  double total_performance = 0.0;              // sum U over everything
  double per_ra_performance = 0.0;             // total / ras / periods
  double per_slice_performance = 0.0;          // total / slices / periods
  std::vector<double> system_series;           // per interval, summed over RAs
  std::vector<std::vector<double>> slice_series;  // [slice][interval]
};

enum class Contender { EdgeSlice, EdgeSliceNt, Taro };
const char* contender_name(Contender contender);

/// Build policies + run the full Alg. 1 system for one contender.
/// For the learned contenders an agent is trained first (or supplied).
RunResult run_contender(const Setup& setup, Contender contender, Rng& rng,
                        std::shared_ptr<rl::Agent> trained = nullptr,
                        core::SystemMonitor* monitor_out = nullptr);

/// Parse the standard bench flags (--steps, --seed, --periods, --threads,
/// --metrics-out, --telemetry-port, --metrics-interval, --events-out)
/// into `setup`. All telemetry is observation only — results are
/// unchanged by it:
///   --metrics-out <path>      (EDGESLICE_METRICS_OUT) exit hook writing
///       metrics + spans + events as one JSON document, atomically
///       (atomic_write_file).
///   --telemetry-port <port>   (EDGESLICE_TELEMETRY_PORT) localhost HTTP
///       server with /metrics (Prometheus), /events.json, /spans.json,
///       /healthz; port 0 picks an ephemeral port (printed to stderr).
///   --metrics-interval <n>    rewrite the --metrics-out snapshot every n
///       orchestration periods during the run, atomically.
///   --events-out <path>       (EDGESLICE_EVENTS_OUT) flight-recorder
///       JSONL at exit, and on std::terminate / fatal signals via the
///       crash handlers.
///   --checkpoint-every <n>    write an ESCK checkpoint of the complete
///       training state every n steps (periods for the fault-tolerance
///       ablation). Observation-only: results are unchanged.
///   --checkpoint-out <path>   checkpoint destination (default
///       edgeslice_train.ckpt, or the --resume path when given).
///   --resume <path>           resume from a checkpoint before the first
///       step; a missing file starts fresh, so crash-and-rerun loops need
///       no existence check. The remaining steps are bit-identical to an
///       uninterrupted run (see FORMATS.md / DESIGN.md Sec. 9).
///   --checkpoint-keep <n>     rotate period-cadence checkpoints instead
///       of rewriting one file: each boundary writes "<out>.p<period>"
///       and the oldest siblings beyond n are pruned only after the new
///       one is published. --resume then names the rotation BASE and the
///       newest sibling that validates is loaded.
///   --workers <n>             (EDGESLICE_WORKERS) run the evaluation's
///       RAs in n supervised worker processes over the ESFR wire
///       protocol; 0 (default) keeps everything in-process. Bit-identical
///       at any n, including under worker-kill chaos plans.
///   --telemetry-interval <n>  (EDGESLICE_TELEMETRY_INTERVAL) ship each
///       worker's metrics/span/event telemetry to the supervisor every n
///       periods (default 1); 0 disables shipping. Observation only:
///       digests are bit-identical at any cadence.
///   --gemm <mode>             (EDGESLICE_GEMM) pin the nn GEMM backend:
///       scalar | avx2 | auto (default auto). Pinning is a reproducibility
///       statement — "avx2" on an unsupported CPU is an error, never a
///       silent fallback. See DESIGN.md "GEMM dispatch".
Setup parse_common_flags(int argc, char** argv, Setup setup,
                         const std::vector<std::string>& extra_flags = {});

/// Printing helpers for paper-style tables.
void print_header(const std::string& title, const std::string& figure);
void print_series_header(const std::vector<std::string>& columns);
void print_row(const std::vector<double>& values);

}  // namespace edgeslice::bench
