// Layer probes: decorators over the program's own virtual extension points.
//
// The benchmark never edits the program to see inside it. Where the
// spans and counters the program already records are not enough, it
// wraps the interface a layer is reached through and times the calls:
//
//   core::RaPolicy           -> rl decide, plus the env step between a
//                               decide and its feedback
//   env::ServiceModel        -> env service-model calls
//   env::PerformanceFunction -> env performance-function calls
//   core::RaTransport        -> ipc run_intervals / coordination / end_period
//   rl::Agent                -> rl act / observe, and the train-step clock
//
// Every decorator forwards verbatim, so a decorated run is bit-identical
// to an undecorated one (the oracles check exactly that).
//
// Threading: one RaProbes bundle belongs to one RA. The program touches
// an RA's policy and environment from one thread at a time, with a
// barrier between periods, so the tallies need no atomics. Inside a
// worker process the bundle ships its totals as worker counters (see
// ship_to_worker_counters), which the supervisor's telemetry aggregator
// merges into this process's registry under worker="<slot>" labels.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policies.h"
#include "core/ra_transport.h"
#include "env/perf.h"
#include "env/service_model.h"
#include "record.h"
#include "rl/agent.h"
#include "rl/ddpg.h"

namespace perfbench {

/// Calls to one layer and the time spent in the timed ones. Most probes
/// time every call; the sub-microsecond env calls are timed one in
/// kSampleEvery (counted exactly), which keeps the clock reads from
/// swamping what they measure.
struct Tally {
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;
  double seconds = 0.0;
  void add(double s) {
    ++calls;
    ++timed;
    seconds += s;
  }
  Tally& operator+=(const Tally& other) {
    calls += other.calls;
    timed += other.timed;
    seconds += other.seconds;
    return *this;
  }
  /// Mean seconds per timed call (0 when none was timed).
  double per_call_s() const { return timed ? seconds / static_cast<double>(timed) : 0.0; }
};

inline constexpr std::uint64_t kSampleEvery = 8;

/// Everything measured about one RA.
struct RaProbes {
  Tally decide;         // RaPolicy::decide / decide_into
  Tally env_step;       // decide returned -> feedback called
  Tally service_model;  // ServiceModel::service_time
  Tally perf;           // PerformanceFunction::evaluate
  /// This period's first decide start and last feedback end (the RA's
  /// busy window inside the period), reset by the harness per period.
  Clock::time_point period_start{};
  Clock::time_point period_end{};
  bool period_open = false;
};

/// Names of the worker-side counters a shipped RaProbes bundle adds to.
inline constexpr const char* kShipPrefix = "perfbench.";

class TimedServiceModel final : public edgeslice::env::ServiceModel {
 public:
  TimedServiceModel(std::shared_ptr<const edgeslice::env::ServiceModel> inner,
                    RaProbes& probes)
      : inner_(std::move(inner)), probes_(&probes) {}
  double service_time(const edgeslice::env::AppProfile& profile,
                      const edgeslice::env::Allocation& allocation) const override;

 private:
  std::shared_ptr<const edgeslice::env::ServiceModel> inner_;
  RaProbes* probes_;
};

class TimedPerformance final : public edgeslice::env::PerformanceFunction {
 public:
  TimedPerformance(std::shared_ptr<const edgeslice::env::PerformanceFunction> inner,
                   RaProbes& probes)
      : inner_(std::move(inner)), probes_(&probes) {}
  double evaluate(const edgeslice::env::PerfObservation& observation) const override;
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const edgeslice::env::PerformanceFunction> inner_;
  RaProbes* probes_;
};

class TimedPolicy final : public edgeslice::core::RaPolicy {
 public:
  /// `intervals` is the period length; with `ship` set, every completed
  /// RA-period adds its tallies to the worker counters and resets them
  /// (for policies that run inside worker processes).
  TimedPolicy(edgeslice::core::RaPolicy& inner, RaProbes& probes, std::size_t intervals,
              bool ship)
      : inner_(&inner), probes_(&probes), intervals_(intervals), ship_(ship) {}

  std::vector<double> decide(const edgeslice::env::RaEnvironment& environment) override;
  void decide_into(const edgeslice::env::RaEnvironment& environment,
                   std::vector<double>& action) override;
  void feedback(const edgeslice::env::StepResult& result) override;
  std::string name() const override { return inner_->name(); }
  const edgeslice::nn::Mlp* inference_network() const override {
    return inner_->inference_network();
  }

 private:
  void decide_started(Clock::time_point now);

  edgeslice::core::RaPolicy* inner_;
  RaProbes* probes_;
  std::size_t intervals_;
  bool ship_;
  std::size_t feedbacks_ = 0;
  Clock::time_point decided_at_{};
};

/// Add `probes`' tallies to this process's worker counters
/// (perfbench.<layer>_calls, _timed and _ns) and reset them.
void ship_to_worker_counters(RaProbes& probes);

/// Sum of one shipped tally over every worker label in this process's
/// registry (after the supervisor merged the workers' telemetry).
Tally shipped_tally(const std::string& layer);

class TimedTransport final : public edgeslice::core::RaTransport {
 public:
  explicit TimedTransport(edgeslice::core::RaTransport& inner) : inner_(&inner) {}

  std::size_t ra_count() const override { return inner_->ra_count(); }
  std::vector<edgeslice::core::RaPeriodTrace> run_intervals(
      std::size_t period,
      const std::vector<edgeslice::core::RaPeriodDirective>& directives) override;
  bool send_coordination(std::size_t period,
                         const edgeslice::core::RcLearningMessage& message) override;
  void end_period(std::size_t period) override;
  std::string environment_state(std::size_t ra) override {
    return inner_->environment_state(ra);
  }
  void restore_environment(std::size_t ra, const std::string& blob) override {
    inner_->restore_environment(ra, blob);
  }

  Tally run_intervals_tally;
  Tally coordination_tally;
  Tally end_period_tally;

 private:
  edgeslice::core::RaTransport* inner_;
};

/// Training-side agent decorator. Always stamps the end of every
/// observe() (the train-step clock: one clock read per step) and checks
/// the step's reward and the DDPG critic loss for non-finite values; with
/// `detailed` set it also times act() and observe() from step
/// `tally_from` on (so replay warm-up does not dilute the averages).
class TimedAgent final : public edgeslice::rl::Agent {
 public:
  TimedAgent(edgeslice::rl::Ddpg& inner, bool detailed, std::size_t tally_from)
      : inner_(&inner), detailed_(detailed), tally_from_(tally_from) {}

  std::vector<double> act(const std::vector<double>& state, bool explore) override;
  void observe(const std::vector<double>& state, const std::vector<double>& action,
               double reward, const std::vector<double>& next_state, bool done) override;
  std::string name() const override { return inner_->name(); }
  std::size_t state_dim() const override { return inner_->state_dim(); }
  std::size_t action_dim() const override { return inner_->action_dim(); }
  std::size_t update_count() const override { return inner_->update_count(); }
  const edgeslice::nn::Mlp* policy_network() const override { return inner_->policy_network(); }
  const edgeslice::nn::Mlp* inference_actor() const override { return inner_->inference_actor(); }

  /// End time of every observe() so far, in call order.
  std::vector<Clock::time_point> step_ends;
  /// Steps whose reward or critic loss was not finite.
  std::uint64_t non_finite_steps = 0;
  Tally act_tally;
  Tally observe_tally;

 private:
  bool tallying() const { return detailed_ && step_ends.size() >= tally_from_; }

  edgeslice::rl::Ddpg* inner_;
  bool detailed_;
  std::size_t tally_from_;
};

/// GEMM multiply-add FLOPs of one forward pass of a dense network with
/// layer sizes `sizes` over `rows` rows: sum of 2 * in * out * rows.
double forward_flops(const std::vector<std::size_t>& sizes, double rows);

}  // namespace perfbench
