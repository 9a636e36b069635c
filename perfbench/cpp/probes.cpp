#include "probes.h"

#include <cmath>

#include "common/metrics.h"

namespace perfbench {

namespace es = edgeslice;

namespace {

constexpr const char* kShippedLayers[] = {"rl.decide", "env.step", "env.service_model",
                                          "env.perf"};

void ship_one(const char* layer, Tally& tally) {
  auto& metrics = es::global_metrics();
  const std::string base = std::string(kShipPrefix) + layer;
  metrics.counter(base + "_calls").add(tally.calls);
  metrics.counter(base + "_timed").add(tally.timed);
  metrics.counter(base + "_ns").add(static_cast<std::uint64_t>(std::llround(tally.seconds * 1e9)));
  tally = Tally{};
}

template <typename Call>
auto sampled(Tally& tally, Call&& call) {
  if (++tally.calls % kSampleEvery != 0) return call();
  const auto start = Clock::now();
  auto result = call();
  tally.seconds += seconds_since(start);
  ++tally.timed;
  return result;
}

}  // namespace

double TimedServiceModel::service_time(const es::env::AppProfile& profile,
                                       const es::env::Allocation& allocation) const {
  return sampled(probes_->service_model,
                 [&] { return inner_->service_time(profile, allocation); });
}

double TimedPerformance::evaluate(const es::env::PerfObservation& observation) const {
  return sampled(probes_->perf, [&] { return inner_->evaluate(observation); });
}

void TimedPolicy::decide_started(Clock::time_point now) {
  if (!probes_->period_open) {
    probes_->period_open = true;
    probes_->period_start = now;
  }
}

std::vector<double> TimedPolicy::decide(const es::env::RaEnvironment& environment) {
  const auto start = Clock::now();
  decide_started(start);
  std::vector<double> action = inner_->decide(environment);
  decided_at_ = Clock::now();
  probes_->decide.add(seconds_between(start, decided_at_));
  return action;
}

void TimedPolicy::decide_into(const es::env::RaEnvironment& environment,
                              std::vector<double>& action) {
  const auto start = Clock::now();
  decide_started(start);
  inner_->decide_into(environment, action);
  decided_at_ = Clock::now();
  probes_->decide.add(seconds_between(start, decided_at_));
}

void TimedPolicy::feedback(const es::env::StepResult& result) {
  probes_->env_step.add(seconds_since(decided_at_));
  inner_->feedback(result);
  probes_->period_end = Clock::now();
  if (ship_ && ++feedbacks_ % intervals_ == 0) ship_to_worker_counters(*probes_);
}

void ship_to_worker_counters(RaProbes& probes) {
  ship_one(kShippedLayers[0], probes.decide);
  ship_one(kShippedLayers[1], probes.env_step);
  ship_one(kShippedLayers[2], probes.service_model);
  ship_one(kShippedLayers[3], probes.perf);
}

Tally shipped_tally(const std::string& layer) {
  const std::string calls = std::string(kShipPrefix) + layer + "_calls{";
  const std::string timed = std::string(kShipPrefix) + layer + "_timed{";
  const std::string ns = std::string(kShipPrefix) + layer + "_ns{";
  Tally tally;
  for (const auto& [name, value] : es::global_metrics().snapshot().counters) {
    if (name.rfind(calls, 0) == 0) tally.calls += value;
    if (name.rfind(timed, 0) == 0) tally.timed += value;
    if (name.rfind(ns, 0) == 0) tally.seconds += static_cast<double>(value) * 1e-9;
  }
  return tally;
}

std::vector<es::core::RaPeriodTrace> TimedTransport::run_intervals(
    std::size_t period, const std::vector<es::core::RaPeriodDirective>& directives) {
  const auto start = Clock::now();
  auto traces = inner_->run_intervals(period, directives);
  run_intervals_tally.add(seconds_since(start));
  return traces;
}

bool TimedTransport::send_coordination(std::size_t period,
                                       const es::core::RcLearningMessage& message) {
  const auto start = Clock::now();
  const bool delivered = inner_->send_coordination(period, message);
  coordination_tally.add(seconds_since(start));
  return delivered;
}

void TimedTransport::end_period(std::size_t period) {
  const auto start = Clock::now();
  inner_->end_period(period);
  end_period_tally.add(seconds_since(start));
}

std::vector<double> TimedAgent::act(const std::vector<double>& state, bool explore) {
  if (!tallying()) return inner_->act(state, explore);
  const auto start = Clock::now();
  std::vector<double> action = inner_->act(state, explore);
  act_tally.add(seconds_since(start));
  return action;
}

void TimedAgent::observe(const std::vector<double>& state, const std::vector<double>& action,
                         double reward, const std::vector<double>& next_state, bool done) {
  const bool tally = tallying();
  const auto start = tally ? Clock::now() : Clock::time_point{};
  inner_->observe(state, action, reward, next_state, done);
  const auto end = Clock::now();
  if (tally) observe_tally.add(seconds_between(start, end));
  step_ends.push_back(end);
  if (!std::isfinite(reward) || !std::isfinite(inner_->last_critic_loss())) ++non_finite_steps;
}

double forward_flops(const std::vector<std::size_t>& sizes, double rows) {
  double flops = 0.0;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    flops += 2.0 * static_cast<double>(sizes[i]) * static_cast<double>(sizes[i + 1]);
  }
  return flops * rows;
}

}  // namespace perfbench
