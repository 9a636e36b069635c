#include "core/ra_stepper.h"

#include <chrono>

#include "common/metrics.h"

namespace edgeslice::core {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

}  // namespace

double RaStepper::step_period(std::span<const RaSlot> slots, const bool* skip,
                              double* ra_seconds) {
  if (slots.empty()) return 0.0;
  const std::size_t intervals = slots.front().environment->config().intervals_per_period;
  const bool timed = metrics_enabled();

  // Group the live slots whose decide() is a pure forward pass by the
  // network they share. Their states are readable up front each interval
  // because an environment only advances when its own slot steps, and
  // per-row kernel determinism (DESIGN.md Sec. 12) makes each batched row
  // bit-identical to the per-RA decide() it replaces.
  for (auto& group : groups_) group.members.clear();
  std::size_t live = 0;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    ra_seconds[k] = 0.0;
    RaPeriodTrace& trace = *slots[k].trace;
    trace.ran = skip == nullptr || !skip[k];
    if (!trace.ran) continue;
    trace.steps.resize(intervals);
    trace.actions.resize(intervals);
    ++live;
    const nn::Mlp* network = slots[k].policy->inference_network();
    if (network == nullptr) continue;
    std::size_t g = 0;
    while (g < groups_.size() && &groups_[g].actor.network() != network) ++g;
    if (g == groups_.size()) groups_.push_back({rl::BatchedActor(*network), {}});
    groups_[g].members.push_back(k);
  }

  double batch_seconds = 0.0;
  for (std::size_t t = 0; t < intervals; ++t) {
    for (auto& group : groups_) {
      if (group.members.empty()) continue;
      const auto batch_start = timed ? SteadyClock::now() : SteadyClock::time_point{};
      group.actor.begin(group.members.size());
      for (std::size_t row = 0; row < group.members.size(); ++row) {
        slots[group.members[row]].environment->state_into(state_);
        group.actor.set_state(row, state_);
      }
      group.actor.infer();
      for (std::size_t row = 0; row < group.members.size(); ++row) {
        group.actor.action_into(row, slots[group.members[row]].trace->actions[t]);
      }
      if (timed) batch_seconds += seconds_since(batch_start);
    }
    for (std::size_t k = 0; k < slots.size(); ++k) {
      const RaSlot& slot = slots[k];
      if (!slot.trace->ran) continue;
      const auto ra_start = timed ? SteadyClock::now() : SteadyClock::time_point{};
      std::vector<double>& action = slot.trace->actions[t];
      if (slot.policy->inference_network() == nullptr) {
        slot.policy->decide_into(*slot.environment, action);
      }
      slot.environment->step_into(action, slot.trace->steps[t]);
      slot.policy->feedback(slot.trace->steps[t]);
      if (timed) ra_seconds[k] += seconds_since(ra_start);
    }
  }
  // An equal share of the batched passes per live slot: the times sum to the busy time.
  for (std::size_t k = 0; k < slots.size() && batch_seconds > 0.0; ++k) {
    if (slots[k].trace->ran) ra_seconds[k] += batch_seconds / static_cast<double>(live);
  }
  return batch_seconds;
}

}  // namespace edgeslice::core
