// The one RA-stepping body of Alg. 1 ("each RA runs T intervals under its
// own policy"). EdgeSliceSystem's pool tasks and the worker processes
// (src/ipc/worker.cpp) both step their RAs through a RaStepper, so either
// plane gives the same trajectories, with the same batched inference.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/policies.h"
#include "core/ra_transport.h"
#include "rl/batched_actor.h"

namespace edgeslice::core {

/// One RA to step (non-owning) and the trace its period is written into.
struct RaSlot {
  env::RaEnvironment* environment = nullptr;
  RaPolicy* policy = nullptr;
  RaPeriodTrace* trace = nullptr;
};

class RaStepper {
 public:
  /// Step the slots not masked by `skip` (null skips none) through one
  /// period of the first slot's intervals_per_period, interval by
  /// interval: one batched forward pass per shared inference network
  /// (RaPolicy::inference_network) gives those slots' actions, then per
  /// slot in span order decide_into (the other slots), step_into and
  /// feedback. Traces get ran = !skip and, when stepped, one step and
  /// action per interval. Sets ra_seconds[k] to slot k's time plus an equal
  /// share of the batched passes and returns the batched time (all 0 with
  /// metrics disabled).
  double step_period(std::span<const RaSlot> slots, const bool* skip,
                     double* ra_seconds);

 private:
  /// Live slots sharing one network; the actor's buffers persist.
  struct Group {
    rl::BatchedActor actor;
    std::vector<std::size_t> members;  // slot indices, ascending
  };
  std::vector<Group> groups_;
  std::vector<double> state_;
};

}  // namespace edgeslice::core
