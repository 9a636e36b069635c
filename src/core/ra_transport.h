// The RA execution transport: where a resource autonomy's period runs.
//
// EdgeSliceSystem's default is in-process execution — it calls decide/
// step/feedback on the environments and policies it was handed. An
// RaTransport replaces that with a remote execution plane: the RAs live
// somewhere else (worker processes behind ipc::WorkerSupervisor), the
// system sends per-period directives and receives the per-interval
// traces back, and the RC-L leg of the MessageBus is routed through
// send_coordination instead of a local set_coordination call.
//
// The contract that keeps 1-process and N-worker runs bit-identical:
//  * run_intervals returns, for every RA it ran, the exact StepResult and
//    action sequence an in-process run would have produced (the remote
//    side executes the same deterministic code on the same state; doubles
//    travel as IEEE-754 bit patterns);
//  * an RA the transport could NOT run (worker died, hung past the
//    heartbeat deadline) comes back with ran = false, and the system
//    degrades it exactly like a crashed RA — carry-forward, then column
//    freeze;
//  * environment_state(j) is the RA's environment blob at the last
//    completed period boundary (the ESCK Environment section payload):
//    its last post-intervals state with the last delivered coordination
//    vector applied. So a system checkpoint taken through the transport
//    matches an in-process checkpoint byte for byte.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/interfaces.h"
#include "env/environment.h"

namespace edgeslice::core {

/// Per-RA instruction for one period.
struct RaPeriodDirective {
  /// False for a crashed RA: no intervals run, nothing reported.
  bool run = true;
  /// Whether to apply `derate` before the intervals (mirrors the
  /// in-process rule: derates are set only when a fault injector is
  /// attached).
  bool has_derate = false;
  std::array<double, env::kResources> derate{1.0, 1.0, 1.0};
  /// Injected stalled-read fault: the worker sleeps this long before
  /// running the RA, so the supervisor's deadline machinery sees a
  /// genuinely hung process. 0 = healthy.
  std::uint32_t stall_ms = 0;
  /// Chaos hook carried to the worker: the worker process exits abruptly
  /// (no trace, no clean shutdown) when it reaches this directive —
  /// exercises death in the middle of the RC-M exchange window.
  bool abort_run = false;
  /// Supervisor-side physical action to apply to this RA's hosting worker
  /// at the period start (SIGKILL / half-close). Never serialized to the
  /// worker; the supervisor consumes it before dispatch.
  ProcessFaultKind fault = ProcessFaultKind::None;
};

/// What one RA did during one period.
struct RaPeriodTrace {
  /// False when the RA did not run (directive said skip, or its worker
  /// failed mid-period). steps/actions are empty in that case.
  bool ran = false;
  std::vector<env::StepResult> steps;
  std::vector<std::vector<double>> actions;
};

class RaTransport {
 public:
  virtual ~RaTransport() = default;

  virtual std::size_t ra_count() const = 0;

  /// Run one period: dispatch `directives` (one per RA, indexed like the
  /// system's RAs), collect the traces. Blocking; returns when every
  /// directed RA has either delivered its trace or been declared failed.
  virtual std::vector<RaPeriodTrace> run_intervals(
      std::size_t period, const std::vector<RaPeriodDirective>& directives) = 0;

  /// RC-L leg: deliver the coordination vector to RA `message.ra`'s
  /// remote agent. Returns false when undeliverable (worker down) — the
  /// remote agent keeps acting on its last-known vector, like an RA whose
  /// RC-L push the bus dropped.
  virtual bool send_coordination(std::size_t period,
                                 const RcLearningMessage& message) = 0;

  /// Period barrier: called once after the RC-L phase. Implementations
  /// flush buffered frames and update liveness accounting here.
  virtual void end_period(std::size_t period) = 0;

  /// Environment blob for RA `ra` (ESCK Environment payload) at the last
  /// period boundary — after end_period this includes the latest
  /// delivered coordination, i.e. it is byte-identical to what an
  /// in-process environment would serialize at the same boundary. Throws
  /// std::runtime_error when the RA's worker is down and cannot be
  /// restored.
  virtual std::string environment_state(std::size_t ra) = 0;

  /// Push a restored blob (system checkpoint load) to RA `ra`'s remote
  /// environment. Throws std::runtime_error on failure.
  virtual void restore_environment(std::size_t ra, const std::string& blob) = 0;
};

}  // namespace edgeslice::core
