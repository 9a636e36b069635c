// The RA worker process body.
//
// A worker is forked by the WorkerSupervisor right after system
// construction, inherits its hosted RAs' environments and policies, and
// from then on speaks only ESFR frames over its socketpair: the
// supervisor drives periods with RunPeriod, the worker steps the directed
// RAs through core::RaStepper, the body in-process pool tasks use, and
// answers with one Trace + one EnvState frame per stepped RA (in
// directive order; a stall_ms or abort_run directive first flushes the
// RAs before it). The RC-L leg arrives as Coordination frames. Restore
// frames (crash recovery, checkpoint load) replace an environment's state
// wholesale and are Ack'd so the supervisor can sequence restores before
// the next period.
//
// The worker is deliberately dumb: no timers, no retries, no knowledge
// of faults beyond the chaos hooks in its directives (stall_ms sleeps,
// abort_run exits abruptly). All failure policy lives supervisor-side.
#pragma once

#include <cstdint>
#include <vector>

#include "core/policies.h"
#include "env/environment.h"

namespace edgeslice::ipc {

/// Everything a worker needs, inherited across fork(). `environments`
/// and `policies` are parallel to `hosted` (global RA indices, ascending).
struct WorkerContext {
  std::uint64_t index = 0;
  std::vector<std::uint32_t> hosted;
  std::vector<env::RaEnvironment*> environments;
  std::vector<core::RaPolicy*> policies;
};

/// Run the worker frame loop on `fd` until a Shutdown frame or EOF.
/// Returns the process exit status: 0 on clean shutdown or supervisor
/// EOF, nonzero on a protocol/runtime error. Call from the forked child
/// only, and _exit() with the result (no atexit handlers, no flushing
/// inherited buffers).
int worker_main(int fd, const WorkerContext& context);

}  // namespace edgeslice::ipc
