// The supervised control plane over RA worker processes.
//
// WorkerSupervisor forks `workers` processes (round-robin RA assignment,
// RA j -> worker j % N), drives them through the core::RaTransport
// interface, and owns every piece of failure policy (DESIGN.md "Process
// model & supervision"):
//
//  * per-send deadlines with bounded exponential backoff (SendOptions);
//  * a per-period trace deadline — a worker that has not delivered its
//    traces in time is declared hung, SIGKILLed, and restarted;
//  * crash restore and checkpoints from cached state: the supervisor
//    keeps, per RA, the last post-intervals environment blob (shipped by
//    the worker with every trace) plus the last successfully delivered
//    coordination vector. Blob-then-coordination is the exact
//    post-coordination state, because set_coordination only stores the
//    vector: restoring a fresh worker replays the pair over the wire, and
//    environment_state() applies it to the parent's copy of the
//    environment and serializes that, with no round trip;
//  * restart-storm capping: consecutive unplanned restarts back off
//    exponentially and stop at max_restart_attempts — a permanently
//    failing worker stays down and its RAs column-freeze, bounding the
//    blast radius instead of fork-bombing the host;
//  * planned process faults (FaultInjector::process_fault) are applied at
//    the period boundary: SIGKILL or half-close, then an immediate
//    respawn + restore of every hosted RA, so the plan's ra_crashed()
//    bookkeeping — which single-process runs use directly — matches what
//    physically happened and trajectories stay bit-identical for any
//    worker count. Before the physical action a Ping round trip receives
//    whatever the worker already sent (its last telemetry included).
//
// start() forks; call it before creating any threads (thread pools,
// telemetry) so the children are single-threaded images. Later respawns
// fork from a possibly-threaded parent; workers therefore disable
// metrics and touch no parent locks.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/policies.h"
#include "core/ra_transport.h"
#include "env/environment.h"
#include "ipc/event_loop.h"
#include "ipc/frame.h"
#include "obs/aggregator.h"
#include "obs/event_log.h"

namespace edgeslice::ipc {

struct SupervisorConfig {
  /// Worker process count; RAs are assigned round-robin (RA j hosted by
  /// worker j % workers).
  std::size_t workers = 2;
  /// How long one period's trace collection may take before stragglers
  /// are declared hung and killed.
  int trace_deadline_ms = 30000;
  /// Deadline for small control exchanges (hello, restore ack, the Ping
  /// round trip before a planned fault).
  int io_deadline_ms = 10000;
  /// Unplanned-restart backoff: first retry after `initial`, doubling to
  /// `max`; after `max_restart_attempts` consecutive failures the worker
  /// is permanently failed (its RAs stay frozen).
  int restart_backoff_initial_ms = 10;
  int restart_backoff_max_ms = 2000;
  int max_restart_attempts = 5;
  /// Workers ship a TelemetrySnapshot/TelemetryEvents pair every N
  /// periods (plus a final flush on clean shutdown). 0 disables the
  /// fleet telemetry plane entirely.
  std::uint64_t telemetry_every = 1;
  /// Per-frame send policy (deadline + in-call backoff).
  SendOptions send;
};

class WorkerSupervisor final : public core::RaTransport {
 public:
  /// `environments` / `policies` are indexed by RA and must outlive the
  /// supervisor. The parent-side objects are used only (a) to capture the
  /// initial state blobs before the first fork, (b) inside the forked
  /// children and (c) by environment_state(), which loads cached state
  /// into an environment to serialize it; the parent never steps them.
  WorkerSupervisor(std::vector<env::RaEnvironment*> environments,
                   std::vector<core::RaPolicy*> policies,
                   SupervisorConfig config = {});
  ~WorkerSupervisor() override;
  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  /// Capture initial blobs and fork all workers. Call exactly once,
  /// before any threads exist in this process. Throws on fork/socket
  /// failure.
  void start();
  /// Shut every worker down (Shutdown frame, then SIGKILL + reap).
  /// Idempotent; the destructor calls it.
  void stop();
  bool started() const { return started_; }

  // core::RaTransport
  std::size_t ra_count() const override { return environments_.size(); }
  std::vector<core::RaPeriodTrace> run_intervals(
      std::size_t period,
      const std::vector<core::RaPeriodDirective>& directives) override;
  bool send_coordination(std::size_t period,
                         const core::RcLearningMessage& message) override;
  void end_period(std::size_t period) override;
  std::string environment_state(std::size_t ra) override;
  void restore_environment(std::size_t ra, const std::string& blob) override;

  // Introspection (tests, benches, health reporting).
  std::size_t worker_count() const { return workers_.size(); }
  std::size_t worker_of(std::size_t ra) const { return ra % workers_.size(); }
  bool worker_alive(std::size_t worker) const { return workers_[worker].alive; }
  bool worker_failed(std::size_t worker) const { return workers_[worker].failed; }
  pid_t worker_pid(std::size_t worker) const { return workers_[worker].pid; }
  std::size_t restart_count(std::size_t worker) const {
    return workers_[worker].restarts;
  }
  /// The fleet telemetry merger (tests poke at its bookkeeping).
  const obs::TelemetryAggregator& aggregator() const { return aggregator_; }

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    std::uint64_t send_seq = 0;
    std::vector<std::uint32_t> hosted;  // global RA ids, ascending
    bool alive = false;
    bool failed = false;  // restart-storm cap tripped: stays down
    bool hello_seen = false;
    int restart_attempts = 0;  // consecutive unplanned restarts
    std::size_t restarts = 0;  // lifetime restarts (introspection)
    int backoff_ms = 0;
    std::int64_t next_restart_ms = 0;  // earliest allowed unplanned respawn
    std::uint64_t pongs = 0;           // Pong frames received (drain marks)
  };

  void spawn(std::size_t worker);
  /// Restore every hosted RA of a freshly spawned worker from the cached
  /// blobs (+ coordination replay). Throws on failure.
  void restore_hosted(std::size_t worker);
  /// Tear a worker down: deregister, close, SIGKILL, reap. Records
  /// `kind` in the flight recorder. Safe on an already-dead worker.
  void declare_dead(std::size_t worker, obs::EventKind kind);
  /// spawn + hello + restore_hosted; returns false (worker left dead) on
  /// any failure.
  bool respawn(std::size_t worker);
  bool send_to(std::size_t worker, FrameType type, std::uint32_t ra,
               std::string payload);
  /// Receive every frame `worker` sent before this call: a Ping, then pump
  /// until its Pong (the worker answers frames in order). Bounded by
  /// io_deadline_ms.
  void drain(std::size_t worker);
  void on_frame(std::size_t worker, Frame&& frame);
  /// Pump the loop until `done` or deadline; never throws on worker
  /// failure (deaths surface through alive flags).
  bool pump(const std::function<bool()>& done, int deadline_ms);
  void publish_liveness();
  std::size_t alive_count() const;

  std::vector<env::RaEnvironment*> environments_;
  std::vector<core::RaPolicy*> policies_;
  SupervisorConfig config_;
  std::vector<Worker> workers_;
  PollLoop loop_;
  obs::TelemetryAggregator aggregator_;
  bool started_ = false;
  /// True inside stop(): deaths there are clean shutdowns, not gaps.
  bool stopping_ = false;

  // Per-RA restore caches (see header comment).
  std::vector<std::string> blob_cache_;
  std::vector<std::optional<std::vector<double>>> coordination_cache_;
  // Restore-ack receipt marks, bumped by on_frame; exchanges wait for a
  // change.
  std::vector<std::uint64_t> ack_mark_;

  // Active trace collection (run_intervals).
  std::size_t collect_period_ = 0;
  bool collecting_ = false;
  std::vector<core::RaPeriodTrace>* collect_traces_ = nullptr;
  std::vector<bool> collect_have_trace_;
  std::vector<bool> collect_have_blob_;
};

}  // namespace edgeslice::ipc
