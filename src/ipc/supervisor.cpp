#include "ipc/supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"
#include "common/metrics.h"
#include "ipc/telemetry_server.h"
#include "ipc/wire.h"
#include "ipc/worker.h"

namespace edgeslice::ipc {

namespace {

void record_worker_event(obs::EventKind kind, std::size_t index, double value = 0.0) {
  obs::Event event;
  event.kind = kind;
  event.ra = index;
  event.value = value;
  obs::global_event_log().record(event);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw std::runtime_error("WorkerSupervisor: fcntl(O_NONBLOCK) failed");
}

}  // namespace

WorkerSupervisor::WorkerSupervisor(std::vector<env::RaEnvironment*> environments,
                                   std::vector<core::RaPolicy*> policies,
                                   SupervisorConfig config)
    : environments_(std::move(environments)),
      policies_(std::move(policies)),
      config_(config) {
  if (environments_.empty() || environments_.size() != policies_.size())
    throw std::invalid_argument("WorkerSupervisor: environments/policies mismatch");
  if (config_.workers == 0)
    throw std::invalid_argument("WorkerSupervisor: need at least one worker");
  config_.workers = std::min(config_.workers, environments_.size());
  workers_.resize(config_.workers);
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    workers_[j % config_.workers].hosted.push_back(static_cast<std::uint32_t>(j));
  }
  blob_cache_.resize(environments_.size());
  coordination_cache_.resize(environments_.size());
  ack_mark_.assign(environments_.size(), 0);
  aggregator_.reset(config_.workers);
}

WorkerSupervisor::~WorkerSupervisor() { stop(); }

void WorkerSupervisor::start() {
  if (started_) throw std::logic_error("WorkerSupervisor: start() called twice");
  // SIGPIPE process-wide: a worker dying mid-write must surface as EPIPE
  // on the supervisor's send path, never kill the coordinator.
  ::signal(SIGPIPE, SIG_IGN);
  // Initial restore points: the environments' state before anything ran.
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    std::ostringstream blob;
    environments_[j]->save_state(blob);
    blob_cache_[j] = blob.str();
  }
  started_ = true;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!respawn(w)) {
      stop();
      throw std::runtime_error("WorkerSupervisor: worker " + std::to_string(w) +
                               " failed to start");
    }
  }
  publish_liveness();
}

void WorkerSupervisor::stop() {
  if (!started_) return;
  stopping_ = true;
  // Ask every live worker to exit cleanly; each answers with a final
  // telemetry flush before closing its end.
  bool any_live = false;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    if (worker.alive && worker.fd >= 0) {
      SendOptions quick = config_.send;
      quick.deadline_ms = 200;
      Frame frame;
      frame.type = FrameType::Shutdown;
      frame.seq = worker.send_seq++;
      if (write_frame(worker.fd, frame, quick) == IoResult::Ok) any_live = true;
    }
  }
  if (any_live) {
    // Pump until every worker's final TelemetrySnapshot/TelemetryEvents
    // pair has been merged and its socket has closed (EOF), with a
    // bounded wait so a wedged worker cannot stall shutdown.
    pump([&] { return alive_count() == 0; }, /*deadline_ms=*/1000);
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    if (worker.fd >= 0) {
      if (loop_.has(worker.fd)) loop_.remove(worker.fd);
      ::close(worker.fd);
      worker.fd = -1;
    }
    if (worker.pid > 0) {
      ::kill(worker.pid, SIGKILL);
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
      worker.pid = -1;
    }
    worker.alive = false;
  }
  started_ = false;
  stopping_ = false;
  obs::set_worker_liveness(0, 0);
}

void WorkerSupervisor::spawn(std::size_t index) {
  Worker& worker = workers_[index];
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw std::runtime_error("WorkerSupervisor: socketpair failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("WorkerSupervisor: fork failed");
  }
  if (pid == 0) {
    // Child: drop every inherited supervisor-side fd (other workers'
    // sockets included — a child holding a sibling's socket open would
    // defeat the supervisor's EOF-based death detection).
    ::close(fds[0]);
    for (const Worker& other : workers_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    WorkerContext context;
    context.index = index;
    context.hosted = worker.hosted;
    for (std::uint32_t ra : worker.hosted) {
      context.environments.push_back(environments_[ra]);
      context.policies.push_back(policies_[ra]);
    }
    _exit(worker_main(fds[1], context));
  }
  ::close(fds[1]);
  set_nonblocking(fds[0]);
  worker.pid = pid;
  worker.fd = fds[0];
  worker.send_seq = 0;
  worker.hello_seen = false;
  worker.alive = true;
  loop_.add(
      worker.fd,
      [this, index](int /*fd*/, Frame&& frame) { on_frame(index, std::move(frame)); },
      [this, index](int /*fd*/, IoResult) {
        // EOF / protocol corruption: the worker is gone.
        declare_dead(index, obs::EventKind::WorkerExit);
      });
  record_worker_event(obs::EventKind::WorkerSpawn, index, static_cast<double>(pid));
  if (metrics_enabled()) global_metrics().counter("ipc.worker_spawns").add();
}

void WorkerSupervisor::declare_dead(std::size_t index, obs::EventKind kind) {
  Worker& worker = workers_[index];
  const bool was_alive = worker.alive;
  worker.alive = false;
  if (worker.fd >= 0) {
    if (loop_.has(worker.fd)) loop_.remove(worker.fd);
    ::close(worker.fd);
    worker.fd = -1;
  }
  if (worker.pid > 0) {
    ::kill(worker.pid, SIGKILL);  // harmless if already dead
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    worker.pid = -1;
  }
  if (was_alive) {
    // Fold the dead incarnation's telemetry into the slot base. During
    // stop() the death is a clean shutdown (final flush already pumped
    // in); anywhere else the slot's event window may have a hole, which
    // the aggregator marks with a TelemetryGap event.
    aggregator_.on_worker_lost(index, /*clean=*/stopping_);
    if (!stopping_) {
      record_worker_event(kind, index);
      if (metrics_enabled()) global_metrics().counter("ipc.worker_deaths").add();
      ES_LOG(Warn) << "worker " << index << " down ("
                   << obs::event_kind_name(kind) << ")";
    }
  }
}

bool WorkerSupervisor::respawn(std::size_t index) {
  Worker& worker = workers_[index];
  if (worker.failed) return false;
  declare_dead(index, obs::EventKind::WorkerExit);  // ensure fully torn down
  try {
    spawn(index);
  } catch (const std::exception& e) {
    ES_LOG(Error) << "worker respawn failed: " << e.what();
    return false;
  }
  // Hello, then restore every hosted RA from the cached state.
  const bool hello = pump([&] { return worker.hello_seen || !worker.alive; },
                          config_.io_deadline_ms) &&
                     worker.alive && worker.hello_seen;
  if (!hello) {
    declare_dead(index, obs::EventKind::WorkerHung);
    return false;
  }
  try {
    restore_hosted(index);
  } catch (const std::exception& e) {
    ES_LOG(Error) << "worker restore failed: " << e.what();
    declare_dead(index, obs::EventKind::WorkerExit);
    return false;
  }
  return true;
}

void WorkerSupervisor::restore_hosted(std::size_t index) {
  Worker& worker = workers_[index];
  for (std::uint32_t ra : worker.hosted) {
    const std::uint64_t mark = ack_mark_[ra];
    if (!send_to(index, FrameType::Restore, ra, std::string(blob_cache_[ra])))
      throw std::runtime_error("restore send failed");
    if (!pump([&] { return ack_mark_[ra] != mark || !worker.alive; },
              config_.io_deadline_ms) ||
        !worker.alive) {
      throw std::runtime_error("restore not acknowledged");
    }
    // Replay the last delivered coordination vector: blob (post-intervals)
    // + replay reconstructs the exact post-coordination state, because
    // set_coordination only stores the vector.
    if (coordination_cache_[ra].has_value()) {
      CoordinationPayload payload;
      payload.z_minus_y = *coordination_cache_[ra];
      if (!send_to(index, FrameType::Coordination, ra,
                   encode_coordination(payload))) {
        throw std::runtime_error("coordination replay failed");
      }
    }
    record_worker_event(obs::EventKind::WorkerRestore, ra);
  }
}

bool WorkerSupervisor::send_to(std::size_t index, FrameType type, std::uint32_t ra,
                               std::string payload) {
  Worker& worker = workers_[index];
  if (!worker.alive || worker.fd < 0) return false;
  Frame frame;
  frame.type = type;
  frame.ra = ra;
  frame.seq = worker.send_seq++;
  frame.payload = std::move(payload);
  const IoResult io = write_frame(worker.fd, frame, config_.send);
  if (io == IoResult::Ok) return true;
  declare_dead(index, io == IoResult::Deadline ? obs::EventKind::WorkerHung
                                               : obs::EventKind::WorkerExit);
  return false;
}

void WorkerSupervisor::on_frame(std::size_t index, Frame&& frame) {
  Worker& worker = workers_[index];
  switch (frame.type) {
    case FrameType::Hello: {
      const HelloPayload hello = decode_hello(frame.payload);
      worker.hello_seen =
          hello.worker_index == index && hello.hosted_ras == worker.hosted;
      break;
    }
    case FrameType::Trace: {
      if (!collecting_ || frame.ra >= environments_.size()) break;
      const TracePayload payload = decode_trace(frame.payload);
      if (payload.period != collect_period_) break;  // stale
      (*collect_traces_)[frame.ra] = std::move(payload.trace);
      collect_have_trace_[frame.ra] = true;
      break;
    }
    case FrameType::EnvState: {
      if (frame.ra >= environments_.size()) break;
      blob_cache_[frame.ra] = std::move(frame.payload);
      if (collecting_) collect_have_blob_[frame.ra] = true;
      break;
    }
    case FrameType::Ack: {
      if (frame.ra < environments_.size()) ++ack_mark_[frame.ra];
      break;
    }
    case FrameType::TelemetrySnapshot: {
      if (!metrics_enabled()) break;
      const TelemetrySnapshotPayload payload =
          decode_telemetry_snapshot(frame.payload);
      aggregator_.on_metrics(index, payload.metrics);
      aggregator_.on_spans(index, payload.spans);
      break;
    }
    case FrameType::TelemetryEvents: {
      if (!metrics_enabled()) break;
      const TelemetryEventsPayload payload = decode_telemetry_events(frame.payload);
      aggregator_.on_events(index, payload.events);
      break;
    }
    case FrameType::Pong:
      ++worker.pongs;
      break;
    default:
      break;  // no other type is sent worker -> supervisor
  }
}

void WorkerSupervisor::drain(std::size_t index) {
  Worker& worker = workers_[index];
  const std::uint64_t mark = worker.pongs;
  if (!send_to(index, FrameType::Ping, kConnectionScope, encode_u64(mark))) return;
  pump([&] { return worker.pongs != mark || !worker.alive; }, config_.io_deadline_ms);
}

bool WorkerSupervisor::pump(const std::function<bool()>& done, int deadline_ms) {
  return loop_.run_until(done, deadline_ms);
}

std::size_t WorkerSupervisor::alive_count() const {
  std::size_t alive = 0;
  for (const Worker& worker : workers_) {
    if (worker.alive) ++alive;
  }
  return alive;
}

void WorkerSupervisor::publish_liveness() {
  obs::set_worker_liveness(alive_count(), workers_.size());
  if (metrics_enabled()) {
    global_metrics().gauge("ipc.workers_alive").set(static_cast<double>(alive_count()));
    global_metrics().gauge("ipc.workers_total").set(static_cast<double>(workers_.size()));
  }
  // The /fleet.json table: supervisor-owned process facts plus the
  // aggregator's telemetry bookkeeping.
  std::vector<obs::FleetWorkerStatus> fleet(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    obs::FleetWorkerStatus& status = fleet[w];
    status.slot = w;
    status.alive = workers_[w].alive;
    status.pid = static_cast<long>(workers_[w].pid);
    status.restarts = workers_[w].restarts;
    status.ras.assign(workers_[w].hosted.begin(), workers_[w].hosted.end());
    status.snapshots = aggregator_.snapshots_merged(w);
    status.events = aggregator_.events_imported(w);
    status.last_snapshot_ts_s = aggregator_.last_snapshot_ts_s(w);
  }
  obs::set_fleet_status(std::move(fleet));
}

std::vector<core::RaPeriodTrace> WorkerSupervisor::run_intervals(
    std::size_t period, const std::vector<core::RaPeriodDirective>& directives) {
  if (!started_) throw std::logic_error("WorkerSupervisor: not started");
  if (directives.size() != environments_.size())
    throw std::invalid_argument("WorkerSupervisor: directive count mismatch");

  // Planned process faults fire at the period boundary: apply the
  // physical action to the hosting worker, then respawn + restore ALL its
  // hosted RAs immediately — co-hosted RAs have not run this period yet,
  // so they lose nothing and trajectories stay worker-count independent.
  std::vector<bool> fault_handled(workers_.size(), false);
  for (std::size_t j = 0; j < directives.size(); ++j) {
    const ProcessFaultKind fault = directives[j].fault;
    if (fault != ProcessFaultKind::Kill && fault != ProcessFaultKind::HalfClose)
      continue;
    const std::size_t w = worker_of(j);
    if (fault_handled[w]) continue;
    fault_handled[w] = true;
    Worker& worker = workers_[w];
    // Read what the worker sent before the fault first: its last period's
    // TelemetrySnapshot/TelemetryEvents need not have arrived yet, and
    // closing the socket would drop them with it.
    if (worker.alive) drain(w);
    if (worker.alive) {
      if (fault == ProcessFaultKind::HalfClose && worker.fd >= 0) {
        // Half-close: the worker sees EOF on its next read and exits;
        // declare_dead reaps it either way.
        ::shutdown(worker.fd, SHUT_RDWR);
      }
      declare_dead(w, fault == ProcessFaultKind::Kill ? obs::EventKind::WorkerKill
                                                      : obs::EventKind::WorkerExit);
    }
    // Planned faults restore immediately and do not count against the
    // unplanned restart-storm budget.
    ++workers_[w].restarts;
    respawn(w);
  }

  std::vector<core::RaPeriodTrace> traces(environments_.size());
  collect_traces_ = &traces;
  collect_period_ = period;
  collect_have_trace_.assign(environments_.size(), false);
  collect_have_blob_.assign(environments_.size(), false);
  collecting_ = true;

  // Dispatch one RunPeriod frame per live worker.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    if (!worker.alive) continue;
    RunPeriodPayload payload;
    payload.period = period;
    payload.telemetry_every = metrics_enabled() ? config_.telemetry_every : 0;
    for (std::uint32_t ra : worker.hosted) {
      payload.ras.push_back(ra);
      payload.directives.push_back(directives[ra]);
    }
    send_to(w, FrameType::RunPeriod, kConnectionScope, encode_run_period(payload));
  }

  // A trace is expected from every directed RA whose worker survived
  // dispatch; a worker death (EOF) removes its pending RAs from the wait.
  auto outstanding = [&]() -> bool {
    for (std::size_t j = 0; j < directives.size(); ++j) {
      if (!directives[j].run) continue;
      if (!workers_[worker_of(j)].alive) continue;
      if (!collect_have_trace_[j] || !collect_have_blob_[j]) return true;
    }
    return false;
  };
  const bool complete = pump([&] { return !outstanding(); }, config_.trace_deadline_ms);
  if (!complete) {
    // Stragglers past the deadline are hung: kill them. Their restore is
    // end_period's job (unplanned path, backoff-capped).
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].alive) continue;
      bool pending = false;
      for (std::uint32_t ra : workers_[w].hosted) {
        if (directives[ra].run &&
            (!collect_have_trace_[ra] || !collect_have_blob_[ra])) {
          pending = true;
        }
      }
      if (pending) declare_dead(w, obs::EventKind::WorkerHung);
    }
  }
  collecting_ = false;
  collect_traces_ = nullptr;

  // An RA whose trace arrived but whose state blob did not cannot be
  // treated as having run: its restore point would be stale. Degrade it.
  for (std::size_t j = 0; j < traces.size(); ++j) {
    if (traces[j].ran && !collect_have_blob_[j]) traces[j] = core::RaPeriodTrace{};
  }
  publish_liveness();
  return traces;
}

bool WorkerSupervisor::send_coordination(std::size_t /*period*/,
                                         const core::RcLearningMessage& message) {
  const std::size_t ra = message.ra;
  if (ra >= environments_.size()) return false;
  const std::size_t w = worker_of(ra);
  if (!workers_[w].alive) return false;
  CoordinationPayload payload;
  payload.z_minus_y = message.z_minus_y;
  if (!send_to(w, FrameType::Coordination, static_cast<std::uint32_t>(ra),
               encode_coordination(payload))) {
    return false;
  }
  coordination_cache_[ra] = message.z_minus_y;
  return true;
}

void WorkerSupervisor::end_period(std::size_t /*period*/) {
  const std::int64_t now = now_ms();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    if (worker.alive) {
      // A full healthy period clears the storm budget.
      worker.restart_attempts = 0;
      worker.backoff_ms = config_.restart_backoff_initial_ms;
      continue;
    }
    if (worker.failed || now < worker.next_restart_ms) continue;
    ++worker.restart_attempts;
    if (worker.restart_attempts > config_.max_restart_attempts) {
      worker.failed = true;
      ES_LOG(Error) << "worker " << w
                    << " exceeded max restart attempts; leaving it down";
      continue;
    }
    worker.backoff_ms = worker.backoff_ms <= 0
                            ? config_.restart_backoff_initial_ms
                            : std::min(worker.backoff_ms * 2,
                                       config_.restart_backoff_max_ms);
    worker.next_restart_ms = now + worker.backoff_ms;
    ++worker.restarts;
    respawn(w);
  }
  publish_liveness();
}

std::string WorkerSupervisor::environment_state(std::size_t ra) {
  if (ra >= environments_.size())
    throw std::invalid_argument("WorkerSupervisor: bad RA index");
  const std::size_t w = worker_of(ra);
  Worker& worker = workers_[w];
  if (!worker.alive && !worker.failed) respawn(w);
  if (!worker.alive)
    throw std::runtime_error("WorkerSupervisor: RA " + std::to_string(ra) +
                             "'s worker is down; no fresh state available");
  // The worker's state is the cached post-intervals blob with the last
  // delivered coordination vector applied (the rule restore_hosted relies
  // on), so it is rebuilt here, in the parent's never-stepped copy of the
  // environment, without a round trip.
  env::RaEnvironment& environment = *environments_[ra];
  std::istringstream blob(blob_cache_[ra]);
  environment.load_state(blob);
  if (coordination_cache_[ra].has_value()) {
    environment.set_coordination(*coordination_cache_[ra]);
  }
  std::ostringstream out;
  environment.save_state(out);
  return out.str();
}

void WorkerSupervisor::restore_environment(std::size_t ra, const std::string& blob) {
  if (ra >= environments_.size())
    throw std::invalid_argument("WorkerSupervisor: bad RA index");
  const std::size_t w = worker_of(ra);
  Worker& worker = workers_[w];
  blob_cache_[ra] = blob;
  // The blob is authoritative post-coordination state (a checkpoint
  // section); replaying an older vector on top would regress it.
  coordination_cache_[ra].reset();
  if (!worker.alive && !worker.failed) {
    // respawn() pushes the fresh blob_cache_ to every hosted RA.
    if (!respawn(w))
      throw std::runtime_error("WorkerSupervisor: restore respawn failed");
    return;
  }
  if (!worker.alive)
    throw std::runtime_error("WorkerSupervisor: RA " + std::to_string(ra) +
                             "'s worker is permanently failed");
  const std::uint64_t mark = ack_mark_[ra];
  if (!send_to(w, FrameType::Restore, static_cast<std::uint32_t>(ra),
               std::string(blob))) {
    throw std::runtime_error("WorkerSupervisor: restore send failed");
  }
  if (!pump([&] { return ack_mark_[ra] != mark || !worker.alive; },
            config_.io_deadline_ms) ||
      !worker.alive) {
    throw std::runtime_error("WorkerSupervisor: restore of RA " +
                             std::to_string(ra) + " not acknowledged");
  }
}

}  // namespace edgeslice::ipc
