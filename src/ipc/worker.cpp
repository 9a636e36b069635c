#include "ipc/worker.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/trace_span.h"
#include "core/ra_stepper.h"
#include "ipc/frame.h"
#include "ipc/wire.h"
#include "obs/event_log.h"

namespace edgeslice::ipc {

namespace {

std::string environment_blob(env::RaEnvironment& environment) {
  std::ostringstream out;
  environment.save_state(out);
  return out.str();
}

// --- Crash flush ----------------------------------------------------------
//
// When the worker dies on a signal or an uncaught exception, the
// obs::set_crash_flush_hook path below ships one final best-effort
// TelemetryEvents frame over the (possibly still open) supervisor
// socket: preallocated buffers, signal-safe frame encoder, raw write(2).
// If the worker died mid-send the supervisor sees a corrupt channel and
// records the TelemetryGap instead — both outcomes are accounted for.

constexpr std::size_t kCrashFlushEvents = 256;
/// 40-byte header + u64 count + per-event wire size (wire.cpp's
/// kEventWireSize = 65).
constexpr std::size_t kCrashFlushBufSize = 48 + kCrashFlushEvents * 65;

int g_crash_fd = -1;
std::uint64_t* g_crash_seq = nullptr;
obs::Event g_crash_events[kCrashFlushEvents];
char g_crash_buf[kCrashFlushBufSize];

void crash_flush() {
  if (g_crash_fd < 0 || g_crash_seq == nullptr) return;
  const std::size_t count =
      obs::global_event_log().copy_events(g_crash_events, kCrashFlushEvents);
  const std::size_t total = encode_telemetry_events_frame(
      g_crash_buf, sizeof(g_crash_buf), *g_crash_seq, g_crash_events, count);
  if (total == 0) return;
  std::size_t sent = 0;
  while (sent < total) {
    const ssize_t n = ::write(g_crash_fd, g_crash_buf + sent, total - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // supervisor gone or socket full: best effort is over
  }
}

}  // namespace

int worker_main(int fd, const WorkerContext& context) {
  try {
    // The parent's registry/tracer/event-log mutexes (and any observer
    // thread holding one at fork time) are not inherited in a usable
    // state; swap in fresh objects before the first record. The global
    // metrics switch itself is inherited, so a run with metrics disabled
    // stays silent in workers too.
    reset_global_metrics_for_fork();
    reset_global_tracer_for_fork();
    obs::reset_global_event_log_for_fork();
    FrameReader reader;
    // Per-connection monotonic seq; the crash-flush hook reads it too, to
    // stamp its final frame with the next one in sequence.
    std::uint64_t seq = 0;
    const auto send = [&](FrameType type, std::uint32_t ra, std::string payload) {
      return write_frame(fd, Frame{type, ra, seq++, std::move(payload)}) == IoResult::Ok;
    };

    // RA index -> slot in context.hosted (environments/policies share it).
    auto slot_of = [&context](std::uint32_t ra) -> std::size_t {
      for (std::size_t s = 0; s < context.hosted.size(); ++s) {
        if (context.hosted[s] == ra) return s;
      }
      throw std::runtime_error("worker: directive for RA " + std::to_string(ra) +
                               " this worker does not host");
    };

    HelloPayload hello;
    hello.worker_index = context.index;
    hello.hosted_ras = context.hosted;
    if (!send(FrameType::Hello, kConnectionScope, encode_hello(hello))) return 1;

    // First event in every incarnation's window: this process exists.
    // (The supervisor records its own WorkerSpawn too; the imported copy
    // is distinguishable by its origin-slot tag.)
    {
      obs::Event spawn;
      spawn.kind = obs::EventKind::WorkerSpawn;
      spawn.ra = static_cast<std::size_t>(context.index);
      spawn.value = static_cast<double>(::getpid());
      obs::global_event_log().record(spawn);
    }

    // Telemetry shipping state: cumulative metrics go wholesale; span
    // aggregates ship as deltas against this shadow of the last export;
    // events drain past a seq cursor.
    std::map<std::pair<std::string, std::uint64_t>, std::pair<std::size_t, double>>
        shipped_spans;
    std::uint64_t event_cursor = 0;
    std::uint64_t periods_since_ship = 0;
    std::uint64_t last_period = 0;
    bool crash_flush_armed = false;

    const auto ship_telemetry = [&](std::uint64_t period) -> bool {
      if (!metrics_enabled()) return true;
      TelemetrySnapshotPayload snap;
      snap.period = period;
      snap.metrics = global_metrics().snapshot();
      for (const SpanPeriodStats& cur : global_tracer().export_period_stats()) {
        auto& prev = shipped_spans[{cur.path, cur.period}];
        if (cur.stats.count <= prev.first) continue;
        SpanPeriodStats delta;
        delta.path = cur.path;
        delta.period = cur.period;
        delta.stats.count = cur.stats.count - prev.first;
        delta.stats.total_s = cur.stats.total_s - prev.second;
        // min/max cannot be diffed; ship the cumulative envelope (the
        // supervisor's envelope fold is idempotent under it).
        delta.stats.min_s = cur.stats.min_s;
        delta.stats.max_s = cur.stats.max_s;
        prev = {cur.stats.count, cur.stats.total_s};
        snap.spans.push_back(std::move(delta));
      }
      if (!send(FrameType::TelemetrySnapshot, kConnectionScope,
                encode_telemetry_snapshot(snap))) {
        return false;
      }
      TelemetryEventsPayload events;
      events.events = obs::global_event_log().snapshot_since(event_cursor);
      if (events.events.empty()) return true;
      event_cursor = events.events.back().seq + 1;
      return send(FrameType::TelemetryEvents, kConnectionScope,
                  encode_telemetry_events(events));
    };

    // The hosted RAs step through the same RaStepper as an in-process pool
    // task. Its batched actors and the per-RA trace buffers persist.
    core::RaStepper stepper;
    std::vector<TracePayload> traces(context.hosted.size());
    std::vector<core::RaSlot> batch;
    std::vector<double> ra_seconds;

    // Step the entries [begin, end) of `run` that are to run, derated
    // first, then send each one's Trace and EnvState in directive order.
    const auto step_batch = [&](const RunPeriodPayload& run, std::size_t begin,
                                std::size_t end) -> bool {
      batch.clear();
      for (std::size_t entry = begin; entry < end; ++entry) {
        const core::RaPeriodDirective& d = run.directives[entry];
        if (!d.run) continue;
        const std::size_t slot = slot_of(run.ras[entry]);
        if (d.has_derate) context.environments[slot]->set_resource_derate(d.derate);
        traces[slot].period = run.period;
        batch.push_back({context.environments[slot], context.policies[slot],
                         &traces[slot].trace});
      }
      ra_seconds.resize(batch.size());
      stepper.step_period(batch, nullptr, ra_seconds.data());
      std::size_t k = 0;
      for (std::size_t entry = begin; entry < end; ++entry) {
        if (!run.directives[entry].run) continue;
        const std::uint32_t ra = run.ras[entry];
        const std::size_t slot = slot_of(ra);
        global_tracer().record("worker.ra_period", ra_seconds[k]);
        global_metrics().histogram("worker.ra_period_seconds").observe(ra_seconds[k++]);
        global_metrics().counter("worker.intervals").add(traces[slot].trace.steps.size());
        // The post-intervals blob rides along immediately: it is the
        // supervisor's crash-restore point for this RA.
        if (!send(FrameType::Trace, ra, encode_trace(traces[slot])) ||
            !send(FrameType::EnvState, ra, environment_blob(*context.environments[slot]))) {
          return false;
        }
      }
      return true;
    };

    for (;;) {
      Frame frame;
      // A corrupt channel (bad CRC, seq break) throws: exit status 1.
      const IoResult io = reader.read(fd, frame, /*deadline_ms=*/60000);
      if (io == IoResult::Deadline) continue;  // idle between periods
      if (io == IoResult::Closed) return 0;    // supervisor is gone
      if (io != IoResult::Ok) return 1;
      // Counted here, not in FrameReader: the serve client reads through
      // it too and counts nothing.
      if (metrics_enabled()) {
        global_metrics().counter("ipc.frames_received").add();
        global_metrics().counter("ipc.bytes_received").add(kFrameHeaderSize +
                                                           frame.payload.size());
      }

      switch (frame.type) {
        case FrameType::RunPeriod: {
          const RunPeriodPayload run = decode_run_period(frame.payload);
          // Arm the crash flush the first time telemetry is requested:
          // from here on a fatal signal ships the event window before
          // the process dies.
          if (!crash_flush_armed && run.telemetry_every > 0 && metrics_enabled()) {
            g_crash_fd = fd;
            g_crash_seq = &seq;
            obs::set_crash_flush_hook(&crash_flush);
            crash_flush_armed = true;
          }
          last_period = run.period;
          global_tracer().set_period(run.period);
          obs::global_event_log().set_period(run.period);
          global_metrics().counter("worker.periods").add();
          // Directives are handled in order. The entries up to a stall or
          // abort directive step as one batch, so their frames are sent
          // before the sleep or the exit.
          std::size_t begin = 0;
          for (std::size_t entry = 0; entry < run.ras.size(); ++entry) {
            const core::RaPeriodDirective& d = run.directives[entry];
            if (d.stall_ms == 0 && !d.abort_run) continue;
            if (!step_batch(run, begin, entry)) return 1;
            begin = entry;
            if (d.stall_ms > 0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(d.stall_ms));
            }
            if (d.abort_run) _exit(1);  // chaos: die mid-exchange, no trace
          }
          if (!step_batch(run, begin, run.ras.size())) return 1;
          if (run.telemetry_every > 0 && ++periods_since_ship >= run.telemetry_every) {
            periods_since_ship = 0;
            if (!ship_telemetry(run.period)) return 1;
          }
          break;
        }
        case FrameType::Coordination: {
          const CoordinationPayload coordination = decode_coordination(frame.payload);
          context.environments[slot_of(frame.ra)]->set_coordination(
              coordination.z_minus_y);
          break;
        }
        case FrameType::Restore: {
          std::istringstream blob(frame.payload);
          context.environments[slot_of(frame.ra)]->load_state(blob);
          if (!send(FrameType::Ack, frame.ra, encode_u64(0))) return 1;
          break;
        }
        case FrameType::Ping: {
          if (!send(FrameType::Pong, kConnectionScope, std::string(frame.payload))) return 1;
          break;
        }
        case FrameType::Shutdown:
          // Final flush: whatever accumulated since the last cadence ship
          // reaches the supervisor before the clean exit. Disarm the
          // crash hook first-thing after — the fd is about to close.
          if (crash_flush_armed) {
            ship_telemetry(last_period);
            obs::set_crash_flush_hook(nullptr);
            g_crash_fd = -1;
            g_crash_seq = nullptr;
          }
          return 0;
        default:
          return 1;  // supervisor never sends the other types
      }
    }
  } catch (const std::exception&) {
    return 1;
  }
}

}  // namespace edgeslice::ipc
