// Frame payload codecs (FORMATS.md "ESFR wire frame", payload tables).
//
// Every payload is binio-serialized (little-endian, doubles as IEEE-754
// bit patterns) so a trace that crosses the wire is byte-for-byte the
// data an in-process run would have produced. EnvState / Restore
// payloads are NOT defined here: their bodies are existing ESCK
// Environment section payloads carried verbatim — see src/ckpt/format.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace_span.h"
#include "core/ra_transport.h"
#include "obs/event_log.h"

namespace edgeslice::ipc {

/// Hello (worker -> supervisor): who am I, whom do I host.
struct HelloPayload {
  std::uint64_t worker_index = 0;
  std::vector<std::uint32_t> hosted_ras;
};

/// RunPeriod (supervisor -> worker): directives for the worker's hosted
/// RAs, in ascending RA order. RAs absent from the list are not run.
struct RunPeriodPayload {
  std::uint64_t period = 0;
  /// Ship a TelemetrySnapshot/TelemetryEvents pair back every N periods
  /// (0 disables worker telemetry entirely).
  std::uint64_t telemetry_every = 1;
  std::vector<std::uint32_t> ras;
  std::vector<core::RaPeriodDirective> directives;  // parallel to `ras`
};

/// Trace (worker -> supervisor): one RA's completed period.
struct TracePayload {
  std::uint64_t period = 0;
  core::RaPeriodTrace trace;
};

/// Coordination (supervisor -> worker): RC-L vector for one RA.
struct CoordinationPayload {
  std::uint64_t period = 0;
  std::vector<double> z_minus_y;
};

std::string encode_hello(const HelloPayload& payload);
HelloPayload decode_hello(const std::string& bytes);

std::string encode_run_period(const RunPeriodPayload& payload);
RunPeriodPayload decode_run_period(const std::string& bytes);

std::string encode_trace(const TracePayload& payload);
TracePayload decode_trace(const std::string& bytes);

std::string encode_coordination(const CoordinationPayload& payload);
CoordinationPayload decode_coordination(const std::string& bytes);

/// Ack / Ping / Pong payloads: a single u64.
std::string encode_u64(std::uint64_t value);
std::uint64_t decode_u64(const std::string& bytes, const char* context);

/// TelemetrySnapshot (worker -> supervisor): the worker's full cumulative
/// metrics registry plus the per-(path, period) span-aggregate deltas
/// since its previous snapshot. Cumulative metrics make the frame
/// idempotent — the aggregator republishes, never adds twice.
struct TelemetrySnapshotPayload {
  std::uint64_t period = 0;
  MetricsSnapshot metrics;
  std::vector<SpanPeriodStats> spans;
};

/// TelemetryEvents (worker -> supervisor): flight-recorder events drained
/// since the previous ship (seq-cursor based), origin timestamps intact.
struct TelemetryEventsPayload {
  std::vector<obs::Event> events;
};

std::string encode_telemetry_snapshot(const TelemetrySnapshotPayload& payload);
TelemetrySnapshotPayload decode_telemetry_snapshot(const std::string& bytes);

std::string encode_telemetry_events(const TelemetryEventsPayload& payload);
TelemetryEventsPayload decode_telemetry_events(const std::string& bytes);

/// Async-signal-safe encoder of one complete TelemetryEvents FRAME
/// (header + the payload encode_telemetry_events writes, through the same
/// writer) into a caller-owned buffer: no allocation, no locks, no
/// iostreams — the worker's crash-flush hook builds its final best-effort
/// frame with this. Returns the bytes written, or 0 when `cap` cannot
/// hold all `count` events.
std::size_t encode_telemetry_events_frame(char* buf, std::size_t cap,
                                          std::uint64_t seq,
                                          const obs::Event* events,
                                          std::size_t count);

}  // namespace edgeslice::ipc
