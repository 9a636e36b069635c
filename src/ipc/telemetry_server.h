// Live telemetry exposition for long-running benches and deployments.
//
// The exposition is part of the obs plane (namespace edgeslice::obs) but
// lives in es_ipc, beside the socket layer it is built on: ipc::PollLoop
// accepts its connections and ipc::write_all sends its responses.
//
// Two pieces, both strictly observation-only (they read the process-global
// registry / tracer / flight recorder and never write back):
//
//  * TelemetryServer — a deliberately tiny single-threaded POSIX-socket
//    HTTP/1.0 server bound to localhost, serving
//        /metrics      Prometheus text format (MetricsRegistry::write_prometheus)
//        /events.json  flight-recorder window as a JSON array
//        /spans.json   span tracer aggregates (Tracer::write_json)
//        /fleet.json   per-worker fleet status (obs/aggregator.h)
//        /healthz      200 "ok" liveness probe
//    Every response (success or error, including 405 for non-GET with an
//    Allow header) carries Content-Type, Content-Length, and Connection:
//    close. One background thread runs an ipc::PollLoop with the
//    listening socket registered and answers each accepted connection
//    inline, one at a time. The request read is bounded by one 1 s
//    deadline that starts at accept, so a client that trickles bytes
//    costs the others at most that long. Responses are built under
//    the exporters' own locks, so a scrape can run while the orchestrator
//    is mid-period. Off by default; benches enable it with
//    --telemetry-port / EDGESLICE_TELEMETRY_PORT.
//
//  * RollingSnapshotWriter — rewrites a JSON observability snapshot
//    (metrics + spans + events) every N orchestration periods during a
//    long run, atomically (common/binio.h atomic_write_file), so a crash
//    mid-run leaves the previous complete snapshot instead of nothing —
//    and never a truncated file. Benches enable it with
//    --metrics-interval.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

namespace edgeslice::obs {

/// The first line of an HTTP request: "METHOD SP path SP ...".
struct RequestLine {
  std::string method;
  std::string path;
};

/// Parse the request line at the start of `bytes` (up to the first LF,
/// or all of `bytes` when there is none; a CR before the LF is dropped).
/// A line without two spaces yields the empty result; otherwise method
/// and path are the bytes before the first space and between the first
/// two — always substrings of `bytes`.
RequestLine parse_request_line(std::string_view bytes);

/// Worker-process liveness as published by the multi-process control
/// plane's supervisor. total == 0 means the run has no worker plane
/// (single-process) and /healthz reads healthy.
struct WorkerLiveness {
  std::size_t alive = 0;
  std::size_t total = 0;
};

/// Publish worker liveness (ipc::WorkerSupervisor calls this after every
/// spawn/death/period). Thread-safe; /healthz answers 503 "degraded"
/// while alive < total.
void set_worker_liveness(std::size_t alive, std::size_t total);
WorkerLiveness worker_liveness();

struct TelemetryServerConfig {
  /// TCP port to listen on; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Loopback only by default: telemetry is unauthenticated.
  std::string bind_address = "127.0.0.1";
};

class TelemetryServer {
 public:
  explicit TelemetryServer(TelemetryServerConfig config = {});
  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Bind + listen (ipc::listen_tcp) + spawn the serving thread. Returns false (with a log
  /// line) when the socket cannot be bound; the process carries on
  /// without telemetry rather than dying.
  bool start();
  /// Stop the serving thread and close the socket (idempotent).
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The actually bound port (resolves config port 0).
  std::uint16_t port() const { return port_; }

 private:
  void serve_loop();
  void handle_client(int client_fd);

  TelemetryServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Write one combined observability snapshot — {"metrics": ..., "spans":
/// ..., "events": [...]} — to `path` via atomic_write_file. Returns false
/// when the file cannot be written.
bool write_observability_snapshot(const std::string& path);

class RollingSnapshotWriter {
 public:
  /// Rewrite `path` (atomically) whenever the global "system.periods"
  /// counter has advanced by at least `interval_periods` since the last
  /// write, polling every `poll_ms`. Starts its thread immediately.
  RollingSnapshotWriter(std::string path, std::uint64_t interval_periods,
                        unsigned poll_ms = 200);
  ~RollingSnapshotWriter();
  RollingSnapshotWriter(const RollingSnapshotWriter&) = delete;
  RollingSnapshotWriter& operator=(const RollingSnapshotWriter&) = delete;

  /// Stop the thread; writes one final snapshot if anything advanced.
  void stop();
  std::uint64_t snapshots_written() const { return writes_.load(std::memory_order_relaxed); }

 private:
  void loop();

  std::string path_;
  std::uint64_t interval_;
  unsigned poll_ms_;
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace edgeslice::obs
