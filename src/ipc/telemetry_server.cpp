#include "ipc/telemetry_server.h"

#include <unistd.h>

#include <cstring>
#include <ctime>
#include <limits>
#include <sstream>

#include "common/binio.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace_span.h"
#include "ipc/event_loop.h"
#include "ipc/socket.h"
#include "obs/aggregator.h"
#include "obs/event_log.h"

namespace edgeslice::obs {

namespace {

// Worker-process liveness published by the supervisor; /healthz degrades
// when workers are down. total == 0 means "no worker plane" (single
// process) and reads as healthy.
std::atomic<std::size_t> g_workers_alive{0};
std::atomic<std::size_t> g_workers_total{0};

}  // namespace

void set_worker_liveness(std::size_t alive, std::size_t total) {
  g_workers_alive.store(alive, std::memory_order_relaxed);
  g_workers_total.store(total, std::memory_order_relaxed);
}

WorkerLiveness worker_liveness() {
  // Read total first: a concurrent shrink to 0/0 (supervisor stop) can
  // then only surface as healthy, never as a phantom degradation.
  WorkerLiveness liveness;
  liveness.total = g_workers_total.load(std::memory_order_relaxed);
  liveness.alive = g_workers_alive.load(std::memory_order_relaxed);
  return liveness;
}

TelemetryServer::TelemetryServer(TelemetryServerConfig config)
    : config_(std::move(config)) {}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start() {
  if (running()) return true;
  listen_fd_ = ipc::listen_tcp(config_.bind_address, config_.port, "telemetry", port_);
  if (listen_fd_ < 0) return false;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  ES_LOG(Info) << "telemetry: serving /metrics /events.json /spans.json "
                  "/fleet.json /healthz on "
               << config_.bind_address << ":" << port_;
  return true;
}

void TelemetryServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TelemetryServer::serve_loop() {
  ipc::PollLoop loop;
  loop.add_listener(listen_fd_, [this](int client_fd) {
    handle_client(client_fd);
    ::close(client_fd);
  });
  const auto stopping = [this] { return stop_.load(std::memory_order_acquire); };
  while (!stopping()) loop.run_until(stopping, /*deadline_ms=*/100);
}

RequestLine parse_request_line(std::string_view bytes) {
  std::string_view line = bytes.substr(0, bytes.find('\n'));
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return {};
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return {};
  RequestLine request;
  request.method = line.substr(0, sp1);
  request.path = line.substr(sp1 + 1, sp2 - (sp1 + 1));
  return request;
}

namespace {

/// Budget for one connection's request read, from accept to the end of
/// its first line (what arrived by then is parsed as it stands), and
/// again for its response.
constexpr int kRequestDeadlineMs = 1000;

/// Read until the first LF, 4 KiB, EOF or the request deadline (counted
/// from accept), whichever comes first; telemetry requests carry no
/// interesting headers or body.
RequestLine read_request_line(int fd) {
  const std::int64_t deadline = ipc::now_ms() + kRequestDeadlineMs;
  char buf[4096];
  std::size_t used = 0;
  while (used < sizeof(buf) && std::memchr(buf, '\n', used) == nullptr) {
    std::size_t got = 0;
    if (ipc::read_some(fd, buf + used, sizeof(buf) - used, deadline, got) !=
        ipc::IoResult::Ok) {
      break;
    }
    used += got;
  }
  return parse_request_line(std::string_view(buf, used));
}

/// Every response — success or error — goes through here, so the status
/// line (HTTP/1.0), Content-Type, Content-Length, and Connection: close
/// are uniform across all paths. `extra_headers`, when non-null, is
/// appended verbatim and must end with CRLF (e.g. "Allow: GET\r\n").
void send_response(int fd, int status, const char* reason, const char* content_type,
                   const std::string& body, const char* extra_headers = nullptr) {
  std::ostringstream head;
  head << "HTTP/1.0 " << status << " " << reason << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n";
  if (extra_headers != nullptr) head << extra_headers;
  head << "Connection: close\r\n\r\n" << body;
  const std::string response = head.str();
  // Only the deadline bounds the send: a large /metrics body takes many
  // EAGAIN rounds even to a client that reads at full speed, while a
  // client that stalls or reads slowly is dropped when the deadline
  // passes, which bounds what one connection costs the others.
  ipc::SendOptions options;
  options.deadline_ms = kRequestDeadlineMs;
  options.max_attempts = std::numeric_limits<int>::max();
  ipc::write_all(fd, response.data(), response.size(), options);
}

}  // namespace

void TelemetryServer::handle_client(int client_fd) {
  const RequestLine request = read_request_line(client_fd);
  const std::string& path = request.path;
  global_metrics().counter("telemetry.requests").add();
  if (request.method.empty() && path.empty()) {
    send_response(client_fd, 400, "Bad Request", "text/plain", "bad request\n");
    return;
  }
  if (request.method != "GET") {
    send_response(client_fd, 405, "Method Not Allowed", "text/plain",
                  "method not allowed\n", "Allow: GET\r\n");
    return;
  }
  if (path == "/metrics") {
    std::ostringstream body;
    global_metrics().write_prometheus(body);
    send_response(client_fd, 200, "OK", "text/plain; version=0.0.4", body.str());
  } else if (path == "/events.json") {
    std::ostringstream body;
    global_event_log().write_json_array(body);
    body << "\n";
    send_response(client_fd, 200, "OK", "application/json", body.str());
  } else if (path == "/spans.json") {
    std::ostringstream body;
    global_tracer().write_json(body);
    body << "\n";
    send_response(client_fd, 200, "OK", "application/json", body.str());
  } else if (path == "/fleet.json") {
    send_response(client_fd, 200, "OK", "application/json", fleet_status_json());
  } else if (path == "/healthz") {
    const WorkerLiveness liveness = worker_liveness();
    if (liveness.total > 0 && liveness.alive < liveness.total) {
      std::ostringstream body;
      body << "degraded: " << liveness.alive << "/" << liveness.total
           << " workers alive\n";
      send_response(client_fd, 503, "Service Unavailable", "text/plain", body.str());
    } else {
      send_response(client_fd, 200, "OK", "text/plain", "ok\n");
    }
  } else {
    send_response(client_fd, 404, "Not Found", "text/plain", "not found\n");
  }
}

bool write_observability_snapshot(const std::string& path) {
  std::ostringstream out;
  out << "{\n\"metrics\": ";
  global_metrics().write_json(out);
  out << ",\n\"spans\": ";
  global_tracer().write_json(out);
  out << ",\n\"events\": ";
  global_event_log().write_json_array(out);
  out << "\n}\n";
  return atomic_write_file(path, out.str());
}

RollingSnapshotWriter::RollingSnapshotWriter(std::string path,
                                             std::uint64_t interval_periods,
                                             unsigned poll_ms)
    : path_(std::move(path)),
      interval_(interval_periods == 0 ? 1 : interval_periods),
      poll_ms_(poll_ms == 0 ? 1 : poll_ms) {
  thread_ = std::thread([this] { loop(); });
}

RollingSnapshotWriter::~RollingSnapshotWriter() { stop(); }

void RollingSnapshotWriter::stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
  // Final snapshot so the file reflects the end of the run even when the
  // last interval boundary was never crossed.
  if (write_observability_snapshot(path_)) {
    writes_.fetch_add(1, std::memory_order_relaxed);
  }
}

void RollingSnapshotWriter::loop() {
  std::uint64_t last_dumped = global_metrics().counter("system.periods").value();
  while (!stop_.load(std::memory_order_acquire)) {
    struct timespec ts{static_cast<time_t>(poll_ms_ / 1000),
                       static_cast<long>(poll_ms_ % 1000) * 1000000L};
    ::nanosleep(&ts, nullptr);
    const std::uint64_t periods = global_metrics().counter("system.periods").value();
    if (periods >= last_dumped + interval_) {
      if (write_observability_snapshot(path_)) {
        writes_.fetch_add(1, std::memory_order_relaxed);
      }
      last_dumped = periods;
    }
  }
}

}  // namespace edgeslice::obs
