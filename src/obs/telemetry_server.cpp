#include "obs/telemetry_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <sstream>

#include "common/binio.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace_span.h"
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
  // A peer that disconnects mid-response must surface as EPIPE from
  // send(2), never kill the process. send() already passes MSG_NOSIGNAL;
  // this covers any future write path too.
  ::signal(SIGPIPE, SIG_IGN);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    ES_LOG(Warn) << "telemetry: socket() failed: " << std::strerror(errno);
    return false;
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ES_LOG(Warn) << "telemetry: bad bind address " << config_.bind_address;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 8) < 0) {
    ES_LOG(Warn) << "telemetry: cannot listen on " << config_.bind_address << ":"
                 << config_.port << ": " << std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = config_.port;
  }
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
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout (stop-flag check) or transient error
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle_client(client);
    ::close(client);
  }
}

namespace {

/// First request line up to CRLF, split into method and path. Reads at
/// most 4 KiB; telemetry requests carry no interesting headers or body.
/// A malformed line yields {"", ""}.
struct RequestLine {
  std::string method;
  std::string path;
};

RequestLine read_request_line(int fd) {
  char buf[4096];
  std::size_t used = 0;
  while (used < sizeof(buf) - 1) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/1000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    const ssize_t n = ::recv(fd, buf + used, sizeof(buf) - 1 - used, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    used += static_cast<std::size_t>(n);
    buf[used] = '\0';
    if (std::strstr(buf, "\r\n") != nullptr || std::strchr(buf, '\n') != nullptr) break;
  }
  buf[used] = '\0';
  // Parse "METHOD SP path SP ..." — anything malformed yields {"", ""}.
  const char* sp1 = std::strchr(buf, ' ');
  if (sp1 == nullptr) return {};
  const char* sp2 = std::strchr(sp1 + 1, ' ');
  if (sp2 == nullptr) return {};
  RequestLine line;
  line.method.assign(buf, static_cast<std::size_t>(sp1 - buf));
  line.path.assign(sp1 + 1, static_cast<std::size_t>(sp2 - (sp1 + 1)));
  return line;
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
  head << "Connection: close\r\n\r\n";
  const std::string header = head.str();
  // Returns false when the client is gone; EINTR and short writes are
  // retried (large /metrics bodies routinely exceed one send on a
  // loopback socket with a small buffer), with a bounded wait for the
  // peer to drain.
  const auto send_all = [fd](const char* data, std::size_t size) -> bool {
    std::size_t sent = 0;
    while (sent < size) {
      const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{fd, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, /*timeout_ms=*/1000);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) return false;  // stalled client: drop it
        continue;
      }
      return false;  // EPIPE / ECONNRESET / anything else: client is gone
    }
    return true;
  };
  if (send_all(header.data(), header.size())) send_all(body.data(), body.size());
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
