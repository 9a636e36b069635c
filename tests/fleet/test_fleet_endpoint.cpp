// Telemetry HTTP surface regression tests (ctest label: fleet): every
// endpoint is curled and its response framing checked — HTTP/1.0 status
// line, Content-Type, a Content-Length that matches the body byte count,
// Connection: close — plus the /fleet.json payload and the 404/405
// error paths (405 must carry Allow: GET). The framing is the contract
// external scrapers depend on; it must not drift per-route.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace_span.h"
#include "ipc/telemetry_server.h"
#include "obs/aggregator.h"
#include "obs/event_log.h"

namespace edgeslice::obs {
namespace {

class FleetEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    edgeslice::global_metrics().clear();
    edgeslice::global_tracer().clear();
    global_event_log().clear();
    set_fleet_status({});
    set_worker_liveness(0, 0);
  }
  void TearDown() override {
    edgeslice::global_metrics().clear();
    edgeslice::global_tracer().clear();
    global_event_log().clear();
    set_fleet_status({});
    set_worker_liveness(0, 0);
  }
};

struct HttpExchange {
  int status = 0;
  std::string status_line;
  std::map<std::string, std::string> headers;  // keys lowercased
  std::string body;
};

/// One raw request, response parsed into status line / headers / body.
HttpExchange http_request(std::uint16_t port, const std::string& request) {
  HttpExchange exchange;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return exchange;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return exchange;
  }
  ::send(fd, request.data(), request.size(), 0);
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos) return exchange;
  exchange.body = raw.substr(split + 4);
  const std::string head = raw.substr(0, split);
  std::size_t line_start = 0;
  while (line_start < head.size()) {
    std::size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string line = head.substr(line_start, line_end - line_start);
    if (line_start == 0) {
      exchange.status_line = line;
      if (line.size() > 12) exchange.status = std::atoi(line.c_str() + 9);
    } else {
      const std::size_t colon = line.find(": ");
      if (colon != std::string::npos) {
        std::string key = line.substr(0, colon);
        for (char& c : key) c = static_cast<char>(std::tolower(c));
        exchange.headers[key] = line.substr(colon + 2);
      }
    }
    line_start = line_end + 2;
  }
  return exchange;
}

HttpExchange http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

const std::vector<std::string>& all_paths() {
  static const std::vector<std::string> paths{
      "/metrics", "/events.json", "/spans.json", "/fleet.json", "/healthz"};
  return paths;
}

void expect_uniform_framing(const HttpExchange& exchange, const std::string& where) {
  EXPECT_EQ(exchange.status_line.rfind("HTTP/1.0 ", 0), 0u)
      << where << ": " << exchange.status_line;
  ASSERT_TRUE(exchange.headers.count("content-type")) << where;
  ASSERT_TRUE(exchange.headers.count("content-length")) << where;
  EXPECT_EQ(exchange.headers.at("content-length"), std::to_string(exchange.body.size()))
      << where;
  ASSERT_TRUE(exchange.headers.count("connection")) << where;
  EXPECT_EQ(exchange.headers.at("connection"), "close") << where;
}

TEST_F(FleetEndpointTest, EveryEndpointHasUniformResponseFraming) {
  // Non-trivial bodies on every surface so Content-Length is exercised
  // against real payloads, not empty strings.
  edgeslice::global_metrics().counter("worker.periods", {{"worker", "0"}}).set(12);
  {
    auto span = edgeslice::global_tracer().span("fleet.test");
    span.stop();
  }
  global_event_log().record([] {
    Event e;
    e.kind = EventKind::TelemetryGap;
    e.worker = 1;
    return e;
  }());
  std::vector<FleetWorkerStatus> fleet(2);
  fleet[1].slot = 1;
  set_fleet_status(std::move(fleet));

  TelemetryServer server;  // port 0 = ephemeral
  ASSERT_TRUE(server.start());
  for (const std::string& path : all_paths()) {
    const HttpExchange exchange = http_get(server.port(), path);
    EXPECT_EQ(exchange.status, 200) << path;
    expect_uniform_framing(exchange, "GET " + path);
    EXPECT_FALSE(exchange.body.empty()) << path;
  }

  const HttpExchange missing = http_get(server.port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  expect_uniform_framing(missing, "GET /nope");
  EXPECT_EQ(missing.body, "not found\n");
}

TEST_F(FleetEndpointTest, NonGetMethodsGet405WithAllowOnEveryEndpoint) {
  TelemetryServer server;
  ASSERT_TRUE(server.start());
  for (const std::string& path : all_paths()) {
    for (const char* method : {"POST", "PUT", "DELETE", "HEAD"}) {
      const HttpExchange exchange = http_request(
          server.port(), std::string(method) + " " + path + " HTTP/1.0\r\n\r\n");
      EXPECT_EQ(exchange.status, 405) << method << " " << path;
      expect_uniform_framing(exchange, std::string(method) + " " + path);
      ASSERT_TRUE(exchange.headers.count("allow")) << method << " " << path;
      EXPECT_EQ(exchange.headers.at("allow"), "GET");
      EXPECT_EQ(exchange.body, "method not allowed\n");
    }
  }
}

TEST_F(FleetEndpointTest, MalformedRequestLineIs400WithUniformFraming) {
  TelemetryServer server;
  ASSERT_TRUE(server.start());
  const HttpExchange exchange = http_request(server.port(), "garbage\r\n\r\n");
  EXPECT_EQ(exchange.status, 400);
  expect_uniform_framing(exchange, "garbage");
}

TEST_F(FleetEndpointTest, FleetJsonReflectsThePublishedTable) {
  std::vector<FleetWorkerStatus> fleet(2);
  fleet[0].slot = 0;
  fleet[0].alive = true;
  fleet[0].pid = 1234;
  fleet[0].ras = {0, 1};
  fleet[1].slot = 1;
  fleet[1].alive = false;
  fleet[1].restarts = 3;
  set_fleet_status(std::move(fleet));

  TelemetryServer server;
  ASSERT_TRUE(server.start());
  const HttpExchange exchange = http_get(server.port(), "/fleet.json");
  EXPECT_EQ(exchange.status, 200);
  EXPECT_EQ(exchange.headers.at("content-type"), "application/json");
  EXPECT_NE(exchange.body.find("\"total\": 2"), std::string::npos) << exchange.body;
  EXPECT_NE(exchange.body.find("\"alive\": 1"), std::string::npos) << exchange.body;
  EXPECT_NE(exchange.body.find("\"pid\": 1234"), std::string::npos) << exchange.body;
  EXPECT_NE(exchange.body.find("\"restarts\": 3"), std::string::npos) << exchange.body;
  EXPECT_NE(exchange.body.find("\"ras\": [0, 1]"), std::string::npos) << exchange.body;
  EXPECT_NE(exchange.body.find("\"last_snapshot_age_s\": null"), std::string::npos)
      << exchange.body;
}

TEST_F(FleetEndpointTest, LabeledSeriesExportThroughSlashMetrics) {
  auto& registry = edgeslice::global_metrics();
  registry.counter("worker.periods").set(2);  // supervisor's own unlabeled series
  registry.counter("worker.periods", {{"worker", "0"}}).set(5);
  registry.counter("worker.periods", {{"worker", "1"}}).set(7);

  TelemetryServer server;
  ASSERT_TRUE(server.start());
  const HttpExchange exchange = http_get(server.port(), "/metrics");
  EXPECT_EQ(exchange.status, 200);
  // One # TYPE line shared by the unlabeled and labeled variants.
  EXPECT_NE(exchange.body.find("# TYPE worker_periods counter\n"), std::string::npos);
  EXPECT_EQ(exchange.body.find("# TYPE worker_periods counter\n"),
            exchange.body.rfind("# TYPE worker_periods counter\n"));
  EXPECT_NE(exchange.body.find("worker_periods 2\n"), std::string::npos);
  EXPECT_NE(exchange.body.find("worker_periods{worker=\"0\"} 5\n"), std::string::npos);
  EXPECT_NE(exchange.body.find("worker_periods{worker=\"1\"} 7\n"), std::string::npos);
}

}  // namespace
}  // namespace edgeslice::obs
