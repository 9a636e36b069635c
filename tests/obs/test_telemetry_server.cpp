// Telemetry server tests, driven through real loopback sockets: golden
// Prometheus exposition, the JSON endpoints, liveness while a system is
// mid-run, and the atomic snapshot writers.
#include "ipc/telemetry_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace_span.h"
#include "core/system.h"
#include "env/service_model.h"
#include "obs/event_log.h"

namespace edgeslice::obs {
namespace {

class TelemetryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    edgeslice::global_metrics().clear();
    edgeslice::global_tracer().clear();
    global_event_log().clear();
  }
  void TearDown() override {
    set_metrics_enabled(true);
    edgeslice::global_metrics().clear();
    edgeslice::global_tracer().clear();
    global_event_log().clear();
  }
};

struct HttpResponse {
  int status = 0;
  std::string body;
};

/// Minimal loopback HTTP/1.0 client: one GET, read to EOF.
HttpResponse http_get(std::uint16_t port, const std::string& path) {
  HttpResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return response;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return response;
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.0 NNN ..." then headers then CRLFCRLF then body.
  if (raw.size() > 12) response.status = std::atoi(raw.c_str() + 9);
  const std::size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) response.body = raw.substr(split + 4);
  return response;
}

std::unique_ptr<TelemetryServer> start_server() {
  auto server = std::make_unique<TelemetryServer>();  // port 0 = ephemeral
  if (!server->start()) return nullptr;
  return server;
}

TEST_F(TelemetryServerTest, MetricsEndpointServesGoldenPrometheusText) {
  auto& metrics = edgeslice::global_metrics();
  metrics.counter("bus.rcm_sent").add(12);
  metrics.gauge("system.crashed_ras").set(1.5);
  auto& histogram = metrics.histogram("bus.rcm_latency_periods");
  for (int i = 0; i < 4; ++i) histogram.observe(0.0);

  auto server = start_server();
  ASSERT_NE(server, nullptr);
  const HttpResponse response = http_get(server->port(), "/metrics");
  EXPECT_EQ(response.status, 200);
  // Golden body for the controlled registry: dots sanitized to '_',
  // counters/gauges as single samples, histograms as summaries. The
  // server's own request counter (exactly 1: this scrape) is part of the
  // deterministic output.
  const std::string expected =
      "# TYPE bus_rcm_sent counter\n"
      "bus_rcm_sent 12\n"
      "# TYPE telemetry_requests counter\n"
      "telemetry_requests 1\n"
      "# TYPE system_crashed_ras gauge\n"
      "system_crashed_ras 1.5\n"
      "# TYPE bus_rcm_latency_periods summary\n"
      "bus_rcm_latency_periods{quantile=\"0.5\"} 0\n"
      "bus_rcm_latency_periods{quantile=\"0.9\"} 0\n"
      "bus_rcm_latency_periods{quantile=\"0.99\"} 0\n"
      "bus_rcm_latency_periods_sum 0\n"
      "bus_rcm_latency_periods_count 4\n";
  EXPECT_EQ(response.body, expected);
}

TEST_F(TelemetryServerTest, EveryEndpointAnswersWhileASystemIsRunning) {
  auto server = start_server();
  ASSERT_NE(server, nullptr);

  // A live orchestration loop in the background, long enough to overlap
  // all the scrapes below.
  const auto model =
      std::make_shared<env::DirectServiceModel>(env::prototype_capacity());
  env::RaEnvironmentConfig env_cfg;
  env_cfg.intervals_per_period = 4;
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<core::RaPolicy>> policies;
  for (std::size_t j = 0; j < 2; ++j) {
    environments.push_back(std::make_unique<env::RaEnvironment>(
        env_cfg,
        std::vector<env::AppProfile>{env::slice1_profile(), env::slice2_profile()},
        model, env::make_queue_power_perf(), Rng(100 + j)));
    policies.push_back(std::make_unique<core::TaroPolicy>());
  }
  core::CoordinatorConfig coordinator;
  coordinator.slices = 2;
  coordinator.ras = 2;
  std::vector<env::RaEnvironment*> env_ptrs{environments[0].get(),
                                            environments[1].get()};
  std::vector<core::RaPolicy*> policy_ptrs{policies[0].get(), policies[1].get()};
  core::EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator);
  std::thread runner([&system] { system.run(50); });

  const HttpResponse health = http_get(server->port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpResponse prometheus = http_get(server->port(), "/metrics");
  EXPECT_EQ(prometheus.status, 200);

  const HttpResponse events = http_get(server->port(), "/events.json");
  EXPECT_EQ(events.status, 200);
  EXPECT_EQ(events.body.front(), '[');

  const HttpResponse spans = http_get(server->port(), "/spans.json");
  EXPECT_EQ(spans.status, 200);
  EXPECT_EQ(spans.body.front(), '{');

  runner.join();
  // A scrape after the run sees the final period count.
  const HttpResponse after = http_get(server->port(), "/metrics");
  EXPECT_NE(after.body.find("system_periods 50\n"), std::string::npos);
}

TEST_F(TelemetryServerTest, UnknownPathIs404AndNonGetIs405) {
  auto server = start_server();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(http_get(server->port(), "/nope").status, 404);

  // A non-GET request to a real resource is 405 with an Allow header, not
  // 400 — the request parsed fine, the method is just unsupported.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char request[] = "POST /metrics HTTP/1.0\r\n\r\n";
  ::send(fd, request, sizeof(request) - 1, 0);
  std::string raw;
  char buf[256];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ASSERT_GT(raw.size(), 12u);
  EXPECT_EQ(std::atoi(raw.c_str() + 9), 405);
  EXPECT_NE(raw.find("Allow: GET\r\n"), std::string::npos);
}

TEST_F(TelemetryServerTest, TricklingClientDoesNotHoldTheServer) {
  auto server = start_server();
  ASSERT_NE(server, nullptr);
  // A client that sends one byte every 300 ms and never ends its request
  // line. The request read is bounded by one deadline from accept, not
  // restarted per byte, so it cannot hold /healthz for its whole trickle.
  const int slow = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(slow, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(slow, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::atomic<bool> answered{false};
  std::thread trickler([&] {
    const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!answered.load() && std::chrono::steady_clock::now() < end) {
      if (::send(slow, "G", 1, MSG_NOSIGNAL) != 1) break;  // the server dropped it
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // trickler accepted first
  const auto start = std::chrono::steady_clock::now();
  const HttpResponse health = http_get(server->port(), "/healthz");
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  answered.store(true);
  trickler.join();
  ::close(slow);
  EXPECT_EQ(health.status, 200);
  EXPECT_LT(waited, 2.0);
}

TEST_F(TelemetryServerTest, StopIsIdempotentAndRestartable) {
  auto server = start_server();
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server->running());
  const std::uint16_t port = server->port();
  EXPECT_GT(port, 0);
  server->stop();
  server->stop();
  EXPECT_FALSE(server->running());
  EXPECT_TRUE(server->start());  // rebinds (a fresh ephemeral port is fine)
  EXPECT_TRUE(server->running());
  EXPECT_EQ(http_get(server->port(), "/healthz").status, 200);
}

TEST_F(TelemetryServerTest, SnapshotWritesAtomicallyViaTmpAndRename) {
  edgeslice::global_metrics().counter("system.periods").add(3);
  global_event_log().record([] {
    Event e;
    e.kind = EventKind::RcmDropped;
    e.period = 1;
    return e;
  }());
  const std::string path = ::testing::TempDir() + "obs_snapshot.json";
  std::remove(path.c_str());
  ASSERT_TRUE(write_observability_snapshot(path));
  // The temp file was renamed away, and the document holds all 3 sections.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  EXPECT_NE(text.find("\"metrics\": "), std::string::npos);
  EXPECT_NE(text.find("\"spans\": "), std::string::npos);
  EXPECT_NE(text.find("\"events\": "), std::string::npos);
  EXPECT_NE(text.find("\"rcm.dropped\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TelemetryServerTest, RollingSnapshotWriterTracksPeriodCounter) {
  const std::string path = ::testing::TempDir() + "obs_rolling.json";
  std::remove(path.c_str());
  {
    RollingSnapshotWriter writer(path, /*interval_periods=*/2, /*poll_ms=*/5);
    auto& periods = edgeslice::global_metrics().counter("system.periods");
    for (int i = 0; i < 6; ++i) {
      periods.add();
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
    writer.stop();
    // At least the final stop() snapshot; usually rolling writes too (not
    // asserted — the writer thread may be starved on a loaded 1-core box).
    EXPECT_GE(writer.snapshots_written(), 1u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"system.periods\": 6"), std::string::npos);
  std::remove(path.c_str());
}

/// One seeded mutation of an HTTP request: a bit flip, a truncation, a
/// dropped space, CR/LF stripped, a NUL byte, or a 4 KiB run of one byte.
std::string mutate_request(std::string bytes, std::mt19937_64& rng) {
  const auto at = [&](std::size_t n) { return static_cast<std::size_t>(rng() % (n + 1)); };
  switch (rng() % 6) {
    case 0:
      if (!bytes.empty()) {
        bytes[at(bytes.size() - 1)] ^= static_cast<char>(1u << (rng() % 8));
      }
      break;
    case 1:
      bytes.resize(at(bytes.size()));
      break;
    case 2: {
      const std::size_t space = bytes.find(' ', at(bytes.size()));
      if (space != std::string::npos) bytes.erase(space, 1);
      break;
    }
    case 3:
      std::erase_if(bytes, [](char c) { return c == '\r' || c == '\n'; });
      break;
    case 4:
      bytes.insert(at(bytes.size()), 1, '\0');
      break;
    default:
      bytes.insert(at(bytes.size()), 4096, static_cast<char>(rng() % 256));
      break;
  }
  if (bytes.size() > 8192) bytes.resize(8192);
  return bytes;
}

TEST(RequestLineParser, WellFormedLinesSplitIntoMethodAndPath) {
  const RequestLine get = parse_request_line("GET /metrics HTTP/1.0\r\nHost: a b\r\n\r\n");
  EXPECT_EQ(get.method, "GET");
  EXPECT_EQ(get.path, "/metrics");
  // The spaces must be on the first line; a later header line never
  // completes a truncated request line.
  const RequestLine split = parse_request_line("GET /x\r\nHost: a b\r\n");
  EXPECT_TRUE(split.method.empty());
  EXPECT_TRUE(split.path.empty());
  const RequestLine unterminated = parse_request_line("POST /healthz HTTP/1.0");
  EXPECT_EQ(unterminated.method, "POST");
  EXPECT_EQ(unterminated.path, "/healthz");
}

TEST(RequestLineParser, SeededMutationsYieldEmptyOrSubstrings) {
  const std::vector<std::string> corpus = {
      "GET /metrics HTTP/1.0\r\n\r\n",
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
      "POST /events.json HTTP/1.0\r\n\r\n",
      "GET  HTTP/1.0\r\n",
      "GET /spans.json HTTP/1.0",
      "",
      std::string(4096, ' '),
      "GET /" + std::string(4080, 'p') + " HTTP/1.0\r\n",
  };
  std::mt19937_64 rng(20200701);
  for (int i = 0; i < 20000; ++i) {
    std::string input = corpus[rng() % corpus.size()];
    for (std::uint64_t round = 0, rounds = 1 + rng() % 4; round < rounds; ++round) {
      input = mutate_request(std::move(input), rng);
    }
    const RequestLine line = parse_request_line(input);
    if (line.method.empty() && line.path.empty()) continue;
    ASSERT_NE(input.find(line.method), std::string::npos) << "iteration " << i;
    ASSERT_NE(input.find(line.path), std::string::npos) << "iteration " << i;
    ASSERT_EQ(line.method.find_first_of(" \n"), std::string::npos) << "iteration " << i;
    ASSERT_EQ(line.path.find_first_of(" \n"), std::string::npos) << "iteration " << i;
  }
}

}  // namespace
}  // namespace edgeslice::obs
