#include "serve/server.h"

#include <unistd.h>

#include <chrono>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace_span.h"
#include "ipc/event_loop.h"
#include "ipc/frame.h"
#include "ipc/socket.h"
#include "rl/batched_actor.h"
#include "serve/protocol.h"

namespace edgeslice::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

PolicyServer::PolicyServer(nn::Mlp policy, PolicyServerConfig config)
    : policy_(std::move(policy)), config_(std::move(config)) {}

PolicyServer::~PolicyServer() { stop(); }

bool PolicyServer::start() {
  if (running()) return true;
  listen_fd_ = ipc::listen_tcp(config_.bind_address, config_.port, "serve", port_);
  if (listen_fd_ < 0) return false;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void PolicyServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

ServeCounters PolicyServer::counters() const {
  ServeCounters counters;
  counters.requests = requests_.load(std::memory_order_relaxed);
  counters.decided = decided_.load(std::memory_order_relaxed);
  counters.shed = shed_.load(std::memory_order_relaxed);
  counters.rejected = rejected_.load(std::memory_order_relaxed);
  counters.ticks = ticks_.load(std::memory_order_relaxed);
  counters.accepted = accepted_.load(std::memory_order_relaxed);
  counters.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return counters;
}

void PolicyServer::serve_loop() {
  // One pending decision: who asked, what they asked, when it entered
  // the queue (the decision-latency clock starts at admission).
  struct Pending {
    int fd = -1;
    std::uint64_t request_id = 0;
    std::vector<double> observation;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct Client {
    std::uint64_t out_seq = 0;
  };

  ipc::PollLoop loop;
  std::map<int, Client> clients;
  std::deque<Pending> queue;
  rl::BatchedActor actor(policy_);
  MetricsRegistry& metrics = global_metrics();
  ipc::SendOptions send_options;
  send_options.deadline_ms = 2000;  // a stalled client costs 2 s, not the plane

  const auto close_client = [&](int fd) {
    clients.erase(fd);
    if (loop.has(fd)) loop.remove(fd);
    ::close(fd);
    metrics.gauge("serve.connections").set(static_cast<double>(clients.size()));
  };

  // Send one frame; on failure the client is gone — tear it down (its
  // queued requests are dropped at response time).
  const auto send_frame = [&](int fd, ipc::FrameType type, std::string payload) {
    auto it = clients.find(fd);
    if (it == clients.end()) return;
    ipc::Frame frame;
    frame.type = type;
    frame.ra = ipc::kConnectionScope;
    frame.seq = it->second.out_seq++;
    frame.payload = std::move(payload);
    if (ipc::write_frame(fd, frame, send_options) != ipc::IoResult::Ok) {
      close_client(fd);
    }
  };

  const auto answer = [&](int fd, std::uint64_t request_id, std::uint32_t status,
                          std::vector<double> action = {}) {
    DecideResponsePayload response;
    response.request_id = request_id;
    response.status = status;
    response.action = std::move(action);
    send_frame(fd, ipc::FrameType::DecideResponse, encode_decide_response(response));
  };

  const auto handle_frame = [&](int fd, ipc::Frame&& frame) {
    switch (frame.type) {
      case ipc::FrameType::DecideRequest: {
        DecideRequestPayload request = decode_decide_request(frame.payload);
        requests_.fetch_add(1, std::memory_order_relaxed);
        metrics.counter("serve.requests").add();
        if (request.observation.size() != policy_.in_dim()) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          metrics.counter("serve.bad_request").add();
          answer(fd, request.request_id, kDecideBadRequest);
          break;
        }
        if (queue.size() >= config_.queue_limit) {
          shed_.fetch_add(1, std::memory_order_relaxed);
          metrics.counter("serve.shed").add();
          answer(fd, request.request_id, kDecideShed);
          break;
        }
        Pending pending;
        pending.fd = fd;
        pending.request_id = request.request_id;
        pending.observation = std::move(request.observation);
        pending.enqueued = std::chrono::steady_clock::now();
        queue.push_back(std::move(pending));
        metrics.gauge("serve.queue_depth").set(static_cast<double>(queue.size()));
        break;
      }
      case ipc::FrameType::ServeStatus: {
        ServeStatusPayload status;
        status.policy_digest = config_.policy_digest;
        status.state_dim = policy_.in_dim();
        status.action_dim = policy_.out_dim();
        status.batch_max = config_.batch_max;
        status.queue_limit = config_.queue_limit;
        status.queue_depth = queue.size();
        status.decided = decided_.load(std::memory_order_relaxed);
        status.shed = shed_.load(std::memory_order_relaxed);
        status.rejected = rejected_.load(std::memory_order_relaxed);
        const Histogram& latency = metrics.histogram("serve.decision_seconds");
        status.p50_decision_seconds = latency.quantile(0.5);
        status.p99_decision_seconds = latency.quantile(0.99);
        send_frame(fd, ipc::FrameType::ServeStatus, encode_serve_status(status));
        break;
      }
      case ipc::FrameType::Ping:
        send_frame(fd, ipc::FrameType::Pong, std::string(frame.payload));
        break;
      default:
        // Clients have no business sending anything else.
        throw std::runtime_error(std::string("serve: unexpected frame type ") +
                                 ipc::frame_type_name(frame.type));
    }
  };

  loop.add_listener(listen_fd_, [&](int fd) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    metrics.counter("serve.accepted").add();
    clients.emplace(fd, Client{});
    metrics.gauge("serve.connections").set(static_cast<double>(clients.size()));
    loop.add(
        fd,
        [&](int client_fd, ipc::Frame&& frame) {
          // A frame that parses as a frame but not as a serve payload is
          // a protocol violation: tear down this connection only.
          try {
            handle_frame(client_fd, std::move(frame));
          } catch (const std::exception& error) {
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            metrics.counter("serve.protocol_errors").add();
            ES_LOG(Warn) << "serve: " << error.what();
            close_client(client_fd);
          }
        },
        [&](int client_fd, ipc::IoResult reason) {
          if (reason == ipc::IoResult::Error) {
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            metrics.counter("serve.protocol_errors").add();
          }
          clients.erase(client_fd);
          ::close(client_fd);
          metrics.gauge("serve.connections").set(static_cast<double>(clients.size()));
        });
  });

  while (!stop_.load(std::memory_order_acquire)) {
    loop.run_until(
        [&] { return stop_.load(std::memory_order_acquire) || !queue.empty(); },
        config_.poll_ms);
    if (queue.empty()) continue;

    // One batched forward pass per tick: every queued request up to
    // batch_max rides the same GEMMs.
    const std::size_t rows =
        queue.size() < config_.batch_max ? queue.size() : config_.batch_max;
    actor.begin(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      actor.set_state(row, queue[row].observation);
    }
    {
      auto span = global_tracer().span("serve.tick");
      actor.infer();
      span.stop();
    }
    ticks_.fetch_add(1, std::memory_order_relaxed);
    metrics.counter("serve.ticks").add();
    metrics.histogram("serve.batch_rows").observe(static_cast<double>(rows));
    for (std::size_t row = 0; row < rows; ++row) {
      Pending& pending = queue[row];
      if (clients.find(pending.fd) == clients.end()) continue;  // client left
      // Count before the response leaves: a client that has its answer
      // must never read a ServeStatus/counters() that predates it.
      decided_.fetch_add(1, std::memory_order_relaxed);
      metrics.counter("serve.decisions").add();
      metrics.histogram("serve.decision_seconds").observe(seconds_since(pending.enqueued));
      answer(pending.fd, pending.request_id, kDecideOk, actor.action(row));
    }
    queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(rows));
    metrics.gauge("serve.queue_depth").set(static_cast<double>(queue.size()));
  }

  loop.remove_listener(listen_fd_);
  std::vector<int> open;
  open.reserve(clients.size());
  for (const auto& [fd, client] : clients) open.push_back(fd);
  for (int fd : open) close_client(fd);
}

}  // namespace edgeslice::serve
