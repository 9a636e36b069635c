#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace edgeslice::serve {

ServeClient ServeClient::connect(const std::string& host, std::uint16_t port,
                                 int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("serve client: socket() failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("serve client: bad host " + host);
  }
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("serve client: connect failed: ") +
                             std::strerror(saved));
  }
  // Decision requests are small and latency-bound: never wait to coalesce.
  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  ServeClient client;
  client.fd_ = fd;
  return client;
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      out_seq_(other.out_seq_),
      reader_(std::move(other.reader_)),
      decisions_(std::move(other.decisions_)),
      others_(std::move(other.others_)) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    out_seq_ = other.out_seq_;
    reader_ = std::move(other.reader_);
    decisions_ = std::move(other.decisions_);
    others_ = std::move(other.others_);
  }
  return *this;
}

void ServeClient::send_frame(ipc::FrameType type, std::string payload) {
  ipc::Frame frame;
  frame.type = type;
  frame.ra = ipc::kConnectionScope;
  frame.seq = out_seq_++;
  frame.payload = std::move(payload);
  const ipc::IoResult result = ipc::write_frame(fd_, frame);
  if (result != ipc::IoResult::Ok) {
    throw std::runtime_error(std::string("serve client: send failed: ") +
                             ipc::io_result_name(result));
  }
}

void ServeClient::send_decide(std::uint64_t request_id,
                              const std::vector<double>& observation) {
  DecideRequestPayload request;
  request.request_id = request_id;
  request.observation = observation;
  send_frame(ipc::FrameType::DecideRequest, encode_decide_request(request));
}

void ServeClient::send_raw(const std::string& bytes) {
  const ipc::IoResult result = ipc::write_all(fd_, bytes.data(), bytes.size(), {});
  if (result != ipc::IoResult::Ok) {
    throw std::runtime_error(std::string("serve client: raw send failed: ") +
                             ipc::io_result_name(result));
  }
}

bool ServeClient::pump(int deadline_ms) {
  // FrameReader throws on any protocol violation — the client is as
  // strict about the server's bytes as the server is about the client's.
  ipc::Frame frame;
  const ipc::IoResult result = reader_.read(fd_, frame, deadline_ms);
  if (result == ipc::IoResult::Deadline) return false;
  if (result != ipc::IoResult::Ok) {
    throw std::runtime_error(std::string("serve client: read failed: ") +
                             ipc::io_result_name(result));
  }
  // Route the frame that arrived and every one the same read completed.
  for (;;) {
    if (frame.type == ipc::FrameType::DecideResponse) {
      decisions_.push_back(decode_decide_response(frame.payload));
    } else {
      others_.push_back(std::move(frame));
    }
    if (!reader_.has_buffered_frame()) return true;
    reader_.read(fd_, frame, 0);
  }
}

std::vector<DecideResponsePayload> ServeClient::poll_decisions(int deadline_ms) {
  pump(deadline_ms);
  std::vector<DecideResponsePayload> out(decisions_.begin(), decisions_.end());
  decisions_.clear();
  return out;
}

std::optional<ipc::Frame> ServeClient::take_other(ipc::FrameType type) {
  for (auto it = others_.begin(); it != others_.end(); ++it) {
    if (it->type == type) {
      ipc::Frame frame = std::move(*it);
      others_.erase(it);
      return frame;
    }
  }
  return std::nullopt;
}

DecideResponsePayload ServeClient::decide(std::uint64_t request_id,
                                          const std::vector<double>& observation,
                                          int timeout_ms) {
  send_decide(request_id, observation);
  const std::int64_t deadline = ipc::now_ms() + timeout_ms;
  for (;;) {
    for (auto it = decisions_.begin(); it != decisions_.end(); ++it) {
      if (it->request_id == request_id) {
        DecideResponsePayload response = std::move(*it);
        decisions_.erase(it);
        return response;
      }
    }
    const std::int64_t remaining = deadline - ipc::now_ms();
    if (remaining <= 0) throw std::runtime_error("serve client: decide timed out");
    pump(static_cast<int>(remaining));
  }
}

ServeStatusPayload ServeClient::status(int timeout_ms) {
  send_frame(ipc::FrameType::ServeStatus, std::string());
  const std::int64_t deadline = ipc::now_ms() + timeout_ms;
  for (;;) {
    if (auto frame = take_other(ipc::FrameType::ServeStatus)) {
      return decode_serve_status(frame->payload);
    }
    const std::int64_t remaining = deadline - ipc::now_ms();
    if (remaining <= 0) throw std::runtime_error("serve client: status timed out");
    pump(static_cast<int>(remaining));
  }
}

std::string ServeClient::ping(const std::string& payload, int timeout_ms) {
  send_frame(ipc::FrameType::Ping, payload);
  const std::int64_t deadline = ipc::now_ms() + timeout_ms;
  for (;;) {
    if (auto frame = take_other(ipc::FrameType::Pong)) return frame->payload;
    const std::int64_t remaining = deadline - ipc::now_ms();
    if (remaining <= 0) throw std::runtime_error("serve client: ping timed out");
    pump(static_cast<int>(remaining));
  }
}

}  // namespace edgeslice::serve
