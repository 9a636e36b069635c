// Client side of the policy-serving protocol.
//
// ServeClient is the reference client the load generator
// (bench/serve_load.cpp) and the serve tests are built on: one blocking
// TCP connection speaking ESFR frames, with non-blocking sends
// (send_decide fires and returns — open-loop load generation must never
// stall on the server) and an ipc::FrameReader drain for whatever
// responses have arrived. Blocking conveniences (decide, status, ping)
// wrap the same machinery for request/response callers.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "ipc/frame.h"
#include "serve/protocol.h"

namespace edgeslice::serve {

class ServeClient {
 public:
  /// Connect to a policy-serve daemon. Throws std::runtime_error when the
  /// connection cannot be established within `timeout_ms`.
  static ServeClient connect(const std::string& host, std::uint16_t port,
                             int timeout_ms = 5000);
  ~ServeClient();
  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  int fd() const { return fd_; }

  /// Fire one DecideRequest (does not wait for the response). Throws on
  /// I/O failure.
  void send_decide(std::uint64_t request_id, const std::vector<double>& observation);

  /// Drain DecideResponses that arrive within `deadline_ms` (0 polls once
  /// without waiting). Non-decision frames picked up along the way are
  /// buffered for status()/ping(). Throws on protocol violation or EOF.
  std::vector<DecideResponsePayload> poll_decisions(int deadline_ms);

  /// Blocking round trips. Each throws std::runtime_error on timeout,
  /// EOF, or protocol violation. decide() buffers non-matching decisions
  /// (an open-loop sender mixing decide() in would reorder), so it
  /// composes with poll_decisions().
  DecideResponsePayload decide(std::uint64_t request_id,
                               const std::vector<double>& observation,
                               int timeout_ms = 5000);
  ServeStatusPayload status(int timeout_ms = 5000);
  std::string ping(const std::string& payload, int timeout_ms = 5000);

  /// Escape hatch for hostile-input tests: write raw bytes to the socket.
  void send_raw(const std::string& bytes);
  /// Escape hatch: send an arbitrary frame with the connection's next seq.
  void send_frame(ipc::FrameType type, std::string payload);

 private:
  ServeClient() = default;
  /// Read until `deadline_ms`, routing frames into the decision/other
  /// buffers; returns false on deadline, throws on EOF/violation.
  bool pump(int deadline_ms);
  std::optional<ipc::Frame> take_other(ipc::FrameType type);

  int fd_ = -1;
  std::uint64_t out_seq_ = 0;
  ipc::FrameReader reader_;
  std::deque<DecideResponsePayload> decisions_;
  std::deque<ipc::Frame> others_;  // ServeStatus / Pong replies
};

}  // namespace edgeslice::serve
