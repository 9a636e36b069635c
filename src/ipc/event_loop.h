// A small poll(2)-based event loop multiplexing the supervisor's worker
// sockets, the policy-serve daemon's clients, and the listening sockets
// of both servers (policy-serve and telemetry): the repo's one accept
// loop.
//
// Each registered fd gets a FrameAssembler (frame.h) that turns the fd's
// byte stream back into validated frames (partial reads are buffered
// across poll rounds; both CRCs and strict seq monotonicity are enforced
// before a frame is surfaced). The loop is deliberately single-threaded
// and deadline-driven: run_until() pumps all fds until the caller's
// predicate is satisfied or the deadline passes, which is exactly the
// "collect traces from every worker, declare stragglers hung" shape the
// supervisor needs — a stalled worker costs the deadline, never a
// blocked control plane.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "ipc/frame.h"

namespace edgeslice::ipc {

class PollLoop {
 public:
  using FrameHandler = std::function<void(int fd, Frame&& frame)>;
  /// Invoked once when the connection ends: Closed on EOF, Error on a
  /// read error or protocol violation. The fd is already removed from
  /// the loop when the handler runs (the caller owns closing it).
  using CloseHandler = std::function<void(int fd, IoResult reason)>;
  /// Invoked once per accepted connection. The new fd is already
  /// non-blocking; the handler decides whether to add() it to the loop
  /// (and owns closing it if not).
  using AcceptHandler = std::function<void(int fd)>;

  void add(int fd, FrameHandler on_frame, CloseHandler on_close);
  void remove(int fd);
  bool has(int fd) const;
  std::size_t size() const { return connections_.size(); }

  /// Register a listening socket: while the loop runs, readiness on it
  /// accepts every pending connection (accept4 with SOCK_NONBLOCK, then
  /// TCP_NODELAY) and hands each new fd to `on_accept`. The policy-serve
  /// daemon and the telemetry server are the consumers; the supervisor's
  /// fixed socketpair fan-in never needs one.
  void add_listener(int fd, AcceptHandler on_accept);
  void remove_listener(int fd);

  /// Pump all registered fds until `done()` returns true or `deadline_ms`
  /// elapses. Returns true when the predicate was satisfied, false on
  /// deadline. Handlers run inline and may call remove() (including for
  /// the fd currently being serviced).
  bool run_until(const std::function<bool()>& done, int deadline_ms);

 private:
  struct Connection {
    int fd = -1;
    FrameAssembler assembler;
    FrameHandler on_frame;
    CloseHandler on_close;
  };
  struct Listener {
    int fd = -1;
    AcceptHandler on_accept;
  };

  Connection* find(int fd);

  std::vector<Connection> connections_;
  std::vector<Listener> listeners_;
};

}  // namespace edgeslice::ipc
