#include "ipc/event_loop.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

namespace edgeslice::ipc {

void PollLoop::add(int fd, FrameHandler on_frame, CloseHandler on_close) {
  if (find(fd) != nullptr)
    throw std::invalid_argument("PollLoop: fd already registered");
  Connection connection;
  connection.fd = fd;
  connection.on_frame = std::move(on_frame);
  connection.on_close = std::move(on_close);
  connections_.push_back(std::move(connection));
}

void PollLoop::remove(int fd) {
  connections_.erase(
      std::remove_if(connections_.begin(), connections_.end(),
                     [fd](const Connection& c) { return c.fd == fd; }),
      connections_.end());
}

bool PollLoop::has(int fd) const {
  for (const Connection& c : connections_) {
    if (c.fd == fd) return true;
  }
  return false;
}

void PollLoop::add_listener(int fd, AcceptHandler on_accept) {
  for (const Listener& l : listeners_) {
    if (l.fd == fd) throw std::invalid_argument("PollLoop: listener already registered");
  }
  Listener listener;
  listener.fd = fd;
  listener.on_accept = std::move(on_accept);
  listeners_.push_back(std::move(listener));
}

void PollLoop::remove_listener(int fd) {
  listeners_.erase(
      std::remove_if(listeners_.begin(), listeners_.end(),
                     [fd](const Listener& l) { return l.fd == fd; }),
      listeners_.end());
}

PollLoop::Connection* PollLoop::find(int fd) {
  for (Connection& c : connections_) {
    if (c.fd == fd) return &c;
  }
  return nullptr;
}

bool PollLoop::run_until(const std::function<bool()>& done, int deadline_ms) {
  const std::int64_t deadline = now_ms() + deadline_ms;
  char chunk[65536];
  while (!done()) {
    const std::int64_t remaining = deadline - now_ms();
    if (remaining <= 0) return false;
    // With no listener, an empty connection set can never satisfy done();
    // a listener keeps the loop alive waiting for its first accept.
    if (connections_.empty() && listeners_.empty()) return false;

    std::vector<pollfd> pfds;
    pfds.reserve(listeners_.size() + connections_.size());
    const std::size_t listener_count = listeners_.size();
    for (const Listener& l : listeners_) pfds.push_back({l.fd, POLLIN, 0});
    for (const Connection& c : connections_) pfds.push_back({c.fd, POLLIN, 0});
    const int slice = static_cast<int>(remaining > 100 ? 100 : remaining);
    const int ready = ::poll(pfds.data(), pfds.size(), slice);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("PollLoop: poll failed");
    }
    if (ready == 0) continue;

    // Listeners first: a freshly accepted connection's first bytes are
    // picked up by the next poll round.
    for (std::size_t i = 0; i < listener_count; ++i) {
      if ((pfds[i].revents & POLLIN) == 0) continue;
      bool still_registered = false;
      AcceptHandler on_accept;
      for (const Listener& l : listeners_) {
        if (l.fd == pfds[i].fd) {
          still_registered = true;
          on_accept = l.on_accept;
          break;
        }
      }
      if (!still_registered) continue;
      for (;;) {
        const int client = ::accept4(pfds[i].fd, nullptr, nullptr, SOCK_NONBLOCK);
        if (client < 0) {
          if (errno == EINTR) continue;
          break;  // EAGAIN (drained) or a transient accept error
        }
        // Responses are small and latency-bound: never hold them back to
        // coalesce (Nagle). On a non-TCP socket the call fails harmlessly.
        int nodelay = 1;
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
        on_accept(client);
      }
    }

    // Service by fd, re-looking each one up: a handler may remove any
    // connection (even the one being serviced) while we iterate.
    for (std::size_t i = listener_count; i < pfds.size(); ++i) {
      const pollfd& pfd = pfds[i];
      if (pfd.revents == 0) continue;
      Connection* connection = find(pfd.fd);
      if (connection == nullptr) continue;
      bool closed = false;
      IoResult reason = IoResult::Closed;
      std::vector<Frame> frames;
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        // Drain everything available now; EOF/error after data still
        // delivers the data first.
        for (;;) {
          const ssize_t n = ::read(pfd.fd, chunk, sizeof(chunk));
          if (n > 0) {
            try {
              std::vector<Frame> batch =
                  connection->assembler.feed(chunk, static_cast<std::size_t>(n));
              frames.insert(frames.end(),
                            std::make_move_iterator(batch.begin()),
                            std::make_move_iterator(batch.end()));
            } catch (const std::exception&) {
              closed = true;
              reason = IoResult::Error;  // protocol violation: corrupt channel
              break;
            }
            continue;
          }
          if (n == 0) {
            closed = true;
            reason = IoResult::Closed;
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          closed = true;
          reason = errno == ECONNRESET ? IoResult::Closed : IoResult::Error;
          break;
        }
      }
      const FrameHandler on_frame = connection->on_frame;
      const CloseHandler on_close = connection->on_close;
      const int fd = pfd.fd;
      for (Frame& frame : frames) {
        if (!has(fd)) break;  // a handler removed this connection
        on_frame(fd, std::move(frame));
      }
      if (closed && has(fd)) {
        remove(fd);
        on_close(fd, reason);
      }
    }
  }
  return true;
}

}  // namespace edgeslice::ipc
