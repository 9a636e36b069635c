#include "ipc/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "common/logging.h"

namespace edgeslice::ipc {

namespace {

/// send(2) with MSG_NOSIGNAL when the fd is a socket, falling back to
/// write(2) for pipes/files (ENOTSOCK). SIGPIPE is additionally ignored
/// process-wide by the servers and the supervisor, so either path is
/// EPIPE, not death.
ssize_t write_some(int fd, const char* data, std::size_t size) {
  const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
  if (n < 0 && errno == ENOTSOCK) return ::write(fd, data, size);
  return n;
}

}  // namespace

const char* io_result_name(IoResult result) {
  switch (result) {
    case IoResult::Ok: return "ok";
    case IoResult::Deadline: return "deadline";
    case IoResult::Closed: return "closed";
    case IoResult::Error: return "error";
  }
  return "unknown";
}

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int listen_tcp(const std::string& address, std::uint16_t port, const char* who,
               std::uint16_t& bound_port) {
  // A peer that disconnects with a response in flight must surface as
  // EPIPE from send(2), never kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ES_LOG(Warn) << who << ": bad bind address " << address;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    ES_LOG(Warn) << who << ": socket() failed: " << std::strerror(errno);
    return -1;
  }
  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  socklen_t addr_len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 256) < 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    ES_LOG(Warn) << who << ": cannot listen on " << address << ":" << port << ": "
                 << std::strerror(errno);
    ::close(fd);
    return -1;
  }
  bound_port = ntohs(addr.sin_port);
  return fd;
}

IoResult write_all(int fd, const char* data, std::size_t size,
                   const SendOptions& options, int* retries) {
  const std::int64_t deadline = now_ms() + options.deadline_ms;
  std::size_t sent = 0;
  int attempts = 0;
  int backoff_ms = options.backoff_initial_ms;
  while (sent < size) {
    const ssize_t n = write_some(fd, data + sent, size - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // never consumes an attempt
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) return IoResult::Closed;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return IoResult::Error;
    // Socket buffer full (or a zero-byte write): bounded retry with
    // exponential backoff, waiting poll-side for writability.
    if (++attempts >= options.max_attempts) return IoResult::Deadline;
    if (retries != nullptr) ++*retries;
    const std::int64_t remaining = deadline - now_ms();
    if (remaining <= 0) return IoResult::Deadline;
    pollfd pfd{fd, POLLOUT, 0};
    const int wait =
        static_cast<int>(remaining < backoff_ms ? remaining : backoff_ms);
    const int ready = ::poll(&pfd, 1, wait);
    if (ready < 0 && errno != EINTR) return IoResult::Error;
    if (ready > 0 && (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
        (pfd.revents & POLLOUT) == 0) {
      return IoResult::Closed;
    }
    backoff_ms = backoff_ms * 2 < options.backoff_max_ms ? backoff_ms * 2
                                                         : options.backoff_max_ms;
  }
  return IoResult::Ok;
}

IoResult read_some(int fd, char* data, std::size_t size, std::int64_t deadline,
                   std::size_t& got) {
  for (;;) {
    const std::int64_t remaining = deadline - now_ms();
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, remaining > 0 ? static_cast<int>(remaining) : 0);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoResult::Error;
    }
    if (ready == 0) return IoResult::Deadline;
    const ssize_t n = ::read(fd, data, size);
    if (n > 0) {
      got = static_cast<std::size_t>(n);
      return IoResult::Ok;
    }
    if (n == 0) return IoResult::Closed;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return errno == ECONNRESET ? IoResult::Closed : IoResult::Error;
  }
}

}  // namespace edgeslice::ipc
