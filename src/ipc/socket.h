// The socket mechanics every TCP and socketpair peer in the repo shares:
// one listener setup, one deadline-bounded write loop and one
// deadline-bounded read. Nothing here knows the ESFR frame format
// (frame.h builds write_frame and FrameReader on top) or HTTP (the
// telemetry server builds its request read and responses on top); the
// one accept loop is PollLoop's (event_loop.h).
//
// Every call is EINTR-safe, resumes partial transfers and never raises
// SIGPIPE: writes go through send(MSG_NOSIGNAL) on sockets, and
// listen_tcp ignores SIGPIPE process-wide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace edgeslice::ipc {

/// Retry/backoff policy for sends. A send attempts the write, polling
/// for writability up to `deadline_ms` total; every EAGAIN round waits
/// poll-side with exponential backoff from `backoff_initial_ms`
/// (doubling, capped at `backoff_max_ms`) and at most `max_attempts`
/// rounds. EINTR never consumes an attempt.
struct SendOptions {
  int deadline_ms = 10000;
  int max_attempts = 8;
  int backoff_initial_ms = 1;
  int backoff_max_ms = 1000;
};

enum class IoResult {
  Ok,
  Deadline,  // peer did not drain (send) or produce (read) in time
  Closed,    // EOF / EPIPE / ECONNRESET: the peer is gone
  Error,     // any other errno
};

const char* io_result_name(IoResult result);

/// Monotonic clock in milliseconds (steady_clock based) for deadline
/// arithmetic shared by the event loop, the supervisor and the servers.
std::int64_t now_ms();

/// Bind a non-blocking TCP listener (SO_REUSEADDR) on
/// `address`:`port`, port 0 picking an ephemeral port, and store the
/// actually bound port in `bound_port`. Returns the fd, or -1 after a
/// warning prefixed with `who` when the address is malformed or cannot
/// be bound. Non-blocking because PollLoop drains a ready listener with
/// accept4 until EAGAIN.
int listen_tcp(const std::string& address, std::uint16_t port, const char* who,
               std::uint16_t& bound_port);

/// Write all `size` bytes to `fd` (blocking or non-blocking; a pipe or
/// file falls back to write(2)) under `options`. When `retries` is
/// non-null it receives the number of EAGAIN rounds that were waited
/// out, for callers that count them.
IoResult write_all(int fd, const char* data, std::size_t size,
                   const SendOptions& options, int* retries = nullptr);

/// One read(2) of up to `size` bytes once `fd` is readable, waiting no
/// later than `deadline` (a now_ms() instant). Ok with `got` > 0;
/// Deadline; Closed on EOF or ECONNRESET; Error otherwise.
IoResult read_some(int fd, char* data, std::size_t size, std::int64_t deadline,
                   std::size_t& got);

}  // namespace edgeslice::ipc
